"""Source-level rules for the library package."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rbscat"


def test_library_has_no_assert_statements():
    # checks raise explicit exceptions: python -O strips assert statements,
    # which would turn a failed proof into a pass
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert list(PACKAGE.glob("*.py"))
    assert found == [], found
