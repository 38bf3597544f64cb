"""Source-level rules for the library package."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_checks_import_no_third_party_package_but_numpy():
    # numpy is the one dependency (pyproject.toml); any other package
    # imported by the library would also add to the start-up time of
    # every command
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import rbscat.checks\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "['numpy', 'rbscat']"


def test_q_suite_and_pi1_do_not_import_numpy_ma():
    # in numpy 2.x, np.unique without return options imports numpy.ma,
    # about 20 ms of CPU, a quarter of the q-suite instance; the checks
    # count distinct keys on a sort instead
    code = ("import sys\n"
            "from rbscat.checks import check_pi1, check_q_suite\n"
            "check_q_suite(2, 2, 3)\n"
            "check_pi1('F3', 2)\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_only_fincat_and_jsonio_call_validate_category():
    # validate_category is the label-table front for outside input (JSON
    # artifacts) and hand-written tables; every builder in the library
    # passes index arrays to fincat._build instead
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else \
                    getattr(fn, "id", None)
                if name == "validate_category":
                    callers.add(path.stem)
    assert callers == {"fincat", "jsonio"}, callers


def test_only_fincat_build_constructs_a_fincat():
    # FinCat reads each hom-set as a range of its morphism indices, which
    # holds because _build sorts the morphisms by (source, target); a
    # FinCat made anywhere else could break that order.  It also pins that
    # every FinCat passed Light's associativity test in _build, which
    # fincat._subcategory relies on when a restriction skips that test
    callers = set()

    class Calls(ast.NodeVisitor):
        def __init__(self, module):
            self.where = [module]

        def visit_FunctionDef(self, node):
            self.where.append(node.name)
            self.generic_visit(node)
            self.where.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else \
                getattr(fn, "id", None)
            if name == "FinCat":
                callers.add(".".join(self.where))
            self.generic_visit(node)

    for path in sorted(PACKAGE.glob("*.py")):
        Calls(path.stem).visit(ast.parse(path.read_text(), filename=str(path)))
    assert callers == {"fincat._build"}, callers


def test_every_name_the_benchmark_tracer_binds_exists():
    # perfbench/spans.py rebinds each (module, attribute) of its TARGETS
    # with getattr; a name deleted from the library would break every
    # traced benchmark pass.  TARGETS is read from the source, so the
    # benchmark package is neither imported nor changed
    import importlib
    spans = PACKAGE.parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(), filename=str(spans))
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign) and
                   [t.id for t in node.targets] == ["TARGETS"])
    names = [(entry.elts[1].value, entry.elts[2].value)
             for entry in targets.elts]
    assert ("rbscat.rings", "enumerate_gl") in names
    missing = []
    for module, attribute in names:
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append("%s.%s" % (module, attribute))
    assert missing == [], missing
