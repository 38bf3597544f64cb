import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from rbscat import checks, cli, jsonio
from rbscat.fincat import (
    Group, Poset, group_category, poset_category, product_tuple)
from rbscat.guards import GuardConfig
from rbscat.homology import CSC, ChainComplex
from rbscat.jsonio import complex_to_json, fincat_to_json
from rbscat.toolkit import is_weakly_contractible
from test_presentation import disk_face_poset, poset


def bz2():
    return group_category(Group([0, 1], [[0, 1], [1, 0]], 0))


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "rbscat.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("spec", ["F2", "F3", "Z4"])
def test_verify_inductive_passes_at_rank_zero(spec):
    # R^0 has the empty flag alone, with one graded piece of rank 0
    code, out, err = run_cli("verify", "inductive", "--ring", spec,
                             "--n", "0", "--json")
    assert code == 0, err
    report = json.loads(out.splitlines()[0])
    assert report["verdict"] == "pass"
    assert report["measured"]["flags"] == {
        "0": {"iso": True, "equivalence": True, "graded": [0]}}


def test_build_rbs_json_and_determinism(tmp_path):
    code1, out1, _ = run_cli("build", "rbs", "--ring", "F2", "--n", "2")
    code2, out2, _ = run_cli("build", "rbs", "--ring", "F2", "--n", "2")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-stable
    doc = json.loads(out1)
    assert doc["schema"] == "fincat/1"
    assert len(doc["objects"]) == 4
    assert doc["ring"] == {"kind": "Fp", "p": 2, "k": 1}


def test_build_rbs_rank_zero():
    code, out, _ = run_cli("build", "rbs", "--ring", "F2", "--n", "0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["objects"]) == 1 and len(doc["morphisms"]) == 1


def test_build_tits():
    code, out, _ = run_cli("build", "tits", "--q", "2", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [14, 21]
    assert doc["steinberg_rank"] == 8


def maximal_chains_oracle(less):
    """Oracle for the building's facets: every maximal chain of a strict
    order, walked from each minimal element along the covers (i < j with
    nothing strictly between)."""
    n = len(less)
    covers = [[j for j in range(n) if less[i][j] and not any(
        less[i][k] and less[k][j] for k in range(n))] for i in range(n)]
    chains = []
    stack = [(x,) for x in range(n) if not any(less[y][x] for y in range(n))]
    while stack:
        chain = stack.pop()
        if not covers[chain[-1]]:
            chains.append(chain)
        stack.extend(chain + (y,) for y in covers[chain[-1]])
    return chains


def tits_oracle_bytes(q, n):
    """The `build tits` document by the oracle route: the maximal chains of
    the pairwise Submodule.__lt__ order, and homology in every degree."""
    from rbscat.homology import chain_complex_from_facets, homology
    from rbscat.rings import enumerate_submodules, make_ring
    subs = [s for s in enumerate_submodules(make_ring("F%d" % q), n)
            if 0 < s.rank < n]
    less = [[s < t for t in subs] for s in subs]
    cx = chain_complex_from_facets(maximal_chains_oracle(less))
    top = n - 2
    doc = complex_to_json(cx)
    doc["q"], doc["n"] = q, n
    doc["steinberg_rank"] = homology(cx, "Z").reduced_betti(top)
    doc["euler_characteristic"] = sum((-1) ** k * d
                                      for k, d in enumerate(cx.dims))
    return jsonio.dumps(doc)


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (4, 3)])
def test_build_tits_bytes_match_maximal_chains_oracle(q, n):
    code, out, _ = run_cli("build", "tits", "--q", str(q), "--n", str(n))
    assert code == 0
    assert out == tits_oracle_bytes(q, n)


def test_homology_roundtrip(tmp_path):
    art = tmp_path / "rbs.json"
    code, out, _ = run_cli("build", "rbs", "--ring", "F3", "--n", "2",
                           "--out", str(art))
    assert code == 0
    code, out, _ = run_cli("homology", "--artifact", str(art),
                           "--depth", "2", "--coeff", "Z", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"]["1"] == 0
    assert doc["torsion"]["1"] == [2]


def test_homology_inline_f2():
    code, out, _ = run_cli("homology", "rbs", "--ring", "F2", "--n", "2",
                           "--depth", "3", "--coeff", "F2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == {"0": 1, "1": 0, "2": 0}


def test_homology_coefficients_are_canonical():
    # "F+3", "F03" and "F\u0663" (an Arabic-Indic three) once exited 0 and
    # wrote their own spelling into the artifact, and "F" and "Fx" exited
    # with an int() message; only Z and F<prime> in ASCII digits pass
    for coeff in ("F+3", "F03", "F\u0663", "F", "Fx", "F4", "F1", "z", ""):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["homology", "rbs", "--ring", "F2", "--n", "2",
                             "--depth", "2", "--coeff", coeff, "--json"])
        assert code == 1 and out.getvalue() == "", coeff
        assert repr(coeff) in err.getvalue(), (coeff, err.getvalue())
        assert len(err.getvalue().splitlines()) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["homology", "rbs", "--ring", "F2", "--n", "2",
                         "--depth", "2", "--coeff", "F3", "--json"])
    assert code == 0
    assert json.loads(out.getvalue())["coefficients"] == "F3"


def test_verify_pass_and_fail_codes():
    code, out, _ = run_cli("verify", "steinberg", "--q", "2", "--n", "2")
    assert code == 0
    assert "PASS" in out
    code, _, err = run_cli("verify", "definitely-not-a-check")
    assert code == 1


def test_verify_json_report():
    code, out, _ = run_cli("verify", "poset-regularity", "--ring", "F2",
                           "--n", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["name"] == "poset-regularity"
    assert "provenance" in doc


def test_verify_list():
    code, out, _ = run_cli("verify", "--list")
    assert code == 0
    assert "steinberg" in out and "q-suite" in out


def test_guard_exit_code(tmp_path):
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"max_gl_candidates": 10}))
    code, _, err = run_cli("--config", str(cfg), "build", "rbs",
                           "--ring", "F3", "--n", "2")
    assert code == 2
    assert "guard" in err.lower()


def test_usage_exit_code(tmp_path):
    code, _, _ = run_cli("build", "nonsense")
    assert code == 1
    code, _, _ = run_cli()
    assert code == 1
    # each missing or conflicting argument is named on one usage line
    artifact = tmp_path / "rbs.json"
    code, text, _ = run_cli("build", "rbs", "--ring", "F2", "--n", "2")
    assert code == 0
    artifact.write_text(text)
    for argv, start, missing in (
            (["verify"], "usage: rbscat verify", "no check named"),
            (["homology"], "usage: rbscat homology", "got neither"),
            # a readable artifact beside an inline rbs is refused, not
            # half-read
            (["homology", "rbs", "--artifact", str(artifact)],
             "usage: rbscat homology", "got both")):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == "", argv
        assert len(err.splitlines()) == 1, err
        assert err.startswith(start) and missing in err, err


def test_invalid_ring_exit_code():
    code, _, err = run_cli("build", "rbs", "--ring", "F6", "--n", "2")
    assert code == 1


def test_bench_kernels():
    code, out, _ = run_cli("bench", "snf", "--size", "25")
    assert code == 0 and "snf 25x25" in out
    code, out, _ = run_cli("bench", "nerve", "--depth", "4")
    assert code == 0 and "[1, 5, 25, 125, 625]" in out
    code, out, _ = run_cli("bench", "gl-enum", "--ring", "F2", "--n", "3")
    assert code == 0 and "168" in out


def test_bad_bgl_comparison_parameters_exit_code():
    # ell = characteristic, ell not prime, ell missing
    for extra in (["--ell", "2"], ["--ell", "4"], []):
        code, _, err = run_cli("verify", "bgl-comparison", "--ring", "F2",
                               "--n", "2", *extra)
        assert code == 1, (extra, err)
        assert "Traceback" not in err
    assert "--ell" in err  # the last call names the missing parameter


def test_non_prime_ell_rejected_under_optimize():
    code = ("from rbscat.fincat import terminal_category\n"
            "from rbscat.resolution import category_homology_mod\n"
            "try:\n"
            "    category_homology_mod(terminal_category(), 4, 1)\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(5)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_homology_artifact_with_nonzero_dd(tmp_path):
    # d_2 = d_1 = [1] on dims [1, 1, 1]: d.d != 0, which once printed Betti -1
    art = tmp_path / "bad.json"
    art.write_text(json.dumps({"schema": "chaincomplex/1", "dims": [1, 1, 1],
                               "boundaries": {"1": [[0, 0, 1]],
                                              "2": [[0, 0, 1]]}}))
    code, out, err = run_cli("homology", "--artifact", str(art))
    assert code == 1 and out == ""
    assert "d.d != 0" in err and len(err.splitlines()) == 1


def test_homology_artifact_out_of_range_entry(tmp_path):
    art = tmp_path / "bad.json"
    art.write_text(json.dumps({"schema": "chaincomplex/1", "dims": [1, 1],
                               "boundaries": {"1": [[3, 0, 1]]}}))
    code, _, err = run_cli("homology", "--artifact", str(art))
    assert code == 1
    assert "outside" in err and "Traceback" not in err


def test_homology_artifact_repeated_entry(tmp_path):
    # the two entries would sum to zero; a repeat is rejected, not summed
    art = tmp_path / "bad.json"
    art.write_text(json.dumps({"schema": "chaincomplex/1", "dims": [2, 1],
                               "boundaries": {"1": [[0, 0, 1], [0, 0, -1]]}}))
    code, out, err = run_cli("homology", "--artifact", str(art))
    assert code == 1 and out == ""
    assert "repeated" in err and len(err.splitlines()) == 1


def test_homology_missing_artifact(tmp_path):
    code, out, err = run_cli("homology", "--artifact",
                             str(tmp_path / "missing.json"))
    assert code == 1 and out == ""
    assert "missing.json" in err and len(err.splitlines()) == 1


def test_build_rbs_negative_rank():
    code, _, err = run_cli("build", "rbs", "--ring", "F2", "--n", "-1")
    assert code == 1
    assert "rank n must be a non-negative integer, got -1" in err
    assert "Traceback" not in err


def test_homology_fincat_artifact_missing_key(tmp_path):
    art = tmp_path / "bad.json"
    art.write_text(json.dumps({"schema": "fincat/1"}))
    code, out, err = run_cli("homology", "--artifact", str(art))
    assert code == 1 and out == ""
    assert "'objects'" in err and len(err.splitlines()) == 1


def test_homology_fincat_artifact_malformed_entries(tmp_path):
    one = {"schema": "fincat/1", "objects": [1],
           "morphisms": [{"label": "i", "src": 1, "tgt": 1}],
           "identities": [[1, "i"]], "composition": [["i", "i", "i"]]}
    for key, bad in (("composition", [["i", "i"]]),
                     ("composition", [["i", "j", "i"]]),
                     ("identities", [[1, "j"]]),
                     ("morphisms", [{"label": "i", "src": 1}]),
                     ("objects", [{}])):
        art = tmp_path / "bad.json"
        art.write_text(json.dumps(dict(one, **{key: bad})))
        code, out, err = run_cli("homology", "--artifact", str(art))
        assert code == 1 and out == "", (key, bad)
        assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_homology_fincat_artifact_entry_given_twice(tmp_path):
    # BZ/2 with a.a listed as a and then as e: a loader keeping the last
    # entry accepted it and printed H_1 = Z/2; a repeated identity entry
    # surfaced as a misleading "left identity fails"
    a, e = ["*", 1], ["*", 0]
    bz2_doc = fincat_to_json(bz2())
    assert [a, a, e] in bz2_doc["composition"]
    for key, extra, what in (
            ("composition", [a, a, a], 'composite of [["*", 1], ["*", 1]]'),
            ("identities", ["*", a], 'identity of "*"')):
        art = tmp_path / "twice.json"
        art.write_text(json.dumps(dict(bz2_doc,
                                       **{key: [extra] + bz2_doc[key]})))
        code, out, err = run_cli("homology", "--artifact", str(art))
        assert code == 1 and out == "", key
        assert what + " given twice" in err and len(err.splitlines()) == 1


def test_homology_depth_below_one():
    for depth in ("-1", "0"):
        code, out, err = run_cli("homology", "rbs", "--ring", "F2", "--n",
                                 "2", "--depth", depth)
        assert code == 1 and out == ""
        assert "--depth" in err and len(err.splitlines()) == 1


def test_pi1_rank_below_one():
    # RBS(0) is a point, so H_1 = 0 while the units are not trivial; n = 0
    # printed FAIL and exited 3, a failed theorem for a statement that is
    # made only for n >= 1
    for n in ("0", "-1"):
        code, out, err = run_cli("verify", "pi1", "--ring", "F3", "--n", n)
        assert code == 1 and out == "", n
        assert "--n" in err and len(err.splitlines()) == 1, (n, err)


def test_ring_size_guard_exit_code(tmp_path):
    # the ring cache builds rings under the default guards, so the size
    # check must not depend on it
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"max_ring_size": 2}))
    code, _, err = run_cli("--config", str(cfg), "build", "rbs",
                           "--ring", "F4", "--n", "2")
    assert code == 2
    assert "max_ring_size" in err


def test_bad_q_parameters_exit_code():
    # each used to end in a KeyError traceback, a FAIL (exit 3), a vacuous
    # PASS or an artifact (exit 0)
    cases = [
        (("verify", "q-suite", "--q", "2", "--N", "2", "--cap", "-1"), "--cap"),
        (("verify", "q-suite", "--q", "2", "--N", "2", "--cap", "1"), "--cap"),
        (("verify", "q-suite", "--q", "2", "--N", "-1"), "--N"),
        (("verify", "q-suite", "--q", "2", "--N", "1", "--cap", "2",
          "--depth", "0"), "--depth"),
        (("build", "mE", "--q", "2", "--N", "1", "--cap", "-2"), "--cap"),
        # these wrote an empty or vacuous artifact with exit 0
        (("build", "mE", "--q", "2", "--N", "-1"), "--N"),
        (("build", "q", "--q", "2", "--N", "-1"), "--N"),
        (("build", "q", "--q", "2", "--N", "1", "--cap", "-1"), "--cap"),
    ]
    for args, flag in cases:
        code, out, err = run_cli(*args)
        assert code == 1 and out == "", args
        assert flag in err and len(err.splitlines()) == 1, (args, err)


# ---------------------------------------------------------------------------
# loader fuzzing: random and truncated artifacts, run in-process

def _valid_artifacts():
    chain = poset_category(Poset([0, 1], [[True, True], [False, True]]))
    # a circle: two vertices joined by two edges
    circle = ChainComplex([2, 2], {1: CSC.from_entries(
        2, 2, [0, 1, 0, 1], [0, 0, 1, 1], [-1, 1, -1, 1])})
    return [fincat_to_json(bz2()), fincat_to_json(chain),
            complex_to_json(circle)]


VALID_ARTIFACTS = _valid_artifacts()

# integers are small or far past every guard, so that no run grows large
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3) |
    st.integers(-2, 4) | st.sampled_from([2 ** 31, 10 ** 12, -10 ** 12]) |
    st.sampled_from(["fincat/1", "chaincomplex/1"]),
    lambda kids: st.lists(kids, max_size=4) |
    st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12)


@st.composite
def mutated(draw, value):
    """value with random entries replaced, deleted or added, at any depth."""
    if isinstance(value, dict) and value and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value)))
        out = dict(value)
        action = draw(st.sampled_from(["replace", "delete", "recurse"]))
        if action == "delete":
            del out[key]
        else:
            out[key] = draw(json_values if action == "replace"
                            else mutated(value[key]))
        return out
    if isinstance(value, list) and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        out = list(value)
        action = draw(st.sampled_from(["replace", "delete", "recurse",
                                       "append"]))
        if action == "delete":
            del out[i]
        elif action == "append":
            out.append(draw(json_values))
        else:
            out[i] = draw(json_values if action == "replace"
                          else mutated(value[i]))
        return out
    return draw(json_values) if draw(st.integers(0, 4)) == 0 else value


@st.composite
def artifact_texts(draw):
    """A valid, mutated or random document, possibly cut short."""
    doc = draw(st.one_of(st.sampled_from(VALID_ARTIFACTS).flatmap(mutated),
                         json_values))
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=300, deadline=None)
@given(artifact_texts())
def test_homology_artifact_fuzz_exits_cleanly(text):
    # every run ends with a documented exit code and prints no traceback
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["homology", "--artifact", path])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_homology_artifact_dims_past_the_guard(tmp_path):
    # the loader once allocated one column per simplex before any check
    art = tmp_path / "huge.json"
    art.write_text(json.dumps({"schema": "chaincomplex/1",
                               "dims": [1, 10 ** 12]}))
    code, out, err = run_cli("homology", "--artifact", str(art))
    assert code == 2 and out == ""
    assert "max_simplices_per_degree" in err and "Traceback" not in err


def test_homology_artifact_non_ascii_boundary_key(tmp_path):
    # "²".isdigit() holds, but int("²") raises
    art = tmp_path / "bad.json"
    art.write_text(json.dumps({"schema": "chaincomplex/1", "dims": [1, 1],
                               "boundaries": {"²": []}}))
    code, out, err = run_cli("homology", "--artifact", str(art))
    assert code == 1 and out == ""
    assert "no boundary d_²" in err and len(err.splitlines()) == 1


def test_homology_artifact_incomplete_with_one_degree(tmp_path):
    # it used to print an empty result "trusted through degree -1"
    for dims in ([0], [3]):
        art = tmp_path / "short.json"
        art.write_text(json.dumps({"schema": "chaincomplex/1", "dims": dims}))
        code, out, err = run_cli("homology", "--artifact", str(art))
        assert code == 1 and out == "", dims
        assert "two degrees" in err and len(err.splitlines()) == 1
    # a complete complex may have one degree
    art.write_text(json.dumps({"schema": "chaincomplex/1", "dims": [3],
                               "complete": True}))
    code, out, _ = run_cli("homology", "--artifact", str(art))
    assert code == 0 and "trusted through degree 0" in out


def non_associative_artifact():
    """Z/2 x a poset with w < x < y, 20 elements above x and 20 above y,
    as a fincat/1 document with one wrong composite."""
    elems = ["w", "x", "y"] + ["L%d" % i for i in range(20)] + \
        ["M%d" % i for i in range(20)]
    leq = [(e, e) for e in elems] + [("w", "x"), ("x", "y"), ("w", "y")]
    leq += [(a, "L%d" % i) for i in range(20) for a in ("w", "x")]
    leq += [(a, "M%d" % i) for i in range(20) for a in ("w", "x", "y")]
    doc = fincat_to_json(product_tuple([bz2(), poset_category(poset(elems, leq))]))
    g, f = [["*", 1], ["x", "y"]], [["*", 1], ["w", "x"]]
    entry = next(e for e in doc["composition"] if e[:2] == [g, f])
    entry[2] = [["*", 1], ["w", "y"]]  # should be [["*", 0], ["w", "y"]]
    return doc


def test_non_associative_artifact_is_never_accepted(tmp_path):
    # Light's test compares 2,056 triples of this table; with the guard
    # one below, validation stops instead of passing unchecked triples
    art = tmp_path / "bad.json"
    art.write_text(json.dumps(non_associative_artifact()))
    code, out, err = run_cli("homology", "--artifact", str(art), "--depth", "1")
    assert code == 1 and out == ""
    assert "associativity fails at" in err and len(err.splitlines()) == 1
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"max_assoc_triples": 2055}))
    code, out, err = run_cli("--config", str(cfg), "homology", "--artifact",
                             str(art), "--depth", "1")
    assert code == 2 and out == ""
    assert "requires 2056 > max_assoc_triples=2055" in err


def test_removed_guard_key_is_rejected(tmp_path):
    # the ring axioms are checked exactly at every size, so the knob that
    # chose between exact and sampled checks is gone
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"max_ring_axiom_exhaustive": 64}))
    code, out, err = run_cli("--config", str(cfg), "verify", "steinberg",
                             "--q", "2", "--n", "2")
    assert code == 1 and out == ""
    assert "unknown guard keys" in err and "max_ring_axiom_exhaustive" in err


def test_total_dim_guard_bounds_the_graded_lists(tmp_path):
    # both ran unbounded: max_total_dim was read only when no cap was
    # given, and every caller gives one
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"max_total_dim": 1}))
    code, out, err = run_cli("--config", str(cfg), "verify", "q-suite",
                             "--q", "2", "--N", "2", "--cap", "3")
    assert code == 2 and out == ""
    assert "requires 3 > max_total_dim=1" in err
    proc = subprocess.run([sys.executable, "-m", "rbscat.cli", "verify",
                           "q-suite", "--q", "2", "--N", "2", "--cap", "6"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "requires 6 > max_total_dim=3" in proc.stderr


def test_total_dim_guard_trips_before_anything_is_built(monkeypatch):
    # --cap is checked against max_total_dim first: the base category of
    # Vect(F_2)_{<=3} is never constructed (it once took 12 s to exit 2)
    import rbscat.qkt as qkt

    def refuse(*args, **kwargs):
        raise AssertionError("the base category was built")

    monkeypatch.setattr(qkt, "FiltCategory", refuse)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "q-suite", "--q", "2", "--N", "3",
                         "--cap", "4"])
    assert code == 2 and out.getvalue() == ""
    assert "requires 4 > max_total_dim=3" in err.getvalue()


def _disk_verdict(guards):
    disk = poset_category(disk_face_poset())
    return is_weakly_contractible(disk, 3, guards).verdict


# one invocation per guard that trips it: field -> (config, argv, exit
# code).  The Tietze budget stops no run: spent, it turns the disk's
# contractibility certificate inconclusive.
GUARD_TRIPS = {
    "max_ring_size": ({"max_ring_size": 2},
                      ("build", "rbs", "--ring", "F4", "--n", "2"), 2),
    "max_gl_candidates": ({"max_gl_candidates": 10},
                          ("build", "rbs", "--ring", "F3", "--n", "2"), 2),
    "max_vector_enum": ({"max_vector_enum": 3},
                        ("build", "rbs", "--ring", "F2", "--n", "2"), 2),
    "max_simplices_per_degree": (
        {"max_simplices_per_degree": 3},
        ("homology", "rbs", "--ring", "F2", "--n", "2", "--depth", "2"), 2),
    "max_assoc_triples": ({"max_assoc_triples": 3},
                          ("build", "rbs", "--ring", "F2", "--n", "2"), 2),
    # RBS(F2, 2) has 144 composable pairs
    "max_composable_pairs": ({"max_composable_pairs": 143},
                             ("build", "rbs", "--ring", "F2", "--n", "2"), 2),
    "max_functor_pairs": ({"max_functor_pairs": 3},
                          ("verify", "proper-p", "--ring", "F2", "--n", "2"),
                          2),
    "tietze_budget": ({"tietze_budget": 0}, _disk_verdict, "inconclusive"),
    "max_group_order": ({"max_group_order": 3},
                        ("build", "rbs", "--ring", "F2", "--n", "2"), 2),
    "max_total_dim": ({"max_total_dim": 2},
                      ("verify", "q-suite", "--q", "2", "--N", "2",
                       "--cap", "3"), 2),
    # the base category of Vect(F2)_{<=2} has 31 morphisms
    "max_filt_morphisms": ({"max_filt_morphisms": 30},
                           ("build", "q", "--q", "2", "--N", "2"), 2),
}


def test_guard_table_covers_every_guard():
    # a guard that nothing enforces has no row here and fails the suite
    assert set(GUARD_TRIPS) == {f.name for f in fields(GuardConfig)}


@pytest.mark.parametrize("field", sorted(GUARD_TRIPS))
def test_guard_trips(field, tmp_path):
    config, invocation, expected = GUARD_TRIPS[field]
    if callable(invocation):
        assert invocation(GuardConfig()) != expected
        assert invocation(GuardConfig(**config)) == expected
        return
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(cfg), *invocation])
    assert code == expected and out.getvalue() == "", (code, err.getvalue())
    assert "guard exceeded" in err.getvalue() and field in err.getvalue()


def test_config_reaches_bgl_in_bgl_comparison(tmp_path):
    # BGL_2(F2) has 36 composable pairs, and was built under the default
    # guards whatever --config said.  They are the 36 products of the GL
    # table that BGL is built from, which the guard now stops first
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"max_composable_pairs": 35}))
    code, out, err = run_cli("--config", str(cfg), "verify", "bgl-comparison",
                             "--ring", "F2", "--n", "2", "--ell", "3")
    assert code == 2 and out == ""
    assert "GL product table requires 36 > max_composable_pairs=35" in err


def test_config_reaches_the_bgl_inclusion_in_build_bgl(tmp_path):
    # the inclusion of BGL_2(F2) has 36 composable pairs, and was validated
    # under the default guards whatever --config said
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"max_functor_pairs": 35}))
    code, out, err = run_cli("--config", str(cfg), "build", "bgl",
                             "--ring", "F2", "--n", "2")
    assert code == 2 and out == ""
    assert "requires 36 > max_functor_pairs=35" in err


def test_inconclusive_certificate_is_not_a_failure(tmp_path):
    # with no Tietze budget the RBS(F2, 2) fiber certificate cannot decide;
    # this printed "fail" and exited 3, as if the theorem were false
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"tietze_budget": 0}))
    code, out, _ = run_cli("--config", str(cfg), "verify", "twisted-cofinal",
                           "--json")
    doc = json.loads(out)
    assert code == 2 and doc["verdict"] == "inconclusive"
    assert doc["measured"] == {"terminal": True, "chain2": True, "BZ2": True,
                               "BZ3": True, "RBS-F2-2": False}


@pytest.mark.parametrize("verdicts, expected", [
    (["pass", "pass"], 0), (["pass", "inconclusive"], 2),
    (["inconclusive", "fail", "pass"], 3)])
def test_verify_all_exit_code_is_the_worst_verdict(verdicts, expected,
                                                  monkeypatch):
    profile = [("check%d" % i, {}) for i in range(len(verdicts))]
    reports = {name: checks.CheckReport(name, {}, v)
               for (name, _), v in zip(profile, verdicts)}
    monkeypatch.setattr(cli, "DESK_PROFILE", profile)
    monkeypatch.setattr(cli, "run_check",
                        lambda name, guards, **params: reports[name])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--all"]) == expected


def test_poset_regularity_f3_3_within_an_address_space_limit():
    # the check reads only the GL action on the 79 flags (an 11,232 x 79
    # table); building the 11,232^2 product table first took > 3 GB.  One
    # BLAS thread keeps the address space of the numpy import small.
    limit = 1536 * 2 ** 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "rbscat.cli", "verify", "poset-regularity",
         "--ring", "F3", "--n", "3"], capture_output=True, text=True,
        preexec_fn=cap, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def test_fp_acyclic_f3_3_exits_on_the_gl_product_guard_within_a_limit():
    # |GL_3(F3)|^2 = 126,157,824 products pass max_composable_pairs; the
    # guard fired only after the 504 MB product table was filled, at about
    # 680 MB of peak RSS
    limit = 512 * 2 ** 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "rbscat.cli", "verify", "fp-acyclic",
         "--ring", "F3", "--n", "3"], capture_output=True, text=True,
        preexec_fn=cap, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert "Traceback" not in proc.stderr
    assert "GL product table requires 126157824 > max_composable_pairs" \
        in proc.stderr


def test_human_verify_stdout_is_byte_identical_across_runs():
    # the seconds of a check vary from run to run, so they go to stderr
    args = ("verify", "steinberg", "--q", "2", "--n", "3")
    (code1, out1, err1), (code2, out2, err2) = run_cli(*args), run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2 and out1.split()[-1] == "PASS"
    assert not re.search(r"\d\.\d+s", out1)
    assert re.search(r"\d\.\d\ds$", err1.strip())


def test_fast_checks_pass_under_optimize():
    # the checks raise explicit exceptions, so python -O proves the same
    for args in (("steinberg", "--q", "2", "--n", "3"),
                 ("poset-regularity", "--ring", "F2", "--n", "2"),
                 ("q-suite", "--q", "2", "--N", "1", "--cap", "2")):
        proc = subprocess.run([sys.executable, "-O", "-m", "rbscat.cli",
                               "verify", *args], capture_output=True, text=True)
        assert proc.returncode == 0, (args, proc.stderr)
        assert proc.stdout.split()[0] == args[0] and "PASS" in proc.stdout


def test_verify_profile_flag_is_a_usage_error():
    # --profile was accepted and never read; the desk profile is --all
    code, out, err = run_cli("verify", "--all", "--profile", "desk")
    assert code == 1 and out == ""
    assert "--profile" in err


def test_depth_and_degree_below_minimum():
    # each used to print PASS (exit 0), FAIL (exit 3) or pass vacuously
    cases = [
        (("verify", "proper-p", "--ring", "F2", "--n", "2", "--depth", "0"),
         "--depth"),
        (("verify", "proper-p", "--ring", "F2", "--n", "2", "--depth", "-1"),
         "--depth"),
        (("verify", "twisted-cofinal", "--depth", "0"), "--depth"),
        (("verify", "twisted-cofinal", "--depth", "-2"), "--depth"),
        (("verify", "pi1", "--ring", "F2", "--n", "2", "--depth", "0"),
         "--depth"),
        (("verify", "fp-acyclic", "--ring", "F2", "--n", "2",
          "--max-degree", "-1"), "--max-degree"),
        (("verify", "bgl-comparison", "--ring", "F2", "--n", "2", "--ell", "3",
          "--max-degree", "-1"), "--max-degree"),
    ]
    for args, flag in cases:
        code, out, err = run_cli(*args)
        assert code == 1 and out == "", args
        assert flag in err and len(err.splitlines()) == 1, (args, err)


def test_bench_negative_flags():
    # gl-enum --n -1 printed "2 matrices", snf --size -1 failed inside max()
    for args, flag in ((("bench", "gl-enum", "--n", "-1"), "--n"),
                       (("bench", "snf", "--size", "-1"), "--size"),
                       (("bench", "nerve", "--depth", "-1"), "--depth")):
        code, out, err = run_cli(*args)
        assert code == 1 and out == "", args
        assert flag in err and len(err.splitlines()) == 1, (args, err)


# ---------------------------------------------------------------------------
# integer-flag fuzzing, run in-process

# each command with the integer flags it reads
FUZZ_COMMANDS = (
    (("build", "rbs"), ("--n",)),
    (("build", "poset"), ("--n",)),
    (("build", "bgl"), ("--n",)),
    (("build", "tits"), ("--q", "--n")),
    (("build", "q"), ("--q", "--N", "--cap")),
    (("build", "mE"), ("--q", "--N", "--cap")),
    (("homology", "rbs"), ("--n", "--depth")),
    (("homology", "bgl"), ("--n", "--depth")),
    (("verify", "steinberg"), ("--q", "--n")),
    (("verify", "pi1"), ("--n", "--depth")),
    (("verify", "fp-acyclic"), ("--n", "--max-degree")),
    (("verify", "bgl-comparison"), ("--n", "--ell", "--max-degree")),
    (("verify", "proper-p"), ("--n", "--depth")),
    (("verify", "inductive"), ("--n",)),
    (("verify", "twisted-cofinal"), ("--depth",)),
    (("verify", "poset-regularity"), ("--n",)),
    (("verify", "q-suite"), ("--q", "--N", "--cap", "--depth")),
    (("bench", "snf"), ("--size",)),
    (("bench", "nerve"), ("--depth",)),
    (("bench", "gl-enum"), ("--n",)),
)
# the least value each flag accepts (bench nerve takes depth 0)
FLAG_MINIMUM = {"--n": 0, "--q": 2, "--N": 0, "--cap": 0, "--ell": 2,
                "--depth": 1, "--max-degree": 0, "--size": 0}


@st.composite
def integer_invocations(draw):
    command, flags = draw(st.sampled_from(FUZZ_COMMANDS))
    values = [draw(st.integers(-2, 2)) for _ in flags]
    argv = list(command) + ["--ring", "F2"]
    minimum = dict(FLAG_MINIMUM)
    if command[0] == "bench":
        minimum["--depth"] = 0
    below = any(v < minimum[f] for f, v in zip(flags, values))
    for f, v in zip(flags, values):
        argv += [f, str(v)]
    return argv, below


@settings(max_examples=80, deadline=None)
@given(integer_invocations())
def test_integer_flag_fuzz_exits_cleanly(invocation):
    # every run ends with a documented exit code and prints no traceback;
    # a flag below its minimum is a usage error
    argv, below = invocation
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if below:
        assert code == 1 and out.getvalue() == "", (argv, code)
