"""Command-line front end.

    rbscat build   {rbs|poset|tits|bgl|q|mE} [params]   -> JSON artifact
    rbscat homology (--artifact FILE | rbs --ring R --n N) --depth D --coeff C
    rbscat verify  {check-name | --all} [params] [--json]
    rbscat bench   {snf|nerve|gl-enum} [params]

Exit codes: 0 success/pass, 1 usage error or invalid input (bad
parameters, an unreadable file, a malformed artifact), 2 resource guard
exceeded or an inconclusive verdict (a certificate that a guard kept from
deciding), 3 check failure.  Guards are configured by a single JSON file
passed via --config; there is no environment-variable configuration.
Output on stdout is byte-stable for identical invocations, except the
"seconds" field of `verify --json`; human `verify` output prints each
check's seconds on stderr.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

from . import jsonio
from .checks import CHECKS, DESK_PROFILE, lcg, run_check
from .guards import DEFAULT, GuardExceeded, load_config
from .homology import homology, nerve_chain_complex, smith_normal_form
from .rings import gl_tables, make_ring

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_CHECKFAIL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    top = _Parser(prog="rbscat", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--config", help="path to a JSON guard-config file")
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an object and print its JSON")
    b.add_argument("object", choices=["rbs", "poset", "tits", "bgl", "q", "mE"])
    b.add_argument("--ring", default="F2")
    b.add_argument("--n", type=int, default=2)
    b.add_argument("--q", type=int, default=2)
    b.add_argument("--N", type=int, default=1)
    b.add_argument("--cap", type=int, default=2)
    b.add_argument("--out", help="write to a file instead of stdout")

    h = sub.add_parser("homology", help="homology of a category or artifact")
    h.add_argument("object", nargs="?", choices=["rbs", "bgl"],
                   help="build inline instead of reading an artifact")
    h.add_argument("--artifact",
                   help="path to a fincat or chain complex JSON artifact")
    h.add_argument("--ring", default="F2")
    h.add_argument("--n", type=int, default=2)
    h.add_argument("--depth", type=int, default=2)
    h.add_argument("--coeff", default="Z", help="Z or F<ell>")
    h.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="run a named check")
    v.add_argument("check", nargs="?", help="check name (see --list)")
    v.add_argument("--list", action="store_true", help="list known checks")
    v.add_argument("--all", action="store_true",
                   help="run the full desk profile")
    v.add_argument("--json", action="store_true")
    v.add_argument("--ring", dest="spec")
    v.add_argument("--n", type=int)
    v.add_argument("--q", type=int)
    v.add_argument("--N", dest="bigN", type=int)
    v.add_argument("--cap", type=int)
    v.add_argument("--ell", type=int)
    v.add_argument("--depth", type=int)
    v.add_argument("--max-degree", dest="max_degree", type=int)

    be = sub.add_parser("bench", help="micro-benchmarks of the kernels")
    be.add_argument("kernel", choices=["snf", "nerve", "gl-enum"])
    be.add_argument("--size", type=int, default=60)
    be.add_argument("--ring", default="F2")
    be.add_argument("--n", type=int, default=3)
    be.add_argument("--depth", type=int, default=6)
    be.add_argument("--seed", type=int, default=20240601)
    return top


def _emit(text, out=None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build(args, guards):
    from .rbs import build_rbs, flag_poset, bgl_category, tits_building
    if args.object == "rbs":
        rbs = build_rbs(args.ring, args.n, guards)
        doc = jsonio.fincat_to_json(rbs.cat)
        doc["ring"] = jsonio.ring_to_json(rbs.ring)
        doc["flags"] = [jsonio.flag_to_json(f) for f in rbs.flags]
        doc["coset_representatives"] = [
            rbs.gl.entries[lbl[2]].tolist() for lbl in rbs.cat.mor_labels]
    elif args.object == "bgl":
        rbs = build_rbs(args.ring, args.n, guards)
        sub, _ = bgl_category(rbs)
        doc = jsonio.fincat_to_json(sub)
        doc["ring"] = jsonio.ring_to_json(rbs.ring)
    elif args.object == "poset":
        rbs = build_rbs(args.ring, args.n, guards)
        P = flag_poset(rbs)
        doc = {
            "schema": "poset/1",
            "ring": jsonio.ring_to_json(rbs.ring),
            "elements": [jsonio.flag_to_json(f) for f in rbs.flags],
            "leq": [[i, j] for i in P.elements for j in P.elements
                    if P.leq(i, j)],
        }
    elif args.object == "tits":
        tc = tits_building(args.q, args.n, guards)
        doc = jsonio.complex_to_json(tc.complex)
        doc["q"] = tc.q
        doc["n"] = tc.n
        doc["steinberg_rank"] = tc.steinberg_rank
        doc["euler_characteristic"] = tc.euler_characteristic
    elif args.object == "q":
        from .qkt import QKit
        kit = QKit(args.q, args.N, cap=args.cap, guards=guards)
        doc = jsonio.fincat_to_json(kit.span_cat)
        doc["base"] = {"q": args.q, "N": args.N}
    elif args.object == "mE":
        from .qkt import MonCalculus, monoidal_category
        ring = make_ring("F%d" % args.q, guards)
        calc = MonCalculus(ring, guards)
        cat, _ = monoidal_category(calc, args.cap, args.N, guards)
        doc = jsonio.fincat_to_json(cat)
        doc["base"] = {"q": args.q, "N": args.N, "cap": args.cap}
    else:  # pragma: no cover
        raise AssertionError
    _emit(jsonio.dumps(doc), args.out)
    return EXIT_OK


def _usage(line):
    """Report a missing or conflicting argument; returns the usage exit
    code."""
    sys.stderr.write("usage: %s\n" % line)
    return EXIT_USAGE


def _cmd_homology(args, guards):
    if bool(args.artifact) == bool(args.object):
        return _usage("rbscat homology (--artifact FILE | {rbs,bgl} --ring R "
                      "--n N): give exactly one of --artifact and an inline "
                      "rbs or bgl, got %s"
                      % ("both" if args.artifact else "neither"))
    if args.depth < 1:
        raise ValueError("--depth must be at least 1, got %d" % args.depth)
    if args.artifact:
        with open(args.artifact) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and doc.get("schema") == "chaincomplex/1":
            try:
                cx = jsonio.complex_from_json(doc, guards)
            except ValueError as exc:
                raise ValueError("artifact %s: %s" % (args.artifact, exc))
        else:
            C = jsonio.fincat_from_json(doc, guards)
            cx = nerve_chain_complex(C, args.depth, guards)
    else:
        from .rbs import build_rbs, bgl_category
        rbs = build_rbs(args.ring, args.n, guards)
        C = rbs.cat if args.object == "rbs" else bgl_category(rbs)[0]
        cx = nerve_chain_complex(C, args.depth, guards)
    h = homology(cx, args.coeff)
    if args.json:
        _emit(jsonio.dumps(jsonio.homology_to_json(h)))
    else:
        lines = ["degree  betti  torsion   (trusted through degree %d)"
                 % h.trusted_max]
        for k in sorted(h.betti):
            tors = ",".join("Z/%d" % t for t in h.torsion.get(k, [])) or "-"
            lines.append("%6d  %5d  %s" % (k, h.betti[k], tors))
        _emit("\n".join(lines) + "\n")
    return EXIT_OK


def _print_report(rep, as_json):
    if as_json:
        _emit(jsonio.dumps(rep.to_dict()))
    else:
        # the verdict line is deterministic; the seconds are not, so they
        # go to stderr
        instance = json.dumps(rep.instance, sort_keys=True)
        _emit("%-18s %-40s %s\n" % (rep.name, instance, rep.verdict.upper()))
        sys.stderr.write("%-18s %-40s %.2fs\n"
                         % (rep.name, instance, rep.seconds))


# exit code of each verdict; verify --all exits with the largest
_VERDICT_EXIT = {"pass": EXIT_OK, "inconclusive": EXIT_GUARD,
                 "fail": EXIT_CHECKFAIL}

# command-line flag of each check parameter whose name differs from it
_FLAGS = {"spec": "--ring", "max_degree": "--max-degree"}


def _cmd_verify(args, guards):
    if args.list:
        for name in sorted(CHECKS):
            _emit("%s\n" % name)
        return EXIT_OK
    if args.all:
        codes = [EXIT_OK]
        for name, params in DESK_PROFILE:
            rep = run_check(name, guards=guards, **params)
            _print_report(rep, args.json)
            codes.append(_VERDICT_EXIT[rep.verdict])
        return max(codes)
    if not args.check:
        return _usage("rbscat verify {check-name | --all | --list}: "
                      "no check named")
    if args.check not in CHECKS:
        sys.stderr.write("unknown check %r; use --list\n" % args.check)
        return EXIT_USAGE
    params = {}
    for key in ("spec", "n", "q", "ell", "depth", "max_degree", "cap"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if getattr(args, "bigN", None) is not None:
        params["N"] = args.bigN
    # keep only parameters the check accepts
    sig = inspect.signature(CHECKS[args.check]).parameters
    params = {k: v for k, v in params.items() if k in sig}
    for name, p in sig.items():
        if p.default is p.empty and name not in params:
            sys.stderr.write("check %s: missing required parameter %s\n"
                             % (args.check, _FLAGS.get(name, "--" + name)))
            return EXIT_USAGE
    rep = run_check(args.check, guards=guards, **params)
    _print_report(rep, args.json)
    return _VERDICT_EXIT[rep.verdict]


def _cmd_bench(args, guards):
    for flag in ("size", "n", "depth"):
        if getattr(args, flag) < 0:
            raise ValueError("--%s must be at least 0, got %d"
                             % (flag, getattr(args, flag)))
    rnd = lcg(args.seed)
    if args.kernel == "snf":
        n = args.size
        A = [[rnd(5) - 2 for _ in range(n)] for _ in range(n)]
        t0 = time.time()
        U, D, V = smith_normal_form(A)
        dt = time.time() - t0
        bits = max(abs(D[i][i]).bit_length()
                   for i in range(n)) if n else 0
        _emit("snf %dx%d: %.3fs, max invariant-factor bits %d\n"
              % (n, n, dt, bits))
    elif args.kernel == "nerve":
        from .fincat import Group, group_category
        import itertools
        perms = list(itertools.permutations(range(3)))
        S3 = Group(perms, [[perms.index(tuple(a[i] for i in b)) for b in perms]
                           for a in perms], (0, 1, 2))
        C = group_category(S3, guards)
        t0 = time.time()
        counts = nerve_chain_complex(C, args.depth, guards).dims
        dt = time.time() - t0
        _emit("nerve B(S3) depth %d: counts %s, %.3fs\n"
              % (args.depth, counts, dt))
    elif args.kernel == "gl-enum":
        ring = make_ring(args.ring, guards)
        t0 = time.time()
        entries, _ = gl_tables(ring, args.n, guards)
        dt = time.time() - t0
        _emit("gl-enum %s n=%d: %d matrices, %.3fs\n"
              % (args.ring, args.n, len(entries), dt))
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    guards = DEFAULT
    if args.config:
        try:
            guards = load_config(args.config)
        except (OSError, ValueError) as exc:
            sys.stderr.write("bad config: %s\n" % exc)
            return EXIT_USAGE
    try:
        if args.command == "build":
            return _cmd_build(args, guards)
        if args.command == "homology":
            return _cmd_homology(args, guards)
        if args.command == "verify":
            return _cmd_verify(args, guards)
        if args.command == "bench":
            return _cmd_bench(args, guards)
    except GuardExceeded as exc:
        sys.stderr.write("guard exceeded: %s\n" % exc)
        return EXIT_GUARD
    except ValueError as exc:  # includes RingError and bad artifacts
        sys.stderr.write("invalid parameters: %s\n" % exc)
        return EXIT_USAGE
    except OSError as exc:  # unreadable artifact, unwritable --out
        sys.stderr.write("file error: %s\n" % exc)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
