"""Command-line interface.

Subcommands: resolve, verify, polarize, poset, compare, paper-suite.  All but
paper-suite read an ideal from ``--ideal``, ``--named`` or ``--random-borel``;
each declares only the other flags it reads (``--kind``, ``--d``, ``--out``,
``resolve --export``), so an unread flag is an argparse error.
Exit codes: 0 success, 1 check failure, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from .ek import AdmissiblePair, ek_complex, kind_of, modified_complex
from .ideals import random_borel_ideal, read_ideal
from .monomials import square_str
from .polarization import bpol_ideal, bpol_lifts, column_bound, sigma_ideal, stairs_diagram
from .posets import build_gamma, poset_isomorphic, poset_to_dot
from .shelling import ball_check, is_cw_poset, verify_el_all
from .suite import named_ideal, run_suite
from .topology import frame_complex, homology_ranks, strand_exactness
from .verification import (
    VerificationError,
    check_d2,
    check_minimality,
    check_multidegrees,
)


def _add_input_flags(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--ideal", metavar="FILE", help="ideal file to read")
    src.add_argument("--named", metavar="NAME", help="one of the bundled example ideals")
    src.add_argument(
        "--random-borel",
        action="store_true",
        help="generate a random Borel fixed ideal instead of reading a file",
    )
    p.add_argument("--seed", type=int, default=0, help="random generator seed")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-deg", type=int, default=4)
    p.add_argument("--max-gens", type=int, default=12)


# the flags more than one subcommand reads
_SHARED_FLAGS = {
    "--kind": dict(choices=("ek", "modified", "both"), default="both"),
    "--d": dict(type=int, default=None, help="column bound override"),
    "--out": dict(metavar="DIR", default=None, help="output directory"),
}


def _add_shared_flags(p, *flags):
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def _load_ideal(args):
    if args.ideal:
        return read_ideal(args.ideal)
    if getattr(args, "named", None):
        return named_ideal(args.named)
    rng = random.Random(args.seed)
    return random_borel_ideal(
        rng, max_n=args.max_n, max_deg=args.max_deg, max_gens=args.max_gens
    )


def _kinds(args, ideal):
    """The requested kinds, each checked to admit the ideal.  A modified build
    may still refuse a generator, so no command prints before all are built."""
    kinds = ("ek", "modified") if args.kind == "both" else (args.kind,)
    for rules in map(kind_of, kinds):
        if not rules.admits(ideal):
            raise ValueError(f"ideal is not {rules.ideal_class}")
    return kinds


def _complex_for(kind, ideal, d=None):
    return ek_complex(ideal) if kind == "ek" else modified_complex(ideal, d)


def _write_or_print(args, name, text):
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text, encoding="utf-8")
        print(f"wrote {out / name}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_resolve(args) -> int:
    ideal = _load_ideal(args)
    column_bound(ideal, args.d)  # a --d below the largest generator degree exits 2, before any output
    complexes = {kind: _complex_for(kind, ideal, args.d) for kind in _kinds(args, ideal)}
    for kind, cplx in complexes.items():
        print(f"{kind}: ranks {list(cplx.ranks)}")
        if args.export == "json":
            _write_or_print(args, f"{kind}.complex.json", _json_dump(cplx.to_json_dict()))
        elif args.export == "dot":
            _write_or_print(args, f"{kind}.hasse.dot", poset_to_dot(build_gamma(cplx)))
    return 0


def cmd_verify(args) -> int:
    if args.expect_ball and args.check not in ("ball", "all"):
        raise ValueError(f"--expect-ball needs --check ball|all, got --check {args.check}")
    ideal = _load_ideal(args)
    bundle = {"ideal": [str(m) for m in ideal.gens], "n": ideal.n, "kinds": {}}
    failed = False
    gammas = {}
    for kind in _kinds(args, ideal):
        cplx = _complex_for(kind, ideal)
        checks = {}
        try:
            check_d2(cplx)
            check_minimality(cplx)
            check_multidegrees(cplx)
            checks["d2"] = checks["minimal"] = checks["multidegree"] = True
        except VerificationError as exc:
            checks["structure_error"] = str(exc)
            failed = True
        gens = [kind_of(kind).lift(m, cplx.squares) for m in ideal.gens]
        strands = strand_exactness(cplx, gens, primes=(2, 3))
        checks["strands"] = {
            "ok": strands.ok,
            "checked": strands.strands_checked,
            "first_failure": strands.first_failure(),
        }
        failed = failed or not strands.ok
        poset = gammas[kind] = build_gamma(cplx)
        checks["thin"] = poset.is_thin()
        failed = failed or not checks["thin"]
        witness = {}
        if args.check != "el":
            cw = is_cw_poset(poset, kind, ideal)
            checks["cw"], witness = cw
            failed = failed or not cw[0]
        if args.check in ("el", "all"):
            # the counts of the EL sweep behind the CW verdict, if it got that far
            intervals, failures = witness.get("el_intervals"), witness.get("el_failures")
            if intervals is None:
                reports = verify_el_all(kind, poset.dual(), ideal)
                intervals, failures = len(reports), sum(not r.passed for r in reports)
            checks["el"] = {"intervals": intervals, "failures": failures}
            failed = failed or failures > 0
        if args.check in ("ball", "all"):
            verdict = ball_check(poset, cplx, ideal, cw_result=cw)
            checks["ball"] = {
                "verdict": verdict.verdict,
                "cond2": verdict.cond2,
                "cond3": verdict.cond3,
                "homology_trivial": verdict.homology_trivial,
                "detail": verdict.detail,
            }
            if args.expect_ball and verdict.verdict != {
                "certified": "ball-certified",
                "refuted": "refuted",
            }[args.expect_ball]:
                failed = True
        checks["reduced_homology_trivial"] = (  # a ball check read it off the same frame
            verdict.homology_trivial if args.check in ("ball", "all")
            else all(b == 0 and not t for b, t in homology_ranks(frame_complex(cplx))))
        bundle["kinds"][kind] = checks
    if args.compare_posets:
        g_ek, g_mod = (
            gammas[k] if k in gammas else build_gamma(_complex_for(k, ideal))
            for k in ("ek", "modified")
        )
        bundle["posets_isomorphic"] = poset_isomorphic(g_ek, g_mod)
    print(_json_dump(bundle), end="")
    return 1 if failed else 0


def cmd_polarize(args) -> int:
    ideal = _load_ideal(args)
    pol, squares = bpol_ideal(ideal), bpol_lifts(ideal)[0]
    shifted = sigma_ideal(ideal, args.d)
    print("bpol generators:")
    for b in pol:
        print(f"  {square_str(b, squares)}")
    print(f"squarefree shift (in {shifted.n} variables):")
    for m in shifted.gens:
        print(f"  {m}")
    if args.diagram:
        blocks = []
        for m in ideal.gens:
            full = AdmissiblePair(tuple(range(1, m.max_var())), m, "modified")
            blocks.append(f"{m}:\n{stairs_diagram(full.indices, m)}")
        _write_or_print(args, "stairs.txt", "\n\n".join(blocks) + "\n")
    return 0


def cmd_poset(args) -> int:
    ideal = _load_ideal(args)
    complexes = {kind: _complex_for(kind, ideal) for kind in _kinds(args, ideal)}
    for kind, cplx in complexes.items():
        poset = build_gamma(cplx)
        print(f"{kind}: {len(poset)} elements, {len(poset.covers)} covers")
        _write_or_print(args, f"{kind}.hasse.dot", poset_to_dot(poset, name=kind))
    return 0


def cmd_compare(args) -> int:
    ideal = _load_ideal(args)
    iso = poset_isomorphic(build_gamma(ek_complex(ideal)), build_gamma(modified_complex(ideal)))
    print(f"cell posets isomorphic: {iso}")
    if args.expect:
        want = args.expect == "isomorphic"
        return 0 if iso == want else 1
    return 0


def cmd_paper_suite(args) -> int:
    def progress(done, total):
        if args.progress and (done % 25 == 0 or done == total):
            print(f"  ... {done}/{total}", file=sys.stderr)

    results = run_suite(
        random_count=args.random_count,
        cm_count=args.cm_count,
        seed=args.seed,
        progress=progress if args.progress else None,
    )
    width = max(len(r.description) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print(f"  {r.number}  {r.description:<{width}}  {status}  {r.detail}")
    print("all criteria passed" if all_ok else "SOME CRITERIA FAILED")
    return 0 if all_ok else 1


@functools.cache  # built once per process and shared by every call of main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekcells",
        description=(
            "Construct Eliahou-Kervaire type resolutions of stable/Borel fixed "
            "monomial ideals and certify the structure of their cell posets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resolve", help="build a resolution and export it")
    _add_input_flags(p)
    _add_shared_flags(p, "--kind", "--d", "--out")
    p.add_argument("--export", choices=("json", "dot"), default=None)
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("verify", help="run structural checks and certifications")
    _add_input_flags(p)
    _add_shared_flags(p, "--kind")
    p.add_argument("--check", choices=("el", "cw", "ball", "all"), default="all")
    p.add_argument("--compare-posets", action="store_true")
    p.add_argument("--expect-ball", choices=("certified", "refuted"), default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("polarize", help="print bpol(I) and the squarefree shift")
    _add_input_flags(p)
    _add_shared_flags(p, "--d", "--out")
    p.add_argument("--diagram", action="store_true", help="print stairs diagrams")
    p.set_defaults(fn=cmd_polarize)

    p = sub.add_parser("poset", help="build a cell poset and export its Hasse diagram")
    _add_input_flags(p)
    _add_shared_flags(p, "--kind", "--out")
    p.set_defaults(fn=cmd_poset)

    p = sub.add_parser("compare", help="compare the classical and modified cell posets")
    _add_input_flags(p)
    p.add_argument("--expect", choices=("isomorphic", "different"), default=None)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("paper-suite", help="run the bundled acceptance suite")
    p.add_argument("--random-count", type=int, default=200)
    p.add_argument("--cm-count", type=int, default=50)
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--progress", action="store_true")
    p.set_defaults(fn=cmd_paper_suite)

    return parser


# the least value each bound flag accepts
_FLAG_MINIMUMS = {"max_n": 2, "max_deg": 1, "max_gens": 1, "random_count": 0, "cm_count": 0}


def _check_bounds(args):
    for name, least in _FLAG_MINIMUMS.items():
        value = getattr(args, name, least)
        if value < least:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be at least {least}, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_bounds(args)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
