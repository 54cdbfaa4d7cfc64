"""Command-line front end: build models, run computations, emit JSON/DOT.

Each query runs in its own process, so start-up is part of its cost.  Only
the `oracle` and `verify` verbs import `verify`, and with it the pattern
sampler; they import it inside their branch of `_dispatch`, so every other
verb, and a usage error, starts without compiling either module.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .catalog import CatalogError, from_selector
from .semirings import BUILTIN_SEMIRINGS, MissingAuxiliaryValue, PointMatrix, is_point
from .spectrum import (
    GeneratorCapExceeded,
    export_dot,
    poset,
    spectrum_to_json,
)
from .weyl import LawDoesNotDescend, RankSpaceUndecidable, induced_weyl_law

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_USAGE = 2

# a cell with no satisfying sample runs every sample it is given, so the
# count is bounded
MAX_SAMPLES = 100_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blueweyl",
        description="exact spectra, rank spaces, Weyl monoids and semiring "
                    "points of F1 group models")
    parser.add_argument("--seed", type=int, default=20259,
                        help="sampling seed of oracle, verify oracle and the semiring "
                             "closure checks of verify properties (default %(default)s)")
    parser.add_argument("--samples", type=int, default=2000,
                        help="samples per field and locus for oracle and verify oracle; "
                             "verify properties draws min(SAMPLES, 200) point pairs per "
                             "closure check; from 1 to %d (default %%(default)s)"
                             % MAX_SAMPLES)
    parser.add_argument("--json-pretty", action="store_true",
                        help="indent JSON output")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("spec", help="prime spectrum of a model")
    p.add_argument("model")
    p = sub.add_parser("rank-space", help="rank space of a model")
    p.add_argument("model")
    p = sub.add_parser("weyl", help="Weyl monoid of a model")
    p.add_argument("model")
    p = sub.add_parser("tits-points", help="F1^m-rational points of the rank space")
    p.add_argument("model")
    p.add_argument("--m", type=int, default=1, choices=(1, 2))
    p = sub.add_parser("points", help="check a semiring-valued matrix point")
    p.add_argument("--model", required=True)
    p.add_argument("--semiring", required=True, choices=sorted(BUILTIN_SEMIRINGS))
    p.add_argument("--check", required=True,
                   help="row-major JSON list of matrix entries")
    p.add_argument("--aux", default=None,
                   help="JSON object with values of auxiliary generators (e.g. d)")
    p = sub.add_parser("oracle", help="compare sampled zero patterns with a spectrum")
    p.add_argument("model", choices=("psl2-conj", "psl2-adj"))
    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("paper-counts", "properties", "oracle"))
    p = sub.add_parser("dot", help="DOT rendering of the spectrum poset")
    p.add_argument("model")
    return parser


def _emit(payload: dict, args, out) -> None:
    indent = 2 if args.json_pretty else None
    out.write(json.dumps(payload, indent=indent, sort_keys=True) + "\n")


def _json_arg(text: str, flag: str):
    try:
        return json.loads(text)
    except RecursionError:  # nested past the decoder's recursion limit
        raise ValueError(f"{flag} is nested too deeply to parse") from None


def run(argv: Optional[list[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not 1 <= args.samples <= MAX_SAMPLES:
            parser.error(f"argument --samples: must be from 1 to {MAX_SAMPLES}, "
                         f"got {args.samples}")
    except SystemExit as stop:
        return EXIT_USAGE if stop.code else EXIT_OK
    try:
        return _dispatch(args, out)
    except (CatalogError, GeneratorCapExceeded, RankSpaceUndecidable,
            LawDoesNotDescend, MissingAuxiliaryValue, ValueError) as err:
        _emit({"error": type(err).__name__, "message": str(err)}, args, out)
        return EXIT_COMPUTATION


def _dispatch(args, out) -> int:
    if args.verb == "spec":
        model = from_selector(args.model)
        P = poset(model.spectrum())
        if len(P.points) <= 2000:
            payload = spectrum_to_json(P)
        else:  # the Hasse scan is quadratic; emit the raw point list instead
            payload = {"points": [list(p.gens) for p in P.points]}
        payload["model"] = model.name
        payload["count"] = len(P.points)
        payload["labels"] = [p.label(model.presentation) for p in P.points]
        _emit(payload, args, out)
        return EXIT_OK

    if args.verb == "rank-space":
        model = from_selector(args.model)
        pts = model.rank_points()
        payload = {
            "model": model.name,
            "rank": pts[0].rank if pts else 0,
            "points": [p.to_json() for p in pts],
        }
        try:
            law = induced_weyl_law(model.presentation, model.comult,
                                   model.counit_zero, points=pts)
            payload["weyl_table"] = [list(r) for r in law.table]
        except LawDoesNotDescend:
            payload["weyl_table"] = None
        _emit(payload, args, out)
        return EXIT_OK

    if args.verb == "weyl":
        model = from_selector(args.model)
        W = model.weyl_monoid()
        payload = W.to_json()
        payload["model"] = model.name
        payload["group"] = W.is_group()
        payload["abelian"] = W.is_abelian()
        _emit(payload, args, out)
        return EXIT_OK

    if args.verb == "tits-points":
        model = from_selector(args.model)
        result = model.tits_points(args.m)
        payload = {
            "model": model.name,
            "m": args.m,
            "count": result.count,
            "per_point": list(result.per_point),
        }
        if result.monoid is not None:
            payload["monoid_order"] = len(result.monoid)
        _emit(payload, args, out)
        return EXIT_OK

    if args.verb == "points":
        model = from_selector(args.model)
        S = BUILTIN_SEMIRINGS[args.semiring]
        entries = _json_arg(args.check, "--check")
        if not isinstance(entries, list):
            raise ValueError("--check must be a JSON list of matrix entries")
        if args.semiring == "tropical":
            entries = [float("inf") if e in ("inf", None) else e for e in entries]
        M = PointMatrix(model.dimension, tuple(entries))
        aux = _json_arg(args.aux, "--aux") if args.aux else None
        if aux is not None and not isinstance(aux, dict):
            raise ValueError("--aux must be a JSON object")
        ok = is_point(model, M, S, aux)
        _emit({"model": model.name, "semiring": S.name, "is_point": ok},
              args, out)
        return EXIT_OK

    if args.verb == "oracle":
        from .verify import oracle_comparison

        report = oracle_comparison(args.model, seed=args.seed,
                                   samples=args.samples)
        _emit(report, args, out)
        return EXIT_OK if report["ok"] else EXIT_COMPUTATION

    if args.verb == "verify":
        from .verify import run_suite

        checks = run_suite(args.suite, seed=args.seed, samples=args.samples)
        failed = [c for c in checks if not c["pass"]]
        for c in checks:
            status = "PASS" if c["pass"] else "FAIL"
            out.write(f"{status} {c['name']}: expected={c['expected']} "
                      f"actual={c['actual']}\n")
        _emit({"suite": args.suite, "checks": len(checks),
               "failed": len(failed)}, args, out)
        return EXIT_OK if not failed else EXIT_COMPUTATION

    if args.verb == "dot":
        model = from_selector(args.model)
        P = poset(model.spectrum())
        out.write(export_dot(P, model.presentation, name=model.name))
        return EXIT_OK

    return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
