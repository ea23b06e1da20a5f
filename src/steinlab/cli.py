"""Command line front end.

Three subcommands:

  steinlab run <spec.json>      run checks from an experiment spec file
  steinlab corpus               run the built-in experiment battery
  steinlab dim <algebra.json>   derivation-space dimension of one algebra

The exit code is 0 exactly when every executed check passed, and 2, with
a one-line "steinlab:" message, on input it cannot read: a file missing or
not valid JSON, or a spec or algebra that does not parse. The pass/fail
tolerance of run and corpus is --tolerance, else a spec's "tolerance", else
1e-8; dim has no pass/fail.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import reports
from .algebra import validate
from .errors import SpecInvalid, SteinlabError
from .reports import ExperimentSpec, check_seed, check_tolerance, parse_algebra
from .vndim import as_fraction, inner_derivation_module, vn_dimension

_FORMATS = {"json": reports.to_json, "csv": reports.to_csv, "md": reports.to_markdown}


def _tolerance(args) -> float:
    """The --tolerance flag, else 1e-8; a value that is not a finite
    number >= 0 raises SpecInvalid."""
    if args.tolerance is None:
        return 1e-8
    return check_tolerance(args.tolerance, "--tolerance")


def _add_checks(p: argparse.ArgumentParser) -> None:
    """Options of the subcommands that run checks (run and corpus)."""
    p.add_argument("--tolerance", type=float, default=None,
                   help="pass/fail tolerance (default: the spec's tolerance, else 1e-8)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the scaling_unitary probe (default: the spec's seed, else 0)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=sorted(_FORMATS), default="md",
                   help="report format (default md)")
    p.add_argument("--out", default=None, help="write the report to this file")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _finish(reps: list, fmt: str, out: str | None) -> int:
    _emit(_FORMATS[fmt](reps), out)
    return 0 if all(rep.passed for rep in reps) else 1


def _load(path: str):
    """The JSON document in the file; one that does not parse raises
    SpecInvalid."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise SpecInvalid(f"{path}: not valid JSON: {exc}") from None


def _cmd_run(args) -> int:
    payload = _load(args.spec)
    if isinstance(payload, dict) and "experiments" in payload:
        objs = payload["experiments"]
    elif isinstance(payload, list):
        objs = payload
    else:
        objs = [payload]
    default_tol = _tolerance(args)
    specs = []
    for obj in objs:
        if not isinstance(obj, dict):
            raise SteinlabError("each experiment must be a JSON object")
        obj = dict(obj)
        if args.tolerance is not None or "tolerance" not in obj:
            obj["tolerance"] = default_tol
        if args.seed is not None:
            obj["seed"] = args.seed
        specs.append(ExperimentSpec.from_json(obj))
    reps = [reports.run(spec) for spec in specs]
    return _finish(reps, args.format, args.out)


def _cmd_corpus(args) -> int:
    tol = _tolerance(args)
    seed = 0 if args.seed is None else check_seed(args.seed, "--seed")
    reps = reports.run_corpus(seed=seed, tolerance=tol)
    return _finish(reps, args.format, args.out)


def _cmd_dim(args) -> int:
    payload = _load(args.algebra)
    if isinstance(payload, dict) and "algebra" in payload:
        payload = payload["algebra"]
    alg, blocks = parse_algebra(payload)
    rep = validate(alg)
    if not rep.passed:
        raise SpecInvalid(f"algebra: {rep.faults()}")
    # every derivation of a finite-dimensional C*-algebra into L^2(N) is
    # inner (H^1 = 0), so phi_S of the commutator derivations, S the
    # generating basis elements, is phi_S(Der A)
    gens = np.eye(alg.dim, dtype=complex)[:, alg.generating_indices]
    result = vn_dimension(inner_derivation_module(alg, gens))
    max_den = alg.dim * alg.dim if blocks is None else math.prod(n * n for n, _ in blocks)
    frac = as_fraction(result.value, max(max_den, 2))
    if args.format == "json":
        text = json.dumps(
            {
                "label": alg.label,
                "dimension": result.value,
                "fraction": None if frac is None else str(frac),
                "rank": result.rank,
                "closure_residual": result.closure_residual,
                "route": result.route,
            },
            indent=2,
        )
    else:
        shown = f" (= {frac})" if frac is not None else ""
        text = f"dim Der({alg.label or 'A'}) = {result.value:.12g}{shown}"
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinlab",
        description="derivation spaces, module dimensions, and crossed-product "
                    "dimension formulas for finite-dimensional tracial *-algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the checks from an experiment spec file")
    p_run.add_argument("spec", help="path to the experiment spec (JSON)")
    _add_checks(p_run)
    _add_common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_corpus = sub.add_parser("corpus", help="run the built-in experiment battery")
    _add_checks(p_corpus)
    _add_common(p_corpus)
    p_corpus.set_defaults(fn=_cmd_corpus)

    p_dim = sub.add_parser("dim", help="derivation-space dimension of one algebra")
    p_dim.add_argument("algebra", help="path to the algebra description (JSON)")
    _add_common(p_dim)
    p_dim.set_defaults(fn=_cmd_dim)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SteinlabError as exc:
        print(f"steinlab: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"steinlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
