"""Command line front end.

Three subcommands:

  steinlab run <spec.json>      run checks from an experiment spec file
  steinlab corpus               run the built-in experiment battery
  steinlab dim <algebra.json>   derivation-space dimension of one algebra

The exit code is 0 exactly when every executed check passed, and 2, with
a one-line "steinlab:" message, on input it cannot read: a file missing or
not valid JSON, or a spec or algebra that does not parse. The pass/fail
tolerance of run and corpus is 1e-8, overridable by the STEINLAB_TOL
environment variable and then by --tolerance; dim has no pass/fail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import reports
from .derivations import derivation_space
from .algebra import validate
from .errors import SpecInvalid, SteinlabError
from .reports import ExperimentSpec, check_tolerance, parse_algebra
from .vndim import as_fraction, phi_x, vn_dimension

_FORMATS = {"json": reports.to_json, "csv": reports.to_csv, "md": reports.to_markdown}


def _tolerance(args) -> float:
    """The --tolerance flag, else STEINLAB_TOL, else 1e-8; a value that is
    not a finite number >= 0 raises SpecInvalid."""
    if args.tolerance is not None:
        return check_tolerance(args.tolerance, "--tolerance")
    env = os.environ.get("STEINLAB_TOL")
    return 1e-8 if env is None else check_tolerance(env, "STEINLAB_TOL")


def _add_checks(p: argparse.ArgumentParser) -> None:
    """Options of the subcommands that run checks (run and corpus)."""
    p.add_argument("--tolerance", type=float, default=None,
                   help="pass/fail tolerance (default 1e-8, or STEINLAB_TOL)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the randomized probes")


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
    seed = args.seed if args.seed is not None else 0
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
    result = vn_dimension(phi_x(derivation_space(alg)))
    max_den = alg.dim * alg.dim if blocks is None else math.prod(n * n for n, _ in blocks)
    frac = as_fraction(result.value, max(max_den, 2))
    if args.format == "json":
        text = json.dumps(
            {
                "label": alg.label,
                "dimension": result.value,
                "fraction": None if frac is None else str(frac),
                "rank": result.rank,
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
