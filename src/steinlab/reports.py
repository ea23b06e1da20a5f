"""Declarative verification runner.

An ExperimentSpec names an algebra, a finite group, and an action. run()
executes the registered checks against that triple in report order and
returns a VerificationReport with one row per check: status, the two
compared values, the residual, and the statement being tested.

A check is declared once, by @check(name, statement) on a function of the
RunContext, which holds the pipeline stages the checks share (@stage:
computed once, a failure stored and re-raised). The check returns what it
compared, Compared(lhs, rhs, residual, note, holds), or raises Skip(note)
when its hypotheses do not apply; run() alone sets the status, pass exactly
when holds and residual <= tolerance.

Reports are deterministic for a fixed seed and carry no wall-clock
timings, so repeated runs are byte-identical. The seed seeds only the
scaling_unitary probe, and every stage draws from fixed seeds of its own,
so a row does not depend on which other checks the spec lists.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from ._linalg import frob, stack_frob
from .algebra import VALID_TOL, FDAlgebra, validate
from .constructions import (
    GroupAction,
    ad_action,
    characters,
    crossed_product,
    dual_action,
    group_algebra,
    group_central_family,
    matrix_units,
    multimatrix,
    multimatrix_decompose,
    multimatrix_generators,
    permutation_action,
    scaled_generating_set,
    scaling_residual,
    span_equal,
    subalgebra_generate,
    trivial_action,
    validate_action,
)
from .derivations import (
    DerivationSpace,
    apply_pair,
    average_scaling,
    central_projection_element,
    central_vectors,
    commutator_span,
    covariance_defect,
    decompose_vanishing,
    derivation_space,
    extend_vanishing,
    leibniz_residual,
    relative_derivations,
    restrict_component,
    restricted_norm,
    scaling_conjugation,
    whiten,
)
from .errors import SpecInvalid, SteinlabError
from .groups import (
    FiniteGroup,
    Character,
    cyclic,
    dihedral_4,
    direct_product,
    subgroup,
    symmetric_3,
)
from .vndim import (
    as_fraction,
    full_module,
    phi_x,
    restrict_scalars,
    vn_dimension,
)

# -- JSON parsing ---------------------------------------------------------------

def _complex_array(obj, where: str) -> np.ndarray:
    """Nested lists whose innermost entries are [re, im] pairs."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecInvalid(f"{where}: not a numeric array ({exc})") from None
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise SpecInvalid(f"{where}: complex entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def parse_group(obj) -> FiniteGroup:
    """A group name ("Z/4", "Z/2xZ/2", "V4", "S3", "D4") or an explicit
    {"order": k, "table": [[...]], "label": ...} dictionary."""
    if isinstance(obj, str):
        name = obj.strip()
        if name in ("S3", "S_3"):
            return symmetric_3()
        if name in ("D4", "D_4"):
            return dihedral_4()
        if name == "V4":
            name = "Z/2xZ/2"
        parts = name.split("x")
        built = None
        for part in parts:
            part = part.strip()
            if not part.startswith("Z/"):
                raise SpecInvalid(f"unknown group name {obj!r}")
            try:
                n = int(part[2:])
            except ValueError:
                raise SpecInvalid(f"unknown group name {obj!r}") from None
            factor = cyclic(n)
            built = factor if built is None else direct_product(built, factor)
        return built
    if isinstance(obj, dict):
        try:
            order, table = obj["order"], _integer_array(obj["table"])
        except KeyError as exc:
            raise SpecInvalid(f"group: {exc}") from None
        if table is None:
            raise SpecInvalid("group.table: expected lists of integers")
        return FiniteGroup(check_integer(order, "group.order"), table, str(obj.get("label", "")))
    raise SpecInvalid("group must be a name or an order/table dictionary")


def parse_algebra(obj) -> tuple[FDAlgebra, list[tuple[int, float]] | None]:
    """Returns the algebra plus its block data when given in multi-matrix
    shorthand (needed for checks that want explicit matrix units)."""
    if not isinstance(obj, dict):
        raise SpecInvalid("algebra must be a dictionary")
    if "multimatrix" in obj:
        body = obj["multimatrix"]
        try:
            blocks = [
                (check_integer(n, "block size"), check_tolerance(a, "block weight"))
                for n, a in body["blocks"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecInvalid(f"algebra.multimatrix: {exc}") from None
        label = str(obj.get("label", "")) or "+".join(
            f"M{n}({a:g})" for n, a in blocks
        )
        return multimatrix(blocks, label=label), blocks
    if "group_algebra" in obj:
        grp = parse_group(obj["group_algebra"])
        return group_algebra(grp), None
    for key in ("dim", "mult", "star", "unit", "trace"):
        if key not in obj:
            raise SpecInvalid(f"algebra: missing field {key!r}")
    try:
        alg = FDAlgebra(
            dim=check_integer(obj["dim"], "algebra.dim"),
            mult=_complex_array(obj["mult"], "algebra.mult"),
            star=_complex_array(obj["star"], "algebra.star"),
            unit=_complex_array(obj["unit"], "algebra.unit"),
            trace=_complex_array(obj["trace"], "algebra.trace"),
            label=str(obj.get("label", "")),
        )
    except SteinlabError as exc:
        raise SpecInvalid(f"algebra: {exc}") from None
    return alg, None


def _action_field(obj: dict, key: str) -> object:
    if key not in obj:
        raise SpecInvalid(f"action {obj.get('name')!r}: missing field {key!r}")
    return obj[key]


def _integer_array(obj) -> np.ndarray | None:
    """Nested lists of integers as an array, or None if obj is not one.
    The entries are read by dtype kind, as int() would truncate a float and
    read a numeric string as an index, and each JSON true or false among
    them, which NumPy casts to 1 or 0, is refused as check_integer refuses
    it."""
    try:
        arr, entries = np.asarray(obj), np.asarray(obj, dtype=object)
    except ValueError:
        return None
    if arr.dtype.kind not in "iu" or any(isinstance(x, bool) for x in entries.flat):
        return None
    return arr


def _perms(obj, grp: FiniteGroup, alg: FDAlgebra) -> np.ndarray:
    """One permutation image list per group element, entries in 0..dim A - 1."""
    perms = _integer_array(obj)
    want = (grp.order, alg.dim)
    if perms is None or perms.shape != want:
        raise SpecInvalid(f"action.perms: expected {want[0]} lists of {want[1]} integers")
    if np.any((perms < 0) | (perms >= alg.dim)):
        raise SpecInvalid(f"action.perms: entries must lie in 0..{alg.dim - 1}")
    return perms


def parse_action(obj, grp: FiniteGroup, alg: FDAlgebra) -> GroupAction:
    """Named generators ("trivial", permutation, ad, dual) or raw matrices."""
    try:
        if obj == "trivial" or obj is None:
            return trivial_action(grp, alg)
        if isinstance(obj, dict) and "matrices" in obj:
            mats = _complex_array(obj["matrices"], "action.matrices")
            return GroupAction(grp, alg, mats)
        if isinstance(obj, dict) and obj.get("name") == "permutation":
            return permutation_action(grp, alg, _perms(_action_field(obj, "perms"), grp, alg))
        if isinstance(obj, dict) and obj.get("name") == "ad":
            us = _complex_array(_action_field(obj, "unitaries"), "action.unitaries")
            if us.shape != (grp.order, alg.dim):
                raise SpecInvalid(
                    f"action.unitaries: shape {us.shape}, expected {(grp.order, alg.dim)}"
                )
            return ad_action(grp, alg, us)
        if isinstance(obj, dict) and obj.get("name") == "dual":
            # the characters of Z/n scale the u_k of C[Z/n]; on another
            # group or algebra of the same order they need not be an action
            ref = dual_action(grp.order)
            if not (np.array_equal(grp.table, ref.group.table) and all(
                    np.array_equal(getattr(alg, f), getattr(ref.algebra, f))
                    for f in ("mult", "star", "unit", "trace"))):
                raise SpecInvalid(f"dual action needs C[Z/{grp.order}] under Z/{grp.order}")
            return GroupAction(grp, alg, ref.matrices)
    except SteinlabError as exc:
        if isinstance(exc, SpecInvalid):
            raise
        raise SpecInvalid(f"action: {exc}") from None
    raise SpecInvalid(f"unrecognized action {obj!r}")


def check_tolerance(value, source: str = "tolerance") -> float:
    """A report tolerance or a block weight: a finite number >= 0, and no
    JSON true or false (which float() reads), else SpecInvalid naming the
    source and the value."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = None
    if tol is None or isinstance(value, bool):
        raise SpecInvalid(f"{source}={value!r} is not a number")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise SpecInvalid(f"{source}={value!r} is not a finite number >= 0")
    return tol


def check_integer(value, source: str) -> int:
    """An integer field: what int() reads without rounding, and no JSON
    true or false, else SpecInvalid naming the source and the value."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, bool) or (isinstance(value, float) and out != value):
        raise SpecInvalid(f"{source}={value!r} is not an integer")
    return out


def check_seed(value, source: str) -> int:
    """A seed: an integer (check_integer) that is not negative, as
    numpy's generators need, else SpecInvalid."""
    out = check_integer(value, source)
    if out < 0:
        raise SpecInvalid(f"{source}={value!r} is negative")
    return out


@dataclass
class ExperimentSpec:
    """One verification experiment: an algebra, a group acting on it, the
    checks to run, and reproducibility knobs."""

    label: str
    algebra: FDAlgebra
    group: FiniteGroup
    action: GroupAction
    blocks: list[tuple[int, float]] | None = None
    checks: list[str] | None = None  # None = whole registry
    tolerance: float = 1e-8
    seed: int = 0
    subgroup: list[int] | None = None
    alt_generators: np.ndarray | None = None

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentSpec":
        if not isinstance(obj, dict):
            raise SpecInvalid("experiment spec must be a JSON object")
        alg, blocks = parse_algebra(obj.get("algebra", {}))
        grp = parse_group(obj.get("group", "Z/2"))
        act = parse_action(obj.get("action", "trivial"), grp, alg)
        checks = obj.get("checks")
        if checks is not None:
            if not (isinstance(checks, list) and all(isinstance(c, str) for c in checks)):
                raise SpecInvalid("checks must be a list of check names")
            unknown = [c for c in checks if c not in CHECKS]
            if unknown:
                raise SpecInvalid(f"unknown checks: {unknown}")
        sub = obj.get("subgroup")
        if sub is not None:
            if not isinstance(sub, list):
                raise SpecInvalid("subgroup must be a list of group elements")
            sub = [check_integer(s, "subgroup element") for s in sub]
            outside = [s for s in sub if not 0 <= s < grp.order]
            if outside:
                raise SpecInvalid(f"subgroup elements {outside} are outside 0..{grp.order - 1}")
        alt = obj.get("alt_generators")
        if alt is not None:
            if not (isinstance(alt, list) and alt):
                raise SpecInvalid("alt_generators must be a non-empty list of elements of A")
            alt = [_complex_array(v, "alt_generators") for v in alt]
            if any(v.shape != (alg.dim,) for v in alt):
                raise SpecInvalid(f"alt_generators: each element needs {alg.dim} [re, im] pairs")
            alt = np.column_stack(alt)
        return cls(
            label=str(obj.get("label", alg.label or "experiment")),
            algebra=alg,
            group=grp,
            action=act,
            blocks=blocks,
            checks=checks,
            tolerance=check_tolerance(obj.get("tolerance", 1e-8)),
            seed=check_seed(obj.get("seed", 0), "seed"),
            subgroup=sub,
            alt_generators=alt,
        )


@dataclass
class CheckRow:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    statement: str
    lhs: float | None = None
    rhs: float | None = None
    residual: float | None = None
    lhs_fraction: str | None = None
    rhs_fraction: str | None = None
    note: str = ""


@dataclass
class VerificationReport:
    label: str
    seed: int
    tolerance: float
    rows: list[CheckRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.rows)

    def row(self, name: str) -> CheckRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


# -- the check protocol ------------------------------------------------------------

class Skip(Exception):
    """Raised by a check whose hypotheses do not hold for the spec; run()
    reports the row as skipped, with this note."""


@dataclass
class Compared:
    """What a check compared. run() alone sets the status: pass exactly
    when holds (a structural condition) is true and the residual is at most
    the tolerance. The residual is |lhs - rhs|, or the given one where that
    is larger: a given residual adds to the comparison, never replaces it."""

    lhs: float
    rhs: float
    residual: float | None = None
    note: str = ""
    holds: bool = True

    def __post_init__(self):
        gap = abs(self.lhs - self.rhs)
        # np.maximum keeps a NaN on either side
        self.residual = gap if self.residual is None else float(np.maximum(self.residual, gap))


# name -> (statement, check function), in report order
CHECKS: dict[str, tuple[str, Callable[["RunContext"], Compared]]] = {}


def check(name: str, statement: str):
    """Register the decorated function as the check name, which tests
    statement; checks are reported in the order they are declared."""
    def register(fn):
        CHECKS[name] = (statement, fn)
        return fn
    return register


# errors a check may raise; run() turns them into a failed row with a note
_CHECK_ERRORS = (SteinlabError, np.linalg.LinAlgError, MemoryError)
# the checks every other check depends on
_FOUNDATION = ("algebra_valid", "action_valid")
# a derivation counts as covariant, or as vanishing on C[G], when its
# relative defect is at most this; fixed, independent of the report tolerance
_ZERO_TOL = 1e-8


def stage(fn):
    """A memoized pipeline stage of RunContext, read as a property. A stage
    that raises one of the errors run() reports is stored too and
    re-raised, not recomputed, on every later lookup by a dependent check."""
    key = fn.__name__

    @functools.wraps(fn)
    def get(self):
        if key not in self._memo:
            try:
                self._memo[key] = fn(self)
            except _CHECK_ERRORS as exc:
                # the traceback would keep the failed stage's arrays alive
                self._memo[key] = exc.with_traceback(None)
        val = self._memo[key]
        if isinstance(val, _CHECK_ERRORS):
            raise val
        return val

    return property(get)


def _dim(space: DerivationSpace, gens: np.ndarray | None = None) -> float:
    """vn_dimension of phi_X(space), X the columns of gens (default the
    basis of A)."""
    return vn_dimension(phi_x(space, gens)).value


class RunContext:
    """The spec and the pipeline stages its checks share."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.alg = spec.algebra
        self.grp = spec.group
        self.act = spec.action
        self.tol = spec.tolerance
        self._memo: dict[str, object] = {}

    @stage
    def cp(self):
        return crossed_product(self.alg, self.act)

    @stage
    def space_a(self) -> DerivationSpace:
        return derivation_space(self.alg)

    @stage
    def dim_a(self) -> float:
        return _dim(self.space_a)

    @stage
    def space_m(self) -> DerivationSpace:
        return derivation_space(self.cp.algebra)

    @stage
    def dim_m(self) -> float:
        return _dim(self.space_m)

    @stage
    def vanishing(self) -> DerivationSpace:
        return relative_derivations(self.space_m, self.cp.embed_group, check_subalgebra=False)

    @stage
    def dim_van_big(self) -> float:
        return _dim(self.vanishing)

    @stage
    def dim_van_base(self) -> float:
        return vn_dimension(restrict_scalars(phi_x(self.vanishing), self.cp)).value

    @stage
    def extensions(self) -> np.ndarray:
        """d^h for the first two base derivations d, (r, |G|, n^2, n)."""
        base = self.space_a.columns(slice(2))
        return np.stack([extend_vanishing(self.cp, base, h) for h in range(self.grp.order)], axis=1)

    @stage
    def blocks_a(self) -> list[tuple[int, float]]:
        if self.spec.blocks is not None:
            return self.spec.blocks
        return multimatrix_decompose(self.alg)

    @stage
    def blocks_m(self) -> list[tuple[int, float]]:
        return multimatrix_decompose(self.cp.algebra)

    @stage
    def chars(self) -> list[Character]:
        return characters(self.grp)

    @stage
    def scaled(self) -> list:
        """The character-scaled components of the basis of A."""
        xs = [self.alg.basis(i) for i in range(self.alg.dim)]
        return scaled_generating_set(xs, self.act, self.chars)


def _block_formula(blocks) -> float:
    return 1.0 - sum(a * a / (n * n) for n, a in blocks)


# -- the checks, in report order ------------------------------------------------------

@check("algebra_valid",
       "multiplication is associative and unital, * is an antimultiplicative "
       "involution, and tau is a faithful tracial state")
def _chk_algebra_valid(rc: RunContext):
    # faithfulness is decided at validate's own fixed cut, not the report
    # tolerance; the axiom residual is compared by run()
    rep = validate(rc.alg)
    return Compared(rep.worst()[1], 0.0, note=rep.faults(), holds=rep.gram_min_eig > VALID_TOL)


@check("action_valid",
       "every alpha_g is a trace-preserving unital *-automorphism and "
       "g -> alpha_g is a group homomorphism")
def _chk_action_valid(rc: RunContext):
    return Compared(max(validate_action(rc.act, float("inf")).values()), 0.0)


@check("group_algebra_dim", "dim Der(C[G]) = 1 - 1/|G|")
def _chk_group_algebra_dim(rc: RunContext):
    moved = np.linalg.norm(rc.act.matrices - np.eye(rc.alg.dim), axis=(1, 2))
    if rc.alg.dim != 1 or not np.all(moved <= 1e-12):
        raise Skip("needs A = C with the trivial action")
    return Compared(rc.dim_m, 1.0 - 1.0 / rc.grp.order)


@check("multimatrix_formula",
       "dim Der(A) = 1 - sum_i alpha_i^2 / n_i^2 for A a direct sum of "
       "matrix blocks M_{n_i} with trace weights alpha_i")
def _chk_multimatrix_formula(rc: RunContext):
    return Compared(rc.dim_a, _block_formula(rc.blocks_a))


@check("crossed_multimatrix",
       "A x| G is a multi-matrix algebra whose weights sum to 1, whose block "
       "sizes square-sum to dim(A) |G|, and whose derivation dimension obeys "
       "its own block formula")
def _chk_crossed_multimatrix(rc: RunContext):
    blocks = rc.blocks_m
    wsum = abs(sum(a for _, a in blocks) - 1.0)
    dsum = abs(sum(n * n for n, _ in blocks) - rc.cp.algebra.dim)
    lhs = rc.dim_m
    rhs = _block_formula(blocks)
    shown = [(n, float(round(a, 9))) for n, a in blocks]
    return Compared(lhs, rhs, max(wsum, dsum), f"blocks {shown}")


@check("schreier_crossed", "dim Der(A x| G) - 1 = (dim Der(A) - 1) / |G|")
def _chk_schreier_crossed(rc: RunContext):
    return Compared(rc.dim_m, 1.0 + (rc.dim_a - 1.0) / rc.grp.order)


@check("schreier_vanishing",
       "the derivations of A x| G vanishing on C[G] have dimension "
       "|G| dim Der(A) over A (x) A°")
def _chk_schreier_vanishing(rc: RunContext):
    return Compared(rc.dim_van_base, rc.grp.order * rc.dim_a)


@check("index_scaling_full",
       "restricting scalars from (A x| G) (x) (A x| G)° to A (x) A° "
       "multiplies the dimension of the full module by |G|^2")
def _chk_index_scaling_full(rc: RunContext):
    full = full_module(rc.cp.algebra)
    one = vn_dimension(full).value
    lhs = vn_dimension(restrict_scalars(full, rc.cp)).value
    rhs = float(rc.grp.order**2)
    return Compared(lhs, rhs, abs(one - 1.0))


@check("index_scaling_vanishing",
       "the vanishing-space dimension over A (x) A° is |G|^2 times its "
       "dimension over (A x| G) (x) (A x| G)°")
def _chk_index_scaling_vanishing(rc: RunContext):
    return Compared(rc.dim_van_base, rc.grp.order**2 * rc.dim_van_big)


@check("subgroup_schreier",
       "dim Der(A x| G) - 1 = (dim Der(A x| H) - 1) / [G:H] for H <= G")
def _chk_subgroup_schreier(rc: RunContext):
    if rc.spec.subgroup is None:
        raise Skip("no subgroup designated")
    sub, embedding = subgroup(rc.grp, rc.spec.subgroup)
    act_h = GroupAction(sub, rc.alg, rc.act.matrices[np.asarray(embedding, dtype=int)])
    dim_h = _dim(derivation_space(crossed_product(rc.alg, act_h).algebra))
    index = rc.grp.order // sub.order
    return Compared(rc.dim_m - 1.0, (dim_h - 1.0) / index, note=f"index {index}")


@check("coset_projection_relations",
       "the sector projections p_{g,h} resolve the identity, commute with "
       "A (x) A°, satisfy p_{g,h} (u_a (x) u_b°) = (u_a (x) u_b°) "
       "p_{a^-1 g, h b^-1}, and J p_{g,h} = p_{g^-1, h^-1} J")
def _chk_coset_projections(rc: RunContext):
    """p_{g,h} is the pair of leg masks group index = g, group index = h, so
    each relation holds exactly when every leg operator involved maps the
    basis vectors of group index c into those of one group index f(c): the
    check is the largest entry of the operator outside that pattern."""
    grp, calg = rc.grp, rc.cp.algebra
    gi = rc.cp.group_index
    same = np.arange(grp.order)

    def stray(op, f):
        return float(np.abs(op[..., gi[:, None] != f[gi][None, :]]).max(initial=0.0))

    # the masks are orthogonal projections in the GNS metric, whose Gram is
    # kron(gram, gram), exactly when the Gram vanishes between different
    # group indices: tau(u_g* b* b' u_h) = 0 for g != h
    worst = stray(calg.gram, same)
    # translation p_{g,h} L(u_a (x) u_b°) = L(u_a (x) u_b°) p_{a^-1 g, h b^-1}:
    # left_mult(u_a) sends index c to ac, right_mult(u_b) sends c to cb
    lu, ru = rc.cp.u_mult
    legs = [(lu[a], grp.table[a]) for a in same] + [(ru[b], grp.table[:, b]) for b in same]
    # conjugation swaps the sector indices, J p_{g,h} = p_{g^-1,h^-1} J, on both legs
    legs.append((calg.star, grp.inverse))
    # commutes with the base tensor algebra acting on either side
    lifted = rc.cp.embed_base.T
    legs += [(calg.left_mult(lifted), same), (calg.right_mult(lifted), same)]
    return Compared(max(worst, *(stray(op, f) for op, f in legs)), 0.0)


@check("covariance_equivalence",
       "a derivation of A x| G is fixed by every scaling conjugation exactly "
       "when it vanishes on C[G]")
def _chk_covariance_equivalence(rc: RunContext):
    cp = rc.cp
    calg = cp.algebra
    n = calg.dim
    cases = [np.zeros((1, n * n, n), dtype=complex)]
    if rc.space_a.rank:
        cases.append(rc.extensions[0])
    # an inner derivation moved off the vanishing space: xi = u_s (x) 1°,
    # for some s other than the identity, which the trivial group lacks
    if rc.grp.order > 1:
        s = 1 if rc.grp.identity != 1 else 0
        xi = np.kron(cp.u(s), calg.unit)
        cases.append(commutator_span(calg, np.eye(n), xi[:, None])[:, :, 0].T[None])
    # and the derivation space, one kernel part at a time
    space = rc.space_m
    defect, vanish = [], []
    for mats in itertools.chain(cases, (space.columns(idx) for idx in space.kernel.slabs())):
        scale = np.maximum(1.0, stack_frob(mats))
        defect.append(covariance_defect(cp, mats))
        vanish.append(restricted_norm(calg, mats, cp.embed_group) / scale)
    defect, vanish = np.concatenate(defect), np.concatenate(vanish)
    cov, vanishes = defect <= _ZERO_TOL, vanish <= _ZERO_TOL
    agree = int(np.sum(cov == vanishes))
    worst = max(float(defect[vanishes].max(initial=0.0)), float(vanish[cov].max(initial=0.0)))
    return Compared(agree, len(defect), worst,
                    f"{agree}/{len(defect)} cases agree in both directions",
                    holds=agree == len(defect))


def _y_gram(alg: FDAlgebra, ycols: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """<d_i, d_j>_Y = sum_y <d_i(y), d_j(y)> with the GNS inner product,
    linear in d_i, for a stack of derivations (..., i, n^2, n) of alg."""
    w = whiten(alg, mats @ ycols)
    return np.einsum("...ipy,...jpy->...ij", w, w.conj())


@check("extension_orthogonality",
       "the extensions {d^h}_h of a base derivation are pairwise orthogonal "
       "in <.,.>_Y for Y = (A basis) + group units")
def _chk_extension_orthogonality(rc: RunContext):
    if rc.space_a.rank == 0:
        return Compared(0.0, 0.0, note="no derivations on the base algebra")
    # Y = the embedded basis of A and the group units
    ycols = np.column_stack([rc.cp.embed_base, rc.cp.embed_group])
    gram = _y_gram(rc.cp.algebra, ycols, rc.extensions)  # (r, |G|, |G|) per base derivation
    scale = np.maximum(1.0, np.abs(np.diagonal(gram, axis1=1, axis2=2)).max(axis=1))
    off = np.abs(gram * (1.0 - np.eye(rc.grp.order))).max(axis=(1, 2))
    return Compared(float((off / scale).max()), 0.0)


def _vanishing_worst(rc: RunContext, mats: np.ndarray) -> float:
    """Worst of the Leibniz residual, the relative norm on C[G] and the
    covariance defect over a stack of derivations of A x| G."""
    calg = rc.cp.algebra
    scale = np.maximum(1.0, np.linalg.norm(mats, axis=(-2, -1)))
    return float(max(
        covariance_defect(rc.cp, mats).max(initial=0.0),
        leibniz_residual(calg, mats).max(initial=0.0),
        (restricted_norm(calg, mats, rc.cp.embed_group) / scale).max(initial=0.0),
    ))


@check("extension_vanishing",
       "each extension d^h satisfies the Leibniz rule, vanishes on C[G], and "
       "is fixed by the scaling conjugations")
def _chk_extension_vanishing(rc: RunContext):
    if rc.space_a.rank == 0:
        return Compared(0.0, 0.0, note="no derivations on the base algebra")
    return Compared(_vanishing_worst(rc, rc.extensions), 0.0)


@check("round_trip_extend_restrict",
       "restricting an extension returns the original derivation, and every "
       "vanishing derivation is the sum of its re-extended components")
def _chk_round_trip(rc: RunContext):
    grp = rc.grp
    base = rc.space_a.columns(slice(2))
    scale = np.maximum(1.0, np.linalg.norm(base, axis=(1, 2)))
    worst = 0.0
    for h in range(grp.order):
        back = restrict_component(rc.cp, rc.extensions[:, h], grp.identity, h)
        err = np.linalg.norm(back - base, axis=(1, 2)) / scale
        worst = max(worst, float(err.max(initial=0.0)))
    van = rc.vanishing
    for idx in van.kernel.slabs():
        _, residuals = decompose_vanishing(rc.cp, van.columns(idx))
        worst = max(worst, float(residuals.max(initial=0.0)))
    return Compared(worst, 0.0)


@check("central_projection_formula",
       "p = sum_i n_i^-1 sum_{j,k} e^(i)_{jk} (x) (e^(i)_{kj})° left-acts as "
       "the orthogonal projection onto the A-central vectors, and "
       "(tau (x) tau)(p) = sum_i alpha_i^2 / n_i^2")
def _chk_central_projection(rc: RunContext):
    """p is a self-adjoint idempotent of N, so left multiplication by it is
    an orthogonal projection on L^2(N); it is the projection onto the
    central vectors when it fixes their orthonormal basis q and its trace
    (its rank, a sum of products of leg traces) is their number."""
    if rc.spec.blocks is None:
        raise Skip("matrix units not supplied")
    alg = rc.alg
    p, (lefts, rights) = central_projection_element(alg, matrix_units(rc.spec.blocks))
    p = p[:, None]
    q = central_vectors(alg, np.eye(alg.dim, dtype=complex))
    n = alg.dim

    def left(v):
        # sum_u kron(lefts[u], rights[u]) v, one contraction over the units
        return np.einsum("uac,ubd,cdm->abm", lefts, rights, v.reshape(n, n, -1),
                         optimize=True).reshape(n * n, -1)

    op_res = max(
        frob(whiten(alg, left(p) - p)),
        frob(whiten(alg, apply_pair((alg.star, alg.star), p.conj()) - p)),
        frob(whiten(alg, left(q) - q)),
        abs(np.trace(lefts, axis1=1, axis2=2) @ np.trace(rights, axis1=1, axis2=2) - q.shape[1]),
    )
    unit = np.kron(alg.unit, alg.unit)[:, None]
    lhs = float(np.vdot(whiten(alg, unit), whiten(alg, p)).real)
    rhs = sum(a * a / (n * n) for n, a in rc.spec.blocks)
    return Compared(lhs, rhs, op_res)


@check("central_family_orthonormal",
       "the vectors |G|^-1/2 sum_k u_{kh} (x) (u_{k^-1})° are an orthonormal "
       "basis of the C[G]-central vectors")
def _chk_central_family(rc: RunContext):
    grp = rc.grp
    ga = group_algebra(grp)
    fam = group_central_family(grp)
    wfam = whiten(ga, fam)
    worst = float(np.max(np.abs(wfam.conj().T @ wfam - np.eye(grp.order))))
    comm = commutator_span(ga, np.eye(ga.dim), fam)
    worst = max(worst, float(np.linalg.norm(comm, axis=(1, 2)).max()))
    central = central_vectors(ga, np.eye(ga.dim, dtype=complex))
    resid = fam - central @ (whiten(ga, central).conj().T @ wfam)
    return Compared(grp.order, central.shape[1], max(worst, frob(resid)))


@check("scaling_unitary",
       "each scaling conjugation V_g is unitary for <.,.>_Y built from a "
       "character-scaled generating set plus the group units")
def _chk_scaling_unitary(rc: RunContext):
    if not rc.grp.is_abelian:
        raise Skip("character scaling needs an abelian group")
    cp = rc.cp
    ycols = np.column_stack([*(cp.lift(y) for y, _ in rc.scaled), cp.embed_group])
    space = rc.space_m
    if space.rank == 0:
        return Compared(0.0, 0.0, note="no derivations to conjugate")
    rng = np.random.default_rng(rc.spec.seed)
    coef = rng.standard_normal(space.rank) + 1j * rng.standard_normal(space.rank)
    mix = sum(np.einsum("r,rpj->pj", coef[idx], space.columns(idx)) for idx in space.kernel.slabs())
    picks = np.concatenate([space.columns(slice(3)), mix[None]])
    before = _y_gram(cp.algebra, ycols, picks)
    scale = np.maximum(1.0, np.abs(before))
    worst = 0.0
    for g in range(rc.grp.order):
        after = _y_gram(cp.algebra, ycols, scaling_conjugation(cp, g, picks))
        worst = max(worst, float(np.max(np.abs(after - before) / scale)))
    return Compared(worst, 0.0)


@check("scaling_average_vanishes",
       "the group average of the scaling conjugates of any derivation "
       "vanishes on C[G]")
def _chk_scaling_average(rc: RunContext):
    averaged = average_scaling(rc.cp, rc.space_m.columns(slice(4)))
    return Compared(_vanishing_worst(rc, averaged), 0.0)


@check("scaled_generators",
       "character averaging maps a generating set to alpha-eigenvectors "
       "generating the same subalgebra")
def _chk_scaled_generators(rc: RunContext):
    if not rc.grp.is_abelian:
        raise Skip("character scaling needs an abelian group")
    alg = rc.alg
    xs = [alg.basis(i) for i in range(alg.dim)]
    pairs = rc.scaled
    orbit = [rc.act.apply(g, x) for x in xs for g in range(rc.grp.order)]
    before = subalgebra_generate(alg, xs + orbit)
    after = subalgebra_generate(alg, [y for y, _ in pairs])
    return Compared(after.shape[1], before.shape[1], scaling_residual(pairs, rc.act),
                    f"{len(pairs)} scaled components", holds=span_equal(alg, before, after))


@check("generating_set_independence",
       "the computed module dimension of the derivation space does not "
       "depend on the generating set")
def _chk_generating_independence(rc: RunContext):
    # the first set is the basis of A, the one dim_a takes
    alg = rc.alg
    if rc.spec.alt_generators is not None:
        x2 = rc.spec.alt_generators
    elif rc.spec.blocks is not None and alg.dim > 1:
        x2 = multimatrix_generators(rc.spec.blocks)
    else:
        # the generating basis elements other than multiples of the unit;
        # with none left, any scalar works, and a rescaled unit keeps the
        # set apart from the plain basis
        one = alg.unit[:, None]
        keep = [i for i in alg.generating_indices
                if not span_equal(alg, one, alg.basis(i)[:, None])]
        x2 = np.eye(alg.dim, dtype=complex)[:, keep] if keep else 0.5 * one
    return Compared(rc.dim_a, _dim(rc.space_a, x2),
                    note=f"{alg.dim} vs {x2.shape[1]} generators")


def _fraction_bound(rc: RunContext) -> int:
    try:
        prod = math.prod(n * n for n, _ in rc.blocks_a)
    except _CHECK_ERRORS:
        # blocks unknown (the algebra failed validation, say): a coarser bound
        prod = rc.alg.dim * rc.alg.dim
    return max(rc.grp.order * rc.grp.order * prod, 2)


def run(spec: ExperimentSpec) -> VerificationReport:
    """Execute the requested checks (default: the whole registry) in report
    order and assemble the report. A failed foundation check turns every
    later check into a skipped row."""
    rc = RunContext(spec)
    wanted = CHECKS if spec.checks is None else set(spec.checks)
    rows: list[CheckRow] = []
    foundation_ok = True
    max_den = None
    for name, (statement, fn) in CHECKS.items():
        if name not in wanted:
            continue
        row = CheckRow(name, "skipped", statement)
        rows.append(row)
        if not foundation_ok and name not in _FOUNDATION:
            row.note = "validation failed upstream"
            continue
        try:
            got = fn(rc)
        except Skip as exc:
            row.note = str(exc)
        except _CHECK_ERRORS as exc:
            row.status, row.note = "fail", f"{type(exc).__name__}: {exc}"
        else:
            row.lhs, row.rhs, row.residual = float(got.lhs), float(got.rhs), float(got.residual)
            row.note = got.note
            row.status = "pass" if got.holds and row.residual <= spec.tolerance else "fail"
        if row.status == "pass":
            if max_den is None:
                max_den = _fraction_bound(rc)
            fl = as_fraction(row.lhs, max_den)
            fr = as_fraction(row.rhs, max_den)
            row.lhs_fraction = None if fl is None else str(fl)
            row.rhs_fraction = None if fr is None else str(fr)
        if name in _FOUNDATION and row.status == "fail":
            foundation_ok = False
    return VerificationReport(spec.label, spec.seed, spec.tolerance, rows)


# -- built-in corpus ------------------------------------------------------------

# the built-in battery of (algebra, group, action) triples, in the spec-file
# format that steinlab run reads (ExperimentSpec.from_json)
CORPUS: list[dict] = [
    {"label": f"C | {name} | trivial",
     "algebra": {"multimatrix": {"blocks": [[1, 1.0]]}, "label": "C"},
     "group": name, "action": "trivial"}
    for name in ("Z/2", "Z/3", "Z/4", "Z/5", "Z/6", "Z/2xZ/2", "S3")
] + [
    {"label": "C^2 | Z/2 | swap",
     "algebra": {"multimatrix": {"blocks": [[1, 0.5], [1, 0.5]]}, "label": "C^2"},
     "group": "Z/2", "action": {"name": "permutation", "perms": [[0, 1], [1, 0]]}},
    {"label": "C^3 | Z/3 | cycle",
     "algebra": {"multimatrix": {"blocks": [[1, 1 / 3], [1, 1 / 3], [1, 1 / 3]]}, "label": "C^3"},
     "group": "Z/3", "action": {"name": "permutation", "perms": [[0, 1, 2], [2, 0, 1], [1, 2, 0]]}},
    {"label": "C^3 uneven | Z/2 | trivial",
     "algebra": {"multimatrix": {"blocks": [[1, 0.5], [1, 0.3], [1, 0.2]]}, "label": "C^3 uneven"},
     "group": "Z/2", "action": "trivial"},
    # the unitaries 1 and diag(1, -1) in matrix units
    {"label": "M2 | Z/2 | ad(diag(1,-1))",
     "algebra": {"multimatrix": {"blocks": [[2, 1.0]]}, "label": "M2"},
     "group": "Z/2", "action": {"name": "ad", "unitaries": [[[1, 0], [0, 0], [0, 0], [1, 0]],
                                                            [[1, 0], [0, 0], [0, 0], [-1, 0]]]}},
    {"label": "M2+C | Z/2 | ad(diag(1,-1)+1)",
     "algebra": {"multimatrix": {"blocks": [[2, 2 / 3], [1, 1 / 3]]}, "label": "M2+C"},
     "group": "Z/2",
     "action": {"name": "ad", "unitaries": [[[1, 0], [0, 0], [0, 0], [1, 0], [1, 0]],
                                            [[1, 0], [0, 0], [0, 0], [-1, 0], [1, 0]]]}},
    {"label": "C[Z/2] | Z/2 | trivial",
     "algebra": {"group_algebra": "Z/2"}, "group": "Z/2", "action": "trivial"},
    {"label": "C[Z/2] | Z/2 | dual",
     "algebra": {"group_algebra": "Z/2"}, "group": "Z/2", "action": {"name": "dual"}},
    {"label": "C[Z/3] | Z/3 | dual",
     "algebra": {"group_algebra": "Z/3"}, "group": "Z/3", "action": {"name": "dual"}},
    {"label": "C^2 | Z/4 | swap through Z/2",
     "algebra": {"multimatrix": {"blocks": [[1, 0.5], [1, 0.5]]}, "label": "C^2"},
     "group": "Z/4", "action": {"name": "permutation", "perms": [[0, 1], [1, 0], [0, 1], [1, 0]]},
     "subgroup": [0, 2]},
    # (a, b) acts by swap^a; the subgroup {(0,0), (1,0)} realizes the swap
    {"label": "C^2 | Z/2xZ/2 | swap on first factor",
     "algebra": {"multimatrix": {"blocks": [[1, 0.5], [1, 0.5]]}, "label": "C^2"},
     "group": "Z/2xZ/2",
     "action": {"name": "permutation", "perms": [[0, 1], [0, 1], [1, 0], [1, 0]]},
     "subgroup": [0, 2]},
]


def corpus_specs(seed: int = 0, tolerance: float = 1e-8) -> list[ExperimentSpec]:
    """The specs of CORPUS at the given seed and tolerance."""
    return [
        ExperimentSpec.from_json({**obj, "seed": seed, "tolerance": tolerance}) for obj in CORPUS
    ]


def run_corpus(seed: int = 0, tolerance: float = 1e-8) -> list[VerificationReport]:
    return [run(spec) for spec in corpus_specs(seed=seed, tolerance=tolerance)]


# -- serialization ---------------------------------------------------------------

def report_dict(report: VerificationReport) -> dict:
    return {
        "label": report.label,
        "seed": report.seed,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "rows": [asdict(r) for r in report.rows],
    }


def to_json(reports: list[VerificationReport]) -> str:
    return json.dumps({"reports": [report_dict(r) for r in reports]}, indent=2)


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.12g}"


def to_markdown(reports: list[VerificationReport]) -> str:
    lines: list[str] = []
    for rep in reports:
        lines.append(f"## {rep.label}")
        lines.append("")
        lines.append(
            f"seed {rep.seed}, tolerance {rep.tolerance:g}, "
            f"{'all checks pass' if rep.passed else 'FAILURES PRESENT'}"
        )
        lines.append("")
        lines.append("| check | status | lhs | rhs | residual | note |")
        lines.append("|---|---|---|---|---|---|")
        for r in rep.rows:
            frac = ""
            if r.lhs_fraction and r.rhs_fraction and r.lhs_fraction == r.rhs_fraction:
                frac = f" (= {r.lhs_fraction})"
            lines.append(
                f"| {r.name} | {r.status} | {_fmt(r.lhs)}{frac} | {_fmt(r.rhs)} "
                f"| {_fmt(r.residual)} | {r.note} |"
            )
        lines.append("")
    return "\n".join(lines)


def to_csv(reports: list[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["experiment", "check", "status", "lhs", "rhs", "residual",
         "lhs_fraction", "rhs_fraction", "note"]
    )
    for rep in reports:
        for r in rep.rows:
            writer.writerow(
                [rep.label, r.name, r.status, _fmt(r.lhs), _fmt(r.rhs),
                 _fmt(r.residual), r.lhs_fraction or "", r.rhs_fraction or "",
                 r.note]
            )
    return buf.getvalue()
