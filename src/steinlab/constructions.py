"""Constructions of tracial *-algebras: multimatrix algebras, group algebras,
group actions and crossed products.

Coordinate conventions follow algebra.py. Group actions are stored as one
matrix per group element acting on algebra coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import frob, nullspace, spectral_split
from .algebra import FDAlgebra, certify_exact, close_span
from .errors import (
    ActionInvalid,
    NotAbelian,
    NotSemisimple,
    WeightsNotNormalized,
)
from .groups import Character, FiniteGroup, cyclic

# largest relative GNS distance of one span from another that span_equal
# still counts as equal
SPAN_TOL = 1e-8
# GNS norm at or below which scaled_generating_set drops a Fourier component
PRUNE_TOL = 1e-10

# -- multimatrix algebras ----------------------------------------------------

def _unit_index(blocks: list[tuple[int, float]]) -> list[np.ndarray]:
    """Coordinate index of each matrix unit, one (n_i, n_i) array per block:
    out[i][j, k] is that of e^{(i)}_{jk}. The units run in block order and
    row-major within a block; no other code knows this layout."""
    sizes = [int(n) for n, _ in blocks]
    offsets = np.cumsum([0] + [n * n for n in sizes])
    return [off + np.arange(n * n).reshape(n, n) for off, n in zip(offsets, sizes)]


def multimatrix(blocks: list[tuple[int, float]], label: str = "") -> FDAlgebra:
    """Direct sum of matrix blocks M_{n_i} with trace weights alpha_i.

    Basis is the matrix units e^{(i)}_{jk} (_unit_index); the trace takes
    e^{(i)}_{jj} to alpha_i / n_i. Weights must sum to 1.
    """
    blocks = [(int(n), float(a)) for n, a in blocks]
    total_weight = sum(a for _, a in blocks)
    if abs(total_weight - 1.0) > 1e-12:
        raise WeightsNotNormalized(f"weights sum to {total_weight}")
    if any(n < 1 or a <= 0 for n, a in blocks):
        raise WeightsNotNormalized("block sizes must be >= 1 and weights > 0")

    dim = sum(n * n for n, _ in blocks)
    mult = np.zeros((dim, dim, dim), dtype=complex)
    star = np.zeros((dim, dim), dtype=complex)
    unit = np.zeros(dim, dtype=complex)
    trace = np.zeros(dim, dtype=complex)
    for e, (n, a) in zip(_unit_index(blocks), blocks):
        mult[e[:, :, None], e[None], e[:, None]] = 1.0  # e_jk e_km = e_jm
        star[e.T, e] = 1.0  # e_jk* = e_kj
        unit[e.diagonal()] = 1.0  # 1 = sum_j e_jj
        trace[e.diagonal()] = a / n  # tau(e_jj) = alpha / n

    if not label:
        label = "+".join(f"M{n}({a:g})" for n, a in blocks)
    return FDAlgebra(dim, mult, star, unit, trace, label=label)


def matrix_units(blocks: list[tuple[int, float]]) -> list[np.ndarray]:
    """Coordinate vectors of the standard units: units[b][j, k] is e^{(b)}_{jk}."""
    eye = np.eye(sum(int(n) * int(n) for n, _ in blocks), dtype=complex)
    return [eye[e] for e in _unit_index(blocks)]


def multimatrix_generators(blocks: list[tuple[int, float]]) -> np.ndarray:
    """Small self-adjoint generating set of a multimatrix algebra (columns).

    A diagonal element with distinct entries separates blocks and generates
    the diagonal; a blockwise cyclic shift v = sum_j e_{j, j+1} fills in the
    off-diagonal units. The set {h, v, v*} is closed under star.
    """
    units = _unit_index(blocks)
    diag = np.concatenate([e.diagonal() for e in units])
    gens = np.zeros((sum(e.size for e in units), 3), dtype=complex)
    gens[diag, 0] = np.arange(1, diag.size + 1)
    gens[np.concatenate([np.roll(e, -1, axis=1).diagonal() for e in units]), 1] = 1.0
    gens[np.concatenate([np.roll(e, -1, axis=0).diagonal() for e in units]), 2] = 1.0
    return gens


# -- group algebras ----------------------------------------------------------

def group_algebra(g: FiniteGroup) -> FDAlgebra:
    """C[G] with basis u_g, u_g u_h = u_{gh}, u_g* = u_{g^-1}, tau(u_g) = [g = e]."""
    eye = np.eye(g.order, dtype=complex)
    # star[g^-1, g] = 1 is eye[inverse], since inversion is an involution
    unit = eye[g.identity]
    return FDAlgebra(
        g.order, eye[g.table], eye[g.inverse], unit, unit.copy(), label=f"C[{g.label or 'G'}]"
    )


# -- group actions -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GroupAction:
    """Action of a finite group by trace-preserving *-automorphisms.

    matrices[g] acts on coordinates: alpha_g(x) = matrices[g] @ x.
    """

    group: FiniteGroup
    algebra: FDAlgebra
    matrices: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)
        n, k = self.algebra.dim, self.group.order
        if m.shape != (k, n, n):
            raise ActionInvalid(f"matrices shape {m.shape}, expected {(k, n, n)}")

    def apply(self, g: int, x: np.ndarray) -> np.ndarray:
        return self.matrices[g] @ x


def validate_action(act: GroupAction, tol: float = 1e-8) -> dict[str, float]:
    """Residuals of the action axioms; raises ActionInvalid above tol."""
    alg, grp, u = act.algebra, act.group, act.matrices
    res: dict[str, float] = {}
    res["identity"] = frob(u[grp.identity] - np.eye(alg.dim))
    rep = 0.0
    for a in range(grp.order):
        for b in range(grp.order):
            rep = max(rep, frob(u[a] @ u[b] - u[grp.mul(a, b)]))
    res["representation"] = rep
    res["unit"] = max(frob(u[g] @ alg.unit - alg.unit) for g in range(grp.order))
    mul_res = star_res = tr_res = 0.0
    for g in range(grp.order):
        lhs = np.einsum("ijk,lk->ijl", alg.mult, u[g])
        rhs = np.einsum("ai,bj,abk->ijk", u[g], u[g], alg.mult)
        mul_res = max(mul_res, frob(lhs - rhs))
        star_res = max(star_res, frob(u[g] @ alg.star - alg.star @ np.conj(u[g])))
        tr_res = max(tr_res, frob(alg.trace @ u[g] - alg.trace))
    res["multiplicative"] = mul_res
    res["star"] = star_res
    res["trace"] = tr_res
    bad = {k: v for k, v in res.items() if v > tol}
    if bad:
        raise ActionInvalid(f"action residuals above {tol}: {bad}")
    return res


def trivial_action(grp: FiniteGroup, alg: FDAlgebra) -> GroupAction:
    mats = np.broadcast_to(np.eye(alg.dim, dtype=complex), (grp.order, alg.dim, alg.dim))
    return GroupAction(grp, alg, mats.copy())


def permutation_action(grp: FiniteGroup, alg: FDAlgebra, perms: np.ndarray) -> GroupAction:
    """Action permuting coordinates: alpha_g(e_q) = e_{perms[g][q]}.

    perms must be a homomorphism into the symmetric group of the basis;
    validate_action catches anything that fails the axioms (including
    trace weights not constant along orbits).
    """
    perms = np.asarray(perms, dtype=int)
    k, n = grp.order, alg.dim
    mats = np.zeros((k, n, n), dtype=complex)
    mats[np.arange(k)[:, None], perms, np.arange(n)] = 1.0
    act = GroupAction(grp, alg, mats)
    validate_action(act)
    return act


def ad_action(grp: FiniteGroup, alg: FDAlgebra, unitaries: np.ndarray) -> GroupAction:
    """Inner action alpha_g = Ad(u_g), given coordinates of one unitary per element."""
    unitaries = np.asarray(unitaries, dtype=complex)
    # x -> u_g x u_g*, the stars u_g* = star conj(u_g) as rows
    mats = alg.left_mult(unitaries) @ alg.right_mult(np.conj(unitaries) @ alg.star.T)
    act = GroupAction(grp, alg, mats)
    validate_action(act)
    return act


def dual_action(n: int) -> GroupAction:
    """Z/n acting on C[Z/n] by scaling u_k with the k-th power character.

    This is conjugation of the regular representation by the Fourier-diagonal
    unitary; the crossed product is the full matrix algebra M_n.
    """
    grp = cyclic(n)
    alg = group_algebra(grp)
    omega = np.exp(2j * np.pi / n)
    mats = np.stack([np.diag(omega ** (g * np.arange(n))) for g in range(n)])
    act = GroupAction(grp, alg, mats)
    validate_action(act)
    return act


# -- crossed products --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CrossedProduct:
    """A x| G with basis b_i u_g at flat index i * |G| + g.

    embed_base and embed_group are the coordinate matrices of the unital
    trace-preserving *-embeddings of A and C[G].
    """

    algebra: FDAlgebra
    base: FDAlgebra
    action: GroupAction

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    @cached_property
    def embed_base(self) -> np.ndarray:
        """b_i -> b_i u_e."""
        i = np.arange(self.base.dim)
        out = np.zeros((self.algebra.dim, self.base.dim), dtype=complex)
        out[i * self.group.order + self.group.identity, i] = 1.0
        return out

    @cached_property
    def embed_group(self) -> np.ndarray:
        """u_g -> 1 u_g."""
        return np.kron(self.base.unit[:, None], np.eye(self.group.order))

    def u(self, g: int) -> np.ndarray:
        return self.embed_group[:, g].copy()

    def lift(self, x: np.ndarray) -> np.ndarray:
        return self.embed_base @ x

    @cached_property
    def group_index(self) -> np.ndarray:
        """The group element g of each basis element b_i u_g."""
        return np.arange(self.algebra.dim) % self.group.order

    @cached_property
    def u_mult(self) -> tuple[np.ndarray, np.ndarray]:
        """(left_mult(u_g), right_mult(u_g)) for every g, each (|G|, n, n)."""
        us = self.embed_group.T
        return self.algebra.left_mult(us), self.algebra.right_mult(us)

    def ad(self, g: int) -> np.ndarray:
        """Coordinate matrix of x -> u_g x u_g^-1."""
        lu, ru = self.u_mult
        return lu[g] @ ru[self.group.inv(g)]


def crossed_product(base: FDAlgebra, act: GroupAction) -> CrossedProduct:
    """Crossed product by a finite group action.

    (a u_g)(b u_h) = a alpha_g(b) u_{gh}, (a u_g)* = alpha_{g^-1}(a*) u_{g^-1},
    tau(sum a_g u_g) = tau(a_e).
    """
    validate_action(act)
    grp, u = act.group, act.matrices
    n, k = base.dim, grp.order
    dim = n * k

    mult = np.zeros((n, k, n, k, n, k), dtype=complex)
    for g in range(k):
        twisted = np.einsum("imk,mj->ijk", base.mult, u[g])  # b_i alpha_g(b_j)
        for h in range(k):
            mult[:, g, :, h, :, grp.mul(g, h)] = twisted

    star = np.zeros((n, k, n, k), dtype=complex)
    for g in range(k):
        gi = grp.inv(g)
        star[:, gi, :, g] = u[gi] @ base.star

    unit = np.zeros((n, k), dtype=complex)
    unit[:, grp.identity] = base.unit
    trace = np.zeros((n, k), dtype=complex)
    trace[:, grp.identity] = base.trace

    alg = FDAlgebra(
        dim,
        mult.reshape(dim, dim, dim),
        star.reshape(dim, dim),
        unit.reshape(dim),
        trace.reshape(dim),
        label=f"{base.label or 'A'}x|{grp.label or 'G'}",
    )
    return CrossedProduct(alg, base, act)


# -- block decomposition -----------------------------------------------------

def center_basis(alg: FDAlgebra) -> np.ndarray:
    """GNS-orthonormal basis (columns) of the center: the kernel of the
    commutators with the basis, solved for the GNS-orthonormal coordinates
    w = T z, T = alg.onb_factor, so that T^-1 maps its orthonormal basis
    to a GNS-orthonormal one."""
    eye = np.eye(alg.dim)
    rows = (alg.left_mult(eye) - alg.right_mult(eye)).reshape(-1, alg.dim)
    return alg.onb_inverse @ nullspace(rows @ alg.onb_inverse).vectors().T


def central_projections(alg: FDAlgebra) -> list[tuple[int, np.ndarray]]:
    """The minimal central projections of alg, [(n_i, p_i), ...], n_i^2
    the dimension of the block p_i A, in the order of the split.

    A self-adjoint central s = z + z^* (z a random combination of the
    center's basis) acts on each block p_i A by one eigenvalue; so one
    spectral_split of L(s) in the GNS-orthonormal coordinates
    T = alg.onb_factor, asked for one cluster per dimension of the center,
    has one cluster per block. Each cluster's projection P_i gives
    p_i = T^-1 P_i T 1, certified by |p_i^2 - p_i| <= 1e-8 (GNS norm).

    Raises InexactAlgebra unless alg passes algebra.certify_exact, since
    an inexact algebra's idempotents are those of a nearby wrong one;
    RankAmbiguous if no draw splits the center; NotSemisimple for a
    non-square cluster or a failed certificate.
    """
    certify_exact(alg)
    z_basis = center_basis(alg)
    if z_basis.shape[1] == 0:
        raise NotSemisimple("trivial center")
    t, ti = alg.onb_factor, alg.onb_inverse
    one = t @ alg.unit
    # spectral_split adds the adjoints, T L(z^*) T^-1
    lefts = t @ alg.left_mult(z_basis.T) @ ti
    vec, bounds = spectral_split(lefts, want=z_basis.shape[1])
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ni = math.isqrt(hi - lo)
        if ni * ni != hi - lo:
            raise NotSemisimple(f"block of linear dimension {hi - lo} is not square")
        v = vec[:, lo:hi]
        p = ti @ (v @ (v.conj().T @ one))
        if (resid := alg.norm(alg.mul(p, p) - p)) > 1e-8:
            raise NotSemisimple(f"central idempotent residual {resid:.3e}")
        out.append((ni, p))
    return out


def multimatrix_decompose(alg: FDAlgebra) -> list[tuple[int, float]]:
    """Recover the block structure [(n_i, alpha_i), ...] sorted descending,
    from the minimal central projections p_i (central_projections):
    alpha_i = tau(3 p_i^2 - 2 p_i^3). One McWeeny purification step (Rev.
    Mod. Phys. 32, 1960) leaves the error of the trace second order in the
    idempotent residual, where tau(p_i)'s is first order."""
    blocks = []
    for ni, p in central_projections(alg):
        p2 = alg.mul(p, p)
        blocks.append((ni, float(alg.tr(3 * p2 - 2 * alg.mul(p2, p)).real)))
    blocks.sort(key=lambda b: (b[0], b[1]), reverse=True)
    return blocks


def characters(g: FiniteGroup) -> list[Character]:
    """All characters of an abelian group.

    The minimal central projections of C[G] are p_chi =
    |G|^-1 sum_h conj(chi(h)) u_h, one per character (Serre, Linear
    Representations of Finite Groups, 6.3), and u_h p_chi = chi(h) p_chi;
    so chi(h) is read off central_projections(group_algebra(g)) as the
    Rayleigh quotient <u_h p, p> / <p, p>. The characters are sorted by
    their rounded values, an order that does not depend on the split.
    """
    if not g.is_abelian:
        raise NotAbelian(f"{g.label or 'group'} is not abelian")
    alg = group_algebra(g)
    ps = np.array([p for _, p in central_projections(alg)])
    # <x, p> = q x for the row q = conj(p) gram; u_h p is column h of right_mult(p)
    qs = (np.conj(ps) @ alg.gram)[:, None]
    vals = (qs @ alg.right_mult(ps) / (qs @ ps[:, :, None]))[:, 0]
    chars = sorted(vals, key=lambda c: tuple((np.round(c, 8) + 0.0).view(float)))
    return [Character(g, c) for c in chars]


# -- generated subalgebras ---------------------------------------------------

def subalgebra_generate(alg: FDAlgebra, gens: list[np.ndarray]) -> np.ndarray:
    """GNS-orthonormal basis (columns) of the unital *-subalgebra generated
    by gens: the span of 1 and the letters (gens and their stars) closed
    under left multiplication by the letters.

    The closure is algebra.close_span in GNS-orthonormal coordinates
    (whitened by T = alg.onb_factor), from the whitened 1 and letters,
    each letter scaled to unit norm and zero letters dropped; T^-1 maps
    its orthonormal columns to GNS-orthonormal ones. The closed span
    contains every word in the letters, so it is closed under products,
    and under * since the letters are.
    """
    t, ti = alg.onb_factor, alg.onb_inverse
    letters = [np.asarray(g, dtype=complex) for g in gens]
    letters += [alg.star_of(g) for g in letters]
    letters = [g / size for g in letters if (size := alg.norm(g))]
    lefts = list(t @ alg.left_mult(np.reshape(letters, (-1, alg.dim))) @ ti)
    empty = np.zeros((alg.dim, 0), dtype=complex)
    return ti @ close_span(empty, lefts, t @ np.column_stack([alg.unit] + letters))


def generates(alg: FDAlgebra, gens: list[np.ndarray]) -> bool:
    return subalgebra_generate(alg, gens).shape[1] == alg.dim


def span_equal(alg: FDAlgebra, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two column spans coincide, compared in the GNS geometry: the
    orthonormal bases of the whitened spans (close_span with no letters,
    so _new_span's rank rule) have the same rank, and that of b is off
    that of a by at most SPAN_TOL relative."""
    empty = np.zeros((alg.dim, 0), dtype=complex)
    qa = close_span(empty, [], alg.onb_factor @ a)
    qb = close_span(empty, [], alg.onb_factor @ b)
    if qa.shape[1] != qb.shape[1]:
        return False
    return frob(qa @ (qa.conj().T @ qb) - qb) <= SPAN_TOL * max(1.0, frob(qb))


# -- scaled generating sets --------------------------------------------------

def scaled_generating_set(
    xs: list[np.ndarray],
    act: GroupAction,
    chars: list[Character] | None = None,
) -> list[tuple[np.ndarray, Character]]:
    """Fourier components y_{x,chi} = |G|^-1 sum_g conj(chi(g)) alpha_g(x).

    Each returned y satisfies alpha_h(y) = chi(h) y; zero components are
    pruned at PRUNE_TOL in GNS norm. The original x is the sum of its
    components, so generation is preserved.
    """
    grp, alg = act.group, act.algebra
    if not grp.is_abelian:
        raise NotAbelian("scaled generating sets need an abelian group")
    if chars is None:
        chars = characters(grp)
    k = grp.order
    out = []
    for x in xs:
        x = np.asarray(x, dtype=complex)
        orbit = np.stack([act.apply(g, x) for g in range(k)])
        for chi in chars:
            y = np.einsum("g,gi->i", np.conj(chi.values), orbit) / k
            if alg.norm(y) <= PRUNE_TOL:
                continue
            out.append((y, chi))
    return out


def scaling_residual(pairs, act: GroupAction) -> float:
    """Worst |alpha_h(y) - chi(h) y| over the returned components."""
    alg = act.algebra
    worst = 0.0
    for y, chi in pairs:
        for h in range(act.group.order):
            worst = max(worst, alg.norm(act.apply(h, y) - chi(h) * y))
    return worst


# -- distinguished central family for group algebras --------------------------

def group_central_family(grp: FiniteGroup) -> np.ndarray:
    """Columns f_h in C[G] (x) C[G]^op coordinates.

    f_h = |G|^{-1/2} sum_k u_{kh} (x) (u_{k^-1})^op is an orthonormal family
    spanning the C[G]-central vectors, in the kron coordinates of
    L^2(N) that derivations uses.
    """
    k = grp.order
    out = np.zeros((k * k, k), dtype=complex)
    # u_{ah} (x) u_{a^-1} in column h, for a down the table and h across
    out[grp.table * k + grp.inverse[:, None], np.arange(k)] = 1.0
    return out / np.sqrt(k)
