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

from ._linalg import SPLIT_SEED, frob, nullspace, spectral_split
from .algebra import FDAlgebra, close_span
from .errors import (
    ActionInvalid,
    NotAbelian,
    NotSemisimple,
    WeightsNotNormalized,
)
from .groups import Character, FiniteGroup, characters, cyclic

# largest relative GNS distance of one span from another that span_equal
# still counts as equal
SPAN_TOL = 1e-8
# GNS norm at or below which scaled_generating_set drops a Fourier component
PRUNE_TOL = 1e-10

# -- multimatrix algebras ----------------------------------------------------

def multimatrix(blocks: list[tuple[int, float]], label: str = "") -> FDAlgebra:
    """Direct sum of matrix blocks M_{n_i} with trace weights alpha_i.

    Basis is the matrix units e^{(i)}_{jk} in block order; the trace takes
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

    off = 0
    for n, a in blocks:
        def pos(j, k, off=off, n=n):
            return off + j * n + k

        for j in range(n):
            for k in range(n):
                for l in range(n):
                    for m in range(n):
                        if k == l:
                            mult[pos(j, k), pos(l, m), pos(j, m)] = 1.0
                star[pos(k, j), pos(j, k)] = 1.0
            unit[pos(j, j)] = 1.0
            trace[pos(j, j)] = a / n
        off += n * n

    if not label:
        label = "+".join(f"M{n}({a:g})" for n, a in blocks)
    return FDAlgebra(dim, mult, star, unit, trace, label=label)


def matrix_units(blocks: list[tuple[int, float]]) -> list[np.ndarray]:
    """Coordinate vectors of the standard units: units[b][j, k] is e^{(b)}_{jk}."""
    dim = sum(int(n) * int(n) for n, _ in blocks)
    out = []
    off = 0
    for n, _ in blocks:
        n = int(n)
        arr = np.zeros((n, n, dim), dtype=complex)
        for j in range(n):
            for k in range(n):
                arr[j, k, off + j * n + k] = 1.0
        out.append(arr)
        off += n * n
    return out


def multimatrix_generators(blocks: list[tuple[int, float]]) -> np.ndarray:
    """Small self-adjoint generating set of a multimatrix algebra (columns).

    A diagonal element with distinct entries separates blocks and generates
    the diagonal; a blockwise cyclic shift fills in the off-diagonal units.
    The set {h, v, v*} is closed under star.
    """
    dim = sum(int(n) * int(n) for n, _ in blocks)
    h = np.zeros(dim, dtype=complex)
    v = np.zeros(dim, dtype=complex)
    off = 0
    val = 1.0
    for n, _ in blocks:
        n = int(n)
        for j in range(n):
            h[off + j * n + j] = val
            v[off + j * n + ((j + 1) % n)] = 1.0
            val += 1.0
        off += n * n
    vstar = np.zeros(dim, dtype=complex)
    off = 0
    for n, _ in blocks:
        n = int(n)
        for j in range(n):
            vstar[off + ((j + 1) % n) * n + j] = 1.0
        off += n * n
    return np.column_stack([h, v, vstar])


# -- group algebras ----------------------------------------------------------

def group_algebra(g: FiniteGroup) -> FDAlgebra:
    """C[G] with basis u_g, u_g u_h = u_{gh}, u_g* = u_{g^-1}, tau(u_g) = [g = e]."""
    n = g.order
    mult = np.zeros((n, n, n), dtype=complex)
    star = np.zeros((n, n), dtype=complex)
    for a in range(n):
        star[g.inv(a), a] = 1.0
        for b in range(n):
            mult[a, b, g.mul(a, b)] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[g.identity] = 1.0
    trace = unit.copy()
    return FDAlgebra(n, mult, star, unit, trace, label=f"C[{g.label or 'G'}]")


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
    for g in range(k):
        for q in range(n):
            mats[g, perms[g][q], q] = 1.0
    act = GroupAction(grp, alg, mats)
    validate_action(act)
    return act


def ad_action(grp: FiniteGroup, alg: FDAlgebra, unitaries: np.ndarray) -> GroupAction:
    """Inner action alpha_g = Ad(u_g), given coordinates of one unitary per element."""
    unitaries = np.asarray(unitaries, dtype=complex)
    mats = np.stack(
        [
            alg.left_mult(unitaries[g]) @ alg.right_mult(alg.star_of(unitaries[g]))
            for g in range(grp.order)
        ]
    )
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
        k = self.group.order
        out = np.zeros((self.algebra.dim, self.base.dim), dtype=complex)
        for i in range(self.base.dim):
            out[i * k + self.group.identity, i] = 1.0
        return out

    @cached_property
    def embed_group(self) -> np.ndarray:
        k = self.group.order
        out = np.zeros((self.algebra.dim, k), dtype=complex)
        for g in range(k):
            out[:, g] = np.kron(self.base.unit, np.eye(k)[g])
        return out

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
        return (np.stack([self.algebra.left_mult(u) for u in us]),
                np.stack([self.algebra.right_mult(u) for u in us]))

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
    rows = np.vstack([alg.left_mult(e) - alg.right_mult(e) for e in np.eye(alg.dim)])
    return alg.onb_inverse @ nullspace(rows @ alg.onb_inverse).dense()


def multimatrix_decompose(alg: FDAlgebra) -> list[tuple[int, float]]:
    """Recover the block structure [(n_i, alpha_i), ...] sorted descending.

    A self-adjoint central s = z + z^* (z random in the center, from
    SPLIT_SEED) acts on each block p_i A, of dimension n_i^2, by one
    eigenvalue; so one spectral_split of L(s) in the GNS-orthonormal
    coordinates T = alg.onb_factor has one cluster per block, else it is
    redrawn (at most 20 draws). Each cluster's projection P_i gives
    p_i = T^-1 P_i T 1, certified by |p_i^2 - p_i| <= 1e-8 (GNS norm), and
    alpha_i = tau(3 p_i^2 - 2 p_i^3): one McWeeny purification step (Rev.
    Mod. Phys. 32, 1960) leaves the error of the trace second order in the
    residual, where tau(p_i)'s is first order. NotSemisimple is raised for
    a failed draw, a non-square cluster or a failed certificate.
    """
    z_basis = center_basis(alg)
    d = z_basis.shape[1]
    if d == 0:
        raise NotSemisimple("trivial center")
    t, ti = alg.onb_factor, alg.onb_inverse
    one = t @ alg.unit
    rng = np.random.default_rng(SPLIT_SEED)
    for _ in range(20):
        z = z_basis @ (rng.normal(size=d) + 1j * rng.normal(size=d))
        # spectral_split adds the adjoint, T L(z^*) T^-1
        vec, bounds = spectral_split(t @ alg.left_mult(z) @ ti)
        if len(bounds) - 1 == d:
            break
    else:
        raise NotSemisimple(f"no draw split the center into {d} clusters")

    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ni = math.isqrt(hi - lo)
        if ni * ni != hi - lo:
            raise NotSemisimple(f"block of linear dimension {hi - lo} is not square")
        v = vec[:, lo:hi]
        p = ti @ (v @ (v.conj().T @ one))
        p2 = alg.mul(p, p)
        if (resid := alg.norm(p2 - p)) > 1e-8:
            raise NotSemisimple(f"central idempotent residual {resid:.3e}")
        blocks.append((ni, float(alg.tr(3 * p2 - 2 * alg.mul(p2, p)).real)))
    blocks.sort(key=lambda b: (b[0], b[1]), reverse=True)
    return blocks


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
    lefts = [t @ alg.left_mult(g) @ ti for g in letters]
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
    for h in range(k):
        for a in range(k):
            out[grp.mul(a, h) * k + grp.inv(a), h] = 1.0
    return out / np.sqrt(k)
