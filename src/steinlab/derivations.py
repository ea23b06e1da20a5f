"""Derivation spaces of finite-dimensional tracial *-algebras.

A derivation is a linear map d : A -> L^2(A (x) A^op) with
d(xy) = x . d(y) + d(x) . y, where the bimodule action is
x . v . y = (x (x) y^op) v. Derivations are stored as (dim N, dim A)
matrices whose j-th column is d(b_j).

For crossed products A x| G the module carries extra structure: the
coset sectors L^2(N)(u_g (x) u_h^op), a scaling conjugation by each
group element, and extension/restriction maps moving derivations
between A and A x| G. All of that lives in CrossedContext.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import SparseSystem, frob, gram_onb, nullspace
from .algebra import FDAlgebra
from .constructions import CrossedProduct, subalgebra_generate, span_equal
from .errors import NotGenerating, NotSubalgebra, UnitsInvalid

# most unknowns in one connected block of the Leibniz system that the dense
# per-block SVD takes on; a basis with no zero structure is a single block of
# dim^3 unknowns and reaches it at dim 12, matrix-unit bases stay far below
_DENSE_LIMIT = 1600


class Bimodule:
    """L^2(A (x) A^op) with its two-sided A-action, in kron coordinates.

    Index convention matches constructions.tensor: a (x) b^op sits at
    flat index a * dim + b, i.e. the coordinate vector is kron(a, b).
    The rank-3 structure constants of A (x) A^op are never materialized;
    every operator used here is a kron of small multiplication matrices.
    """

    def __init__(self, alg: FDAlgebra):
        self.algebra = alg
        self.dim = alg.dim * alg.dim

    @cached_property
    def gram(self) -> np.ndarray:
        return np.kron(self.algebra.gram, self.algebra.gram)

    @cached_property
    def unit(self) -> np.ndarray:
        return np.kron(self.algebra.unit, self.algebra.unit)

    @cached_property
    def star(self) -> np.ndarray:
        return np.kron(self.algebra.star, self.algebra.star)

    def embed(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coordinates of x (x) y^op."""
        return np.kron(x, y)

    def act_left(self, x: np.ndarray) -> np.ndarray:
        """Left bimodule action of x in A."""
        return np.kron(self.algebra.left_mult(x), np.eye(self.algebra.dim))

    def act_right(self, y: np.ndarray) -> np.ndarray:
        """Right bimodule action of y in A."""
        return np.kron(np.eye(self.algebra.dim), self.algebra.right_mult(y))

    def left_pair(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Left multiplication by the element x (x) y^op of N."""
        return np.kron(self.algebra.left_mult(x), self.algebra.right_mult(y))

    def right_pair(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Right multiplication by the element x (x) y^op of N."""
        return np.kron(self.algebra.right_mult(x), self.algebra.left_mult(y))

    def left_elem(self, xi: np.ndarray) -> np.ndarray:
        """Left multiplication by a general element xi of N."""
        n = self.algebra.dim
        c = self.algebra.mult
        # sum over a, b of xi_ab kron(left_mult(b_a), right_mult(b_b)), with
        # left_mult(b_a)[i, k] = c[a, k, i] and right_mult(b_b)[j, l] = c[l, b, j]
        out = np.einsum("ab,aki,lbj->ijkl", xi.reshape(n, n), c, c, optimize=True)
        return out.reshape(self.dim, self.dim)

    def inner(self, v: np.ndarray, w: np.ndarray) -> complex:
        return complex(np.conj(w) @ (self.gram @ v))

    def norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(v, v).real, 0.0)))


@dataclass(eq=False)
class Derivation:
    bim: Bimodule
    matrix: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def leibniz_residual(self) -> float:
        alg = self.bim.algebra
        rights = [self.bim.act_right(alg.basis(j)) for j in range(alg.dim)]
        worst = 0.0
        for i in range(alg.dim):
            ei = alg.basis(i)
            li = self.bim.act_left(ei)
            di = self.matrix @ ei
            for j in range(alg.dim):
                lhs = self.matrix @ alg.mul(ei, alg.basis(j))
                rhs = li @ (self.matrix @ alg.basis(j)) + rights[j] @ di
                worst = max(worst, self.bim.norm(lhs - rhs))
        return worst

    def restricted_norm(self, cols: np.ndarray) -> float:
        """Largest image norm over the given argument vectors."""
        img = self.matrix @ cols
        return max(
            (self.bim.norm(img[:, j]) for j in range(img.shape[1])), default=0.0
        )


def commutator_derivation(bim: Bimodule, xi: np.ndarray) -> Derivation:
    """Inner derivation x -> x xi - xi x."""
    alg = bim.algebra
    cols = np.column_stack(
        [
            (bim.act_left(alg.basis(j)) - bim.act_right(alg.basis(j))) @ xi
            for j in range(alg.dim)
        ]
    )
    return Derivation(bim, cols)


def _commutator_stack(bim: Bimodule) -> np.ndarray:
    """Matrix sending xi to the row-major vec of the inner derivation [., xi]."""
    alg = bim.algebra
    n, nn = alg.dim, bim.dim
    c3 = np.stack(
        [
            bim.act_left(alg.basis(j)) - bim.act_right(alg.basis(j))
            for j in range(n)
        ]
    )  # (nA, nN, nN)
    return c3.transpose(1, 0, 2).reshape(nn * n, nn)


def leibniz_system(bim: Bimodule) -> SparseSystem:
    """Linear system whose kernel is the space of derivations.

    Unknown is the row-major vec of the (dim N, dim A) matrix D, entry
    D[q, k] at q * dim A + k. Equation (p, i, j), at row
    (p * dim A + i) * dim A + j, is component p of
    d(b_i b_j) - b_i . d(b_j) - d(b_i) . b_j = 0.

    The entries come straight from the nonzeros mult[x, y, z] of the
    structure constants: left_mult(b_x)[z, y] and right_mult(b_y)[z, x]
    both equal mult[x, y, z], and the bimodule actions are krons of these
    with the identity. In a monomial basis (matrix units, b u_g) each of
    the three terms is a permutation pattern, so nullspace splits the
    system into many small blocks.
    """
    alg = bim.algebra
    n, nn = alg.dim, bim.dim
    x, y, z = (ax[:, None, None] for ax in np.nonzero(alg.mult))
    v = alg.mult[x, y, z]
    a = np.arange(n)[:, None]  # free index on one tensor leg of N
    b = np.arange(n)  # free index on A
    p = a * n + b  # every index of N
    terms = [
        # d(b_x b_y) = sum_z mult[x, y, z] d(b_z): row (p, x, y), column (p, z)
        ((p * n + x) * n + y, p * n + z, v),
        # b_x . d(b_b), through left_mult(b_x) (x) 1: row (za, x, b), column (ya, b)
        (((z * n + a) * n + x) * n + b, (y * n + a) * n + b, -v),
        # d(b_b) . b_y, through 1 (x) right_mult(b_y): row (az, b, y), column (ax, b)
        (((a * n + z) * n + b) * n + y, (a * n + x) * n + b, -v),
    ]
    rows, cols, vals = (
        np.concatenate([np.broadcast_to(t, (v.size, n, n)).ravel() for t in parts])
        for parts in zip(*terms)
    )
    return SparseSystem((nn * n * n, nn * n), rows, cols, vals)


@dataclass(eq=False)
class DerivationSpace:
    """Span of derivations with a basis orthonormal for <., .>_X."""

    bim: Bimodule
    gens: np.ndarray  # generating set X as columns
    basis: np.ndarray  # (r, dim N, dim A)

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def derivation(self, r: int) -> Derivation:
        return Derivation(self.bim, self.basis[r])

    def pair(self, d1: Derivation | np.ndarray, d2: Derivation | np.ndarray) -> complex:
        m1 = d1.matrix if isinstance(d1, Derivation) else d1
        m2 = d2.matrix if isinstance(d2, Derivation) else d2
        img1 = m1 @ self.gens
        img2 = m2 @ self.gens
        return complex(np.einsum("pq,px,qx->", self.bim.gram, img1, np.conj(img2)))

    def coefficients(self, d: Derivation | np.ndarray) -> np.ndarray:
        return np.array([self.pair(d, self.basis[r]) for r in range(self.rank)])

    def distance(self, d: Derivation | np.ndarray) -> float:
        """<., .>_X distance from d to the span."""
        m = d.matrix if isinstance(d, Derivation) else d
        coef = self.coefficients(m)
        rem = m - np.einsum("r,rpj->pj", coef, self.basis)
        val = self.pair(rem, rem).real
        return float(np.sqrt(max(val, 0.0)))

    def contains(self, d: Derivation | np.ndarray, tol: float = 1e-8) -> bool:
        return self.distance(d) <= tol

    def same_span(self, other: "DerivationSpace", tol: float = 1e-8) -> bool:
        if self.rank != other.rank:
            return False
        if self.rank == 0:
            return True
        a = max(self.distance(other.basis[r]) for r in range(other.rank))
        b = max(other.distance(self.basis[r]) for r in range(self.rank))
        return max(a, b) <= tol


def _space_from_vecs(bim: Bimodule, gens: np.ndarray, vecs: np.ndarray) -> DerivationSpace:
    """Orthonormalize vec'd derivations against the <., .>_X metric.

    <d1, d2>_X = sum_x <d1(x), d2(x)> has Gram matrix
    kron(bim.gram, (gens gens^H)^T) on row-major vecs, applied in factored form.
    """
    q, _ = gram_onb(vecs, (bim.gram, (gens @ gens.conj().T).T))
    n = bim.algebra.dim
    basis = q.T.reshape(-1, bim.dim, n)
    return DerivationSpace(bim, gens, basis)


def _default_gens(alg: FDAlgebra) -> np.ndarray:
    return np.eye(alg.dim, dtype=complex)


def derivation_space(
    alg: FDAlgebra,
    gens: np.ndarray | None = None,
    bim: Bimodule | None = None,
) -> DerivationSpace:
    """All derivations of A, solved from the Leibniz system on every basis pair.

    gens only fixes the inner product used for the returned orthonormal
    basis; the solved space is the same for any generating set. The system
    is solved block by block; a connected block of more than _DENSE_LIMIT
    unknowns raises MemoryError before any SVD, and inner_derivation_module
    is the route for such algebras.
    """
    bim = bim or Bimodule(alg)
    gens = _default_gens(alg) if gens is None else np.asarray(gens, dtype=complex)
    ker = nullspace(leibniz_system(bim), max_block=_DENSE_LIMIT)
    return _space_from_vecs(bim, gens, ker)


def inner_derivations(
    alg: FDAlgebra,
    gens: np.ndarray | None = None,
    bim: Bimodule | None = None,
) -> DerivationSpace:
    """Span of the commutator derivations [., xi], xi in N."""
    bim = bim or Bimodule(alg)
    gens = _default_gens(alg) if gens is None else np.asarray(gens, dtype=complex)
    return _space_from_vecs(bim, gens, _commutator_stack(bim))


def central_vectors(alg: FDAlgebra, sub_cols: np.ndarray, bim: Bimodule | None = None) -> np.ndarray:
    """GNS-orthonormal basis of {v in N : b . v = v . b for all b in the span}."""
    bim = bim or Bimodule(alg)
    sub_cols = np.asarray(sub_cols, dtype=complex)
    rows = [
        bim.act_left(sub_cols[:, j]) - bim.act_right(sub_cols[:, j])
        for j in range(sub_cols.shape[1])
    ]
    ker = nullspace(np.vstack(rows))
    q, _ = gram_onb(ker, bim.gram)
    return q


def relative_derivations(
    space: DerivationSpace, sub_cols: np.ndarray, check_subalgebra: bool = True
) -> DerivationSpace:
    """Subspace of derivations vanishing on a unital *-subalgebra."""
    alg = space.bim.algebra
    sub_cols = np.asarray(sub_cols, dtype=complex)
    if check_subalgebra:
        closure = subalgebra_generate(alg, list(sub_cols.T))
        if not span_equal(alg, closure, sub_cols):
            raise NotSubalgebra("span is not a unital *-subalgebra")
    if space.rank == 0:
        return space
    con = np.stack([space.basis[r] @ sub_cols for r in range(space.rank)])
    combos = nullspace(con.reshape(space.rank, -1).T)
    basis = np.einsum("rm,rpj->mpj", combos, space.basis)
    return DerivationSpace(space.bim, space.gens, basis)


# -- matrix-unit central projection -------------------------------------------

def central_projection_element(
    alg: FDAlgebra, units: list[np.ndarray], bim: Bimodule | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Element p = sum_i n_i^-1 sum_jk e^(i)_jk (x) (e^(i)_kj)^op and its
    left-multiplication operator on L^2(N).

    The units argument lists one (n_i, n_i, dim) array of coordinate vectors
    per block; they must satisfy the matrix-unit relations and sum to 1.
    Left multiplication by p is the orthogonal projection onto the vectors
    commuting with the span of the units.
    """
    bim = bim or Bimodule(alg)
    tol = 1e-8
    total = np.zeros(alg.dim, dtype=complex)
    for arr in units:
        n = arr.shape[0]
        if arr.shape[:2] != (n, n):
            raise UnitsInvalid("unit array must be square in its first two axes")
        for j in range(n):
            for k in range(n):
                if frob(alg.star_of(arr[j, k]) - arr[k, j]) > tol:
                    raise UnitsInvalid("star does not transpose the units")
        total += np.einsum("jji->i", arr)
    if frob(total - alg.unit) > tol:
        raise UnitsInvalid("units do not sum to the identity")
    for bi, a in enumerate(units):
        for bj, b in enumerate(units):
            for j in range(a.shape[0]):
                for k in range(a.shape[0]):
                    for l in range(b.shape[0]):
                        for m in range(b.shape[0]):
                            prod = alg.mul(a[j, k], b[l, m])
                            want = (
                                a[j, m]
                                if (bi == bj and k == l)
                                else np.zeros(alg.dim)
                            )
                            if frob(prod - want) > tol:
                                raise UnitsInvalid("matrix unit relations fail")
    p = np.zeros(bim.dim, dtype=complex)
    for arr in units:
        n = arr.shape[0]
        for j in range(n):
            for k in range(n):
                p += bim.embed(arr[j, k], arr[k, j]) / n
    return p, bim.left_elem(p)


# -- crossed-product context ---------------------------------------------------

class CrossedContext:
    """Derivation-level structure of a crossed product A x| G."""

    def __init__(self, cp: CrossedProduct):
        self.cp = cp
        self.big = Bimodule(cp.algebra)
        self.base = Bimodule(cp.base)
        self.group = cp.group
        k = self.group.order
        n_cp = cp.algebra.dim
        idx = np.arange(n_cp * n_cp)
        self._left_g = (idx // n_cp) % k
        self._right_g = idx % k
        nb = cp.base.dim
        ii, jj = np.meshgrid(np.arange(nb), np.arange(nb), indexing="ij")
        e = self.group.identity
        self._center_idx = ((ii * k + e) * n_cp + (jj * k + e)).reshape(-1)

    def coset_mask(self, g: int, h: int) -> np.ndarray:
        """0/1 selector of the sector L^2(N)(u_g (x) u_h^op)."""
        return ((self._left_g == g) & (self._right_g == h)).astype(float)

    def coset_projection(self, g: int, h: int) -> "CosetProjection":
        return CosetProjection(self, g, h, self.coset_mask(g, h))

    def embed_center(self, v: np.ndarray) -> np.ndarray:
        """A (x) A^op coordinates into the (e, e) sector of the big module."""
        out = np.zeros(self.big.dim, dtype=complex)
        out[self._center_idx] = v
        return out

    def extract_center(self, v: np.ndarray) -> np.ndarray:
        return v[self._center_idx].copy()

    @cached_property
    def _left_u_pairs(self) -> dict[tuple[int, int], np.ndarray]:
        return {}

    def left_u(self, a: int, b: int) -> np.ndarray:
        """Left multiplication by u_a (x) u_b^op, cached."""
        key = (a, b)
        cache = self._left_u_pairs
        if key not in cache:
            cache[key] = self.big.left_pair(self.cp.u(a), self.cp.u(b))
        return cache[key]

    def right_u(self, a: int, b: int) -> np.ndarray:
        return self.big.right_pair(self.cp.u(a), self.cp.u(b))

    def ad(self, g: int) -> np.ndarray:
        """Coordinate matrix of x -> u_g x u_g^-1 on the crossed product."""
        alg = self.cp.algebra
        return alg.left_mult(self.cp.u(g)) @ alg.right_mult(self.cp.u(self.group.inv(g)))

    def right_leg_twist(self, h: int) -> np.ndarray:
        """Matrix of 1 (x) alpha_h on A (x) A^op coordinates."""
        return np.kron(np.eye(self.cp.base.dim), self.cp.action.matrices[h])


@dataclass(eq=False)
class CosetProjection:
    ctx: CrossedContext
    g: int
    h: int
    mask: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.mask * v

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.mask)


# -- scaling conjugation (covariance) -----------------------------------------

def scaling_conjugation(ctx: CrossedContext, g: int, d: Derivation) -> Derivation:
    """The conjugated derivation x -> u_g* . d(u_g x u_g*) . u_g."""
    gi = ctx.group.inv(g)
    mat = ctx.left_u(gi, g) @ d.matrix @ ctx.ad(g)
    return Derivation(ctx.big, mat)


def average_scaling(ctx: CrossedContext, d: Derivation) -> Derivation:
    """Group average of the scaling conjugations; lands on the derivations
    vanishing on the copy of C[G]."""
    k = ctx.group.order
    acc = np.zeros_like(d.matrix)
    for g in range(k):
        acc += scaling_conjugation(ctx, g, d).matrix
    return Derivation(ctx.big, acc / k)


def covariance_defect(ctx: CrossedContext, d: Derivation) -> float:
    """Largest deviation of d from its scaling conjugates, relative to the
    size of d."""
    scale = max(1.0, frob(d.matrix))
    worst = 0.0
    for g in range(ctx.group.order):
        worst = max(worst, frob(scaling_conjugation(ctx, g, d).matrix - d.matrix))
    return worst / scale


def is_covariant(ctx: CrossedContext, d: Derivation, tol: float = 1e-8) -> bool:
    """Whether d is fixed by every scaling conjugation."""
    return covariance_defect(ctx, d) <= tol


# -- extension and restriction --------------------------------------------------

def extend_vanishing(ctx: CrossedContext, d: Derivation, h: int) -> Derivation:
    """Extension of a derivation of A to one of A x| G vanishing on C[G],
    landing in the sectors with right group index h.

    On b u_m the value is sum_g (u_{g^-1} (x) (u_{g m})^op) . d(alpha_g(b)),
    pushed right by u_e (x) u_h^op.
    """
    grp, cp = ctx.group, ctx.cp
    k = grp.order
    nb = cp.base.dim
    act = cp.action.matrices
    cols = np.zeros((ctx.big.dim, cp.algebra.dim), dtype=complex)
    push = ctx.right_u(grp.identity, h)
    for j in range(nb):
        ej = cp.base.basis(j)
        for m in range(k):
            acc = np.zeros(ctx.big.dim, dtype=complex)
            for g in range(k):
                v = d.matrix @ (act[g] @ ej)
                acc += ctx.left_u(grp.inv(g), grp.mul(g, m)) @ ctx.embed_center(v)
            cols[:, j * k + m] = push @ acc
    return Derivation(ctx.big, cols)


def restrict_component(ctx: CrossedContext, d: Derivation, g: int, h: int) -> Derivation:
    """Component D_{g,h} of a derivation of A x| G, as a derivation of A.

    Cuts d|_A to the (g, h) sector and translates it back to the (e, e)
    sector, i.e. to the standard A-bimodule.
    """
    grp, cp = ctx.group, ctx.cp
    mask = ctx.coset_mask(g, h)
    pull = ctx.right_u(grp.inv(g), grp.inv(h))
    nb = cp.base.dim
    cols = np.zeros((ctx.base.dim, nb), dtype=complex)
    for j in range(nb):
        xi = d.matrix @ cp.lift(cp.base.basis(j))
        cols[:, j] = ctx.extract_center(pull @ (mask * xi))
    return Derivation(ctx.base, cols)


def vanishing_space(ctx: CrossedContext, gens: np.ndarray | None = None) -> DerivationSpace:
    """Derivations of A x| G vanishing on the copy of C[G]."""
    cp = ctx.cp
    full = derivation_space(cp.algebra, gens=gens, bim=ctx.big)
    return relative_derivations(full, cp.embed_group, check_subalgebra=False)


@dataclass(eq=False)
class VanishingDecomposition:
    """Per-h components of derivations vanishing on C[G], with the
    reassembly residual of each basis element."""

    ctx: CrossedContext
    space: DerivationSpace
    components: list[list[Derivation]]  # components[r][h]
    residuals: np.ndarray

    @property
    def worst_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else 0.0


def decompose_vanishing(ctx: CrossedContext, space: DerivationSpace) -> VanishingDecomposition:
    """Split each basis derivation D into components D_h := D_{e,h} and verify
    D = sum_h (D_h)^h."""
    grp = ctx.group
    e = grp.identity
    comps: list[list[Derivation]] = []
    residuals = np.zeros(space.rank)
    for r in range(space.rank):
        d = space.derivation(r)
        per_h = [restrict_component(ctx, d, e, h) for h in range(grp.order)]
        comps.append(per_h)
        back = sum(
            extend_vanishing(ctx, per_h[h], h).matrix for h in range(grp.order)
        )
        residuals[r] = frob(back - d.matrix)
    return VanishingDecomposition(ctx, space, comps, residuals)
