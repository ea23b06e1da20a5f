"""Dense reference formulas for the bimodule layer, and the generated
subalgebra by whole-span rounds.

Every operator on L^2(N), N = A (x) A^op, is written out here as an
(n^2, n^2) np.kron matrix and applied one column, one group element at a
time, as the package did before it applied kron factor pairs to stacks.
The tests compare the package against these formulas; the package itself
never forms these matrices.
"""

from __future__ import annotations

import numpy as np

from steinlab._linalg import gram_onb, span_basis


def act_left(alg, x):
    """Left bimodule action of x in A: kron(left_mult(x), 1)."""
    return np.kron(alg.left_mult(x), np.eye(alg.dim))


def act_right(alg, y):
    """Right bimodule action of y in A: kron(1, right_mult(y))."""
    return np.kron(np.eye(alg.dim), alg.right_mult(y))


def left_pair(alg, x, y):
    """Left multiplication by the element x (x) y^op of N."""
    return np.kron(alg.left_mult(x), alg.right_mult(y))


def right_pair(alg, x, y):
    """Right multiplication by the element x (x) y^op of N."""
    return np.kron(alg.right_mult(x), alg.left_mult(y))


def gram(alg):
    """GNS Gram matrix of L^2(N)."""
    return np.kron(alg.gram, alg.gram)


def inner(alg, v, w) -> complex:
    """GNS inner product of L^2(N), linear in v."""
    return complex(np.conj(w) @ (gram(alg) @ v))


def norm(alg, v) -> float:
    return float(np.sqrt(max(inner(alg, v, v).real, 0.0)))


def leibniz_residual(alg, mat) -> float:
    """Largest GNS norm of d(b_i b_j) - b_i . d(b_j) - d(b_i) . b_j."""
    rights = [act_right(alg, alg.basis(j)) for j in range(alg.dim)]
    worst = 0.0
    for i in range(alg.dim):
        ei = alg.basis(i)
        li = act_left(alg, ei)
        di = mat @ ei
        for j in range(alg.dim):
            lhs = mat @ alg.mul(ei, alg.basis(j))
            rhs = li @ (mat @ alg.basis(j)) + rights[j] @ di
            worst = max(worst, norm(alg, lhs - rhs))
    return worst


def commutator_derivation(alg, xi):
    """Matrix of the inner derivation x -> x xi - xi x."""
    return np.column_stack(
        [(act_left(alg, alg.basis(j)) - act_right(alg, alg.basis(j))) @ xi for j in range(alg.dim)]
    )


def _center_index(cp):
    """Big-module indices of the (e, e) sector, in base kron order."""
    nb, k, n = cp.base.dim, cp.group.order, cp.algebra.dim
    e = cp.group.identity
    ii, jj = np.meshgrid(np.arange(nb), np.arange(nb), indexing="ij")
    return ((ii * k + e) * n + (jj * k + e)).reshape(-1)


def coset_mask(cp, g, h):
    """0/1 selector of the sector L^2(N)(u_g (x) u_h^op) on the big module."""
    n, k = cp.algebra.dim, cp.group.order
    idx = np.arange(n * n)
    return (((idx // n) % k == g) & (idx % k == h)).astype(float)


def extend_vanishing(cp, mat, h):
    """On b u_m: sum_g (u_{g^-1} (x) (u_{g m})^op) . d(alpha_g(b)), pushed
    right by u_e (x) u_h^op."""
    grp = cp.group
    calg = cp.algebra
    k, nb = grp.order, cp.base.dim
    centre = _center_index(cp)
    cols = np.zeros((calg.dim**2, calg.dim), dtype=complex)
    push = right_pair(calg, cp.u(grp.identity), cp.u(h))
    for j in range(nb):
        ej = cp.base.basis(j)
        for m in range(k):
            acc = np.zeros(calg.dim**2, dtype=complex)
            for g in range(k):
                v = np.zeros(calg.dim**2, dtype=complex)
                v[centre] = mat @ (cp.action.matrices[g] @ ej)
                acc += left_pair(calg, cp.u(grp.inv(g)), cp.u(grp.mul(g, m))) @ v
            cols[:, j * k + m] = push @ acc
    return cols


def restrict_component(cp, mat, g, h):
    """d|_A cut to the (g, h) sector and pulled back to the (e, e) sector."""
    grp = cp.group
    mask = coset_mask(cp, g, h)
    pull = right_pair(cp.algebra, cp.u(grp.inv(g)), cp.u(grp.inv(h)))
    centre = _center_index(cp)
    cols = np.zeros((cp.base.dim**2, cp.base.dim), dtype=complex)
    for j in range(cp.base.dim):
        xi = mat @ cp.lift(cp.base.basis(j))
        cols[:, j] = (pull @ (mask * xi))[centre]
    return cols


def scaling_conjugation(cp, g, mat):
    """x -> u_g* . d(u_g x u_g*) . u_g."""
    grp = cp.group
    return left_pair(cp.algebra, cp.u(grp.inv(g)), cp.u(g)) @ mat @ cp.ad(g)


def covariance_defect(cp, mat) -> float:
    """Largest deviation of mat from its scaling conjugates by the group's
    generators, as the package takes it, relative to max(1, its norm)."""
    scale = max(1.0, np.linalg.norm(mat))
    return max(
        (np.linalg.norm(scaling_conjugation(cp, g, mat) - mat) for g in cp.group.generators),
        default=0.0,
    ) / scale


# -- spans of derivations, in the <., .>_X pairing ------------------------------

def pair(alg, m1, m2) -> complex:
    """<d1, d2>_X = sum_j <d1(b_j), d2(b_j)> for derivation matrices of
    alg, X its basis; linear in d1."""
    return complex(np.trace(m2.conj().T @ gram(alg) @ m1))


def distance(space, mat) -> float:
    """<., .>_X distance from a derivation matrix to the span of an
    orthonormal derivation space."""
    alg, basis = space.algebra, space.columns(slice(None))
    coef = np.array([pair(alg, mat, b) for b in basis])
    rem = mat - np.einsum("r,rpj->pj", coef, basis)
    return float(np.sqrt(max(pair(alg, rem, rem).real, 0.0)))


# -- modules from raw spans --------------------------------------------------------

def module_from_span(algebra, ncoords, span, right_ops, trace_vectors):
    """The ModuleSubspace spanned by the columns of span, (ncoords * dim A^2,
    r) in raw coordinates with copy c at rows c * dim A^2 onwards: whitened,
    laid out as a module's basis is and orthonormalized by block
    (span_basis)."""
    from steinlab.derivations import whiten
    from steinlab.vndim import ModuleSubspace

    nn, r = algebra.dim**2, np.shape(span)[1]
    w = whiten(algebra, np.reshape(span, (ncoords, nn, r)))
    basis = span_basis(w.transpose(1, 0, 2).reshape(nn * ncoords, r))
    return ModuleSubspace(algebra, ncoords, basis, right_ops, trace_vectors)


def module_span(sub):
    """The basis of a ModuleSubspace in module_from_span's raw layout,
    mapped back by the inverse coordinates of its legs."""
    from steinlab.derivations import apply_pair

    (nk, r), alg = sub.basis.shape, sub.algebra
    (_, inv_a), (_, inv_b) = sub.legs or 2 * ((alg.onb_factor, alg.onb_inverse),)
    q = sub.basis.vectors().T.reshape(alg.dim**2, sub.ncoords, r).transpose(1, 0, 2)
    return apply_pair((inv_a, inv_b), q).reshape(nk, r)


# -- the inner-derivation module as one raw span ----------------------------------

def inner_span(alg, gens):
    """The raw span, shape (k n^2, n^2), of the columns phi_X([., xi]) for
    xi in the rotated basis whose spectral blocks inner_derivation_module
    builds directly."""
    from steinlab.derivations import commutator_span
    from steinlab.vndim import _legs, _right_ops, _with_stars

    gens = np.asarray(gens, dtype=complex)
    k, n = gens.shape[1], alg.dim
    (_, inv_a, _), (_, inv_b, _) = _legs(alg, _right_ops(alg, _with_stars(alg, gens)))
    return commutator_span(alg, gens, np.kron(inv_a, inv_b)).reshape(k * n * n, n * n)


def inner_module(alg, gens):
    """phi_X of the commutator derivations as a ModuleSubspace formed from
    its raw span (inner_span)."""
    from steinlab.vndim import _right_ops, _with_stars

    gens = np.asarray(gens, dtype=complex)
    ops = _right_ops(alg, _with_stars(alg, gens))
    unit = np.kron(alg.unit, alg.unit)[:, None]
    return module_from_span(alg, gens.shape[1], inner_span(alg, gens), ops, unit)


# -- the generated subalgebra by whole-span rounds --------------------------------

def subalgebra_generate(alg, gens):
    """GNS-orthonormal basis (columns) of the unital *-subalgebra generated
    by gens, as the package grew it before algebra.close_span: each round
    orthonormalizes (gram_onb) the span together with every letter (gens
    and their stars) times the whole span, until the rank stops growing."""
    letters = [np.asarray(g, dtype=complex) for g in gens]
    letters += [alg.star_of(g) for g in letters]
    lefts = [alg.left_mult(x) for x in letters]
    cur = gram_onb(np.column_stack([alg.unit] + letters), alg.onb_factor)
    while cur.shape[1] < alg.dim:
        grown = gram_onb(np.hstack([cur] + [m @ cur for m in lefts]), alg.onb_factor)
        if grown.shape[1] == cur.shape[1]:
            break
        cur = grown
    return cur
