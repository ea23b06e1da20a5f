"""Naive reference implementations used as independent oracles.

Everything in this module is written with explicit loops, hand-assembled
linear systems, and plain numpy decompositions with fixed thresholds. It
shares no code with the package under test, so agreement between the two
is meaningful evidence rather than a tautology.

The headline quantity is derivation_dimension: the module dimension of
the derivation space of a finite-dimensional tracial *-algebra inside
L^2(A (x) A^op)^dim(A), computed from first principles:

  1. assemble the Leibniz constraint system row by row and take its
     kernel by SVD,
  2. evaluate a kernel basis on the algebra basis to get a spanning set
     of the image submodule,
  3. close the span under the right action of A (x) A^op,
  4. Gram-Schmidt against the GNS inner product and sum the squared
     projections of the canonical trace vectors.
"""

from __future__ import annotations

import numpy as np

CUT = 1e-8


class TableAlgebra:
    """Structure constants c[i,j,:] = coordinates of b_i b_j, a star
    matrix s (x* = s @ conj(x)), a unit vector, and a trace functional."""

    def __init__(self, c, s, u, t):
        self.c = np.asarray(c, dtype=complex)
        self.s = np.asarray(s, dtype=complex)
        self.u = np.asarray(u, dtype=complex)
        self.t = np.asarray(t, dtype=complex)
        self.n = self.c.shape[0]

    def mul(self, x, y):
        out = np.zeros(self.n, dtype=complex)
        for i in range(self.n):
            if x[i] == 0:
                continue
            for j in range(self.n):
                if y[j] == 0:
                    continue
                out = out + x[i] * y[j] * self.c[i, j]
        return out

    def star(self, x):
        return self.s @ np.conj(x)

    def tr(self, x):
        return complex(self.t @ x)

    def basis(self, i):
        e = np.zeros(self.n, dtype=complex)
        e[i] = 1.0
        return e

    def gram(self):
        g = np.zeros((self.n, self.n), dtype=complex)
        for i in range(self.n):
            bi = self.star(self.basis(i))
            for j in range(self.n):
                g[i, j] = self.tr(self.mul(bi, self.basis(j)))
        return g

    def check(self, tol=1e-10):
        """Sanity: associativity, unit, star antihomomorphism, trace."""
        worst = 0.0
        for i in range(self.n):
            bi = self.basis(i)
            worst = max(
                worst,
                float(np.max(np.abs(self.mul(self.u, bi) - bi))),
                float(np.max(np.abs(self.mul(bi, self.u) - bi))),
            )
            for j in range(self.n):
                bj = self.basis(j)
                ss = self.star(self.mul(bi, bj)) - self.mul(
                    self.star(bj), self.star(bi)
                )
                worst = max(worst, float(np.max(np.abs(ss))))
                worst = max(
                    worst,
                    abs(self.tr(self.mul(bi, bj)) - self.tr(self.mul(bj, bi))),
                )
                for k in range(self.n):
                    bk = self.basis(k)
                    a1 = self.mul(self.mul(bi, bj), bk)
                    a2 = self.mul(bi, self.mul(bj, bk))
                    worst = max(worst, float(np.max(np.abs(a1 - a2))))
        assert worst <= tol, f"oracle algebra tables are inconsistent: {worst}"
        return worst


# -- hand-built examples -------------------------------------------------------

def diagonal_algebra(weights) -> TableAlgebra:
    """C^m with minimal projections as basis and the given trace weights."""
    m = len(weights)
    c = np.zeros((m, m, m))
    for i in range(m):
        c[i, i, i] = 1.0
    return TableAlgebra(c, np.eye(m), np.ones(m), np.asarray(weights, dtype=float))


def matrix_algebra(n: int) -> TableAlgebra:
    """M_n in matrix units e_{ab} at flat index a*n + b, normalized trace."""
    d = n * n
    c = np.zeros((d, d, d))
    s = np.zeros((d, d))
    u = np.zeros(d)
    t = np.zeros(d)
    for a in range(n):
        u[a * n + a] = 1.0
        t[a * n + a] = 1.0 / n
        for b in range(n):
            s[b * n + a, a * n + b] = 1.0  # (e_ab)* = e_ba
            for cc in range(n):
                for dd in range(n):
                    if b == cc:
                        c[a * n + b, cc * n + dd, a * n + dd] = 1.0
    return TableAlgebra(c, s, u, t)


def cyclic_table(k: int):
    table = [[(g + h) % k for h in range(k)] for g in range(k)]
    inv = [(-g) % k for g in range(k)]
    return table, inv


def naive_crossed(base: TableAlgebra, table, inv, act) -> TableAlgebra:
    """Crossed product with basis b_i u_g at flat index i*k + g, where
    act[g] is the matrix of the g-th automorphism on coordinates.

      (b_i u_g)(b_j u_h) = b_i alpha_g(b_j) u_{gh}
      (b_i u_g)* = alpha_{g^-1}(b_i^*) u_{g^-1}
      tau(b_i u_g) = [g = e] tau(b_i)
    """
    k = len(table)
    n = base.n
    nn = n * k
    c = np.zeros((nn, nn, nn), dtype=complex)
    s = np.zeros((nn, nn), dtype=complex)
    u = np.zeros(nn, dtype=complex)
    t = np.zeros(nn, dtype=complex)
    for i in range(n):
        for g in range(k):
            row = i * k + g
            for j in range(n):
                for h in range(k):
                    prod = base.mul(base.basis(i), act[g] @ base.basis(j))
                    gh = table[g][h]
                    for m in range(n):
                        c[row, j * k + h, m * k + gh] += prod[m]
            ginv = inv[g]
            starred = act[ginv] @ base.star(base.basis(i))
            for m in range(n):
                s[m * k + ginv, row] += starred[m]
            if g == 0:
                t[row] = base.t[i]
    for m in range(n):
        u[m * k] = base.u[m]
    out = TableAlgebra(c, s, u, t)
    out.check()
    return out


def swap_c2() -> TableAlgebra:
    base = diagonal_algebra([0.5, 0.5])
    table, inv = cyclic_table(2)
    act = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
    return naive_crossed(base, table, inv, act)


def sign_m2() -> TableAlgebra:
    """M_2 crossed by Z/2 acting as conjugation by diag(1, -1):
    e_ab -> (-1)^(a+b) e_ab."""
    base = matrix_algebra(2)
    table, inv = cyclic_table(2)
    sign = np.diag([(-1.0) ** (a + b) for a in range(2) for b in range(2)])
    return naive_crossed(base, table, inv, [np.eye(4), sign])


def group_algebra_cyclic(k: int) -> TableAlgebra:
    base = diagonal_algebra([1.0])
    table, inv = cyclic_table(k)
    return naive_crossed(base, table, inv, [np.eye(1)] * k)


def cz2_trivial_z2() -> TableAlgebra:
    base = group_algebra_cyclic(2)
    table, inv = cyclic_table(2)
    return naive_crossed(base, table, inv, [np.eye(2), np.eye(2)])


# -- the dimension computation -------------------------------------------------

def _gs(cols, w, tol=CUT):
    """Classic two-pass Gram-Schmidt against the inner product w."""
    kept = []
    for v in cols:
        v = v.astype(complex)
        for _ in range(2):
            for q in kept:
                v = v - q * complex(np.conj(q) @ (w @ v))
        nrm = float(np.sqrt(abs(np.conj(v) @ (w @ v))))
        if nrm > tol:
            kept.append(v / nrm)
    if not kept:
        return np.zeros((w.shape[0], 0), dtype=complex)
    return np.column_stack(kept)


def derivation_dimension(alg: TableAlgebra, return_rank: bool = False):
    n = alg.n
    nn = n * n
    c = alg.c

    # the two bimodule actions entering Leibniz, and the commuting right
    # module action, all as nn x nn matrices on coordinates of x (x) y^op
    # at flat index x*n + y
    def left_leg_left(a):
        op = np.zeros((nn, nn), dtype=complex)
        for x in range(n):
            for y in range(n):
                for m in range(n):
                    op[m * n + y, x * n + y] += c[a, x, m]
        return op

    def right_leg_right(b):
        op = np.zeros((nn, nn), dtype=complex)
        for x in range(n):
            for y in range(n):
                for m in range(n):
                    op[x * n + m, x * n + y] += c[y, b, m]
        return op

    def module_right(p, q):
        # (x (x) y^op) (p (x) q^op) = xp (x) (qy)^op
        op = np.zeros((nn, nn), dtype=complex)
        for x in range(n):
            for y in range(n):
                for m in range(n):
                    for m2 in range(n):
                        op[m * n + m2, x * n + y] += c[x, p, m] * c[q, y, m2]
        return op

    lops = [left_leg_left(a) for a in range(n)]
    rops = [right_leg_right(b) for b in range(n)]

    # Leibniz system: for every basis pair (i, j),
    #   sum_k c[i,j,k] D_k - L_i D_j - R_j D_i = 0
    rows = []
    for i in range(n):
        for j in range(n):
            block = np.zeros((nn, n * nn), dtype=complex)
            for k in range(n):
                if c[i, j, k] != 0:
                    block[:, k * nn : (k + 1) * nn] += c[i, j, k] * np.eye(nn)
            block[:, j * nn : (j + 1) * nn] -= lops[i]
            block[:, i * nn : (i + 1) * nn] -= rops[j]
            rows.append(block)
    system = np.vstack(rows)
    # n^4 rows and n^3 columns: the thin vh is square, so its rows past the
    # rank span the kernel
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    scale = svals[0] if svals.size else 1.0
    rank = int(np.sum(svals > CUT * max(scale, 1.0)))
    kernel = vh[rank:].conj().T  # columns: flattened derivations

    # spanning set of the image submodule in L^2(N)^n, N = A (x) A^op
    ga = alg.gram()
    gn = np.zeros((nn, nn), dtype=complex)
    for i in range(n):
        for i2 in range(n):
            for j in range(n):
                for j2 in range(n):
                    gn[i * n + i2, j * n + j2] = ga[i, j] * ga[i2, j2]
    wbig = np.kron(np.eye(n), gn)

    span = [kernel[:, r] for r in range(kernel.shape[1])]
    # (the flattening above stacks D_0 .. D_{n-1}, which is exactly the
    # tuple of values on the basis, so each kernel column is already the
    # image vector)
    ops = [module_right(p, q) for p in range(n) for q in range(n)]
    q = _gs(span, wbig)
    for _ in range(n * n):
        fresh = []
        for op in ops:
            big = np.kron(np.eye(n), op)
            img = big @ q
            resid = img - q @ (q.conj().T @ (wbig @ img))
            for col in range(resid.shape[1]):
                if np.sqrt(abs(np.conj(resid[:, col]) @ (wbig @ resid[:, col]))) > CUT:
                    fresh.append(img[:, col])
        if not fresh:
            break
        q = _gs([q[:, i] for i in range(q.shape[1])] + fresh, wbig)

    # unit of N in each component
    un = np.zeros(nn, dtype=complex)
    for i in range(n):
        for i2 in range(n):
            un[i * n + i2] = alg.u[i] * alg.u[i2]
    total = 0.0
    for comp in range(n):
        z = np.zeros(n * nn, dtype=complex)
        z[comp * nn : (comp + 1) * nn] = un
        coef = q.conj().T @ (wbig @ z)
        total += float(np.sum(np.abs(coef) ** 2))
    if return_rank:
        return total, kernel.shape[1]
    return total
