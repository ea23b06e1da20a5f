"""Finite groups as multiplication tables, plus characters of abelian ones."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .errors import GroupInvalid, NotAbelian, NotSubgroup


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Group on elements 0..order-1 with table[a, b] = a*b."""

    order: int
    table: np.ndarray
    label: str = ""

    def __post_init__(self):
        t = np.asarray(self.table, dtype=int)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        n = self.order
        if n < 1:
            raise GroupInvalid(f"group order {n} is below 1")
        if t.shape != (n, n):
            raise GroupInvalid(f"table shape {t.shape}, expected {(n, n)}")
        if t.min() < 0 or t.max() >= n:
            raise GroupInvalid("table entries out of range")
        # each row and column must be a permutation (cancellation)
        for a in range(n):
            if len(set(t[a])) != n or len(set(t[:, a])) != n:
                raise GroupInvalid("table rows/columns are not permutations")
        if not (t[t] == t[:, t]).all():  # t[t[a,b], c] == t[a, t[b,c]]
            raise GroupInvalid("table is not associative")
        _ = self.identity  # raises if missing

    @cached_property
    def identity(self) -> int:
        for e in range(self.order):
            if (self.table[e] == np.arange(self.order)).all() and (
                self.table[:, e] == np.arange(self.order)
            ).all():
                return e
        raise GroupInvalid("no identity element")

    @cached_property
    def inverse(self) -> np.ndarray:
        inv = np.full(self.order, -1, dtype=int)
        e = self.identity
        for a in range(self.order):
            hits = np.where(self.table[a] == e)[0]
            if hits.size != 1:
                raise GroupInvalid(f"element {a} has no unique inverse")
            inv[a] = hits[0]
        return inv

    @cached_property
    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def __len__(self) -> int:
        return self.order


def cyclic(n: int) -> FiniteGroup:
    a = np.arange(n)
    return FiniteGroup(n, (a[:, None] + a[None, :]) % n, label=f"Z/{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Product group on pairs, indexed a*|H| + b."""
    n, m = g.order, h.order
    table = np.zeros((n * m, n * m), dtype=int)
    for a1 in range(n):
        for b1 in range(m):
            for a2 in range(n):
                for b2 in range(m):
                    table[a1 * m + b1, a2 * m + b2] = g.mul(a1, a2) * m + h.mul(b1, b2)
    lab = f"{g.label or 'G'}x{h.label or 'H'}"
    return FiniteGroup(n * m, table, label=lab)


def symmetric_3() -> FiniteGroup:
    elems = list(permutations(range(3)))
    idx = {p: i for i, p in enumerate(elems)}
    table = np.zeros((6, 6), dtype=int)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            comp = tuple(p[q[k]] for k in range(3))  # p after q
            table[i, j] = idx[comp]
    return FiniteGroup(6, table, label="S_3")


def dihedral_4() -> FiniteGroup:
    """Symmetries of the square, r^a s^b with s r s = r^-1; index a + 4b."""
    table = np.zeros((8, 8), dtype=int)
    for a in range(4):
        for b in range(2):
            for c in range(4):
                for d in range(2):
                    aa = (a + (c if b == 0 else -c)) % 4
                    table[a + 4 * b, c + 4 * d] = aa + 4 * ((b + d) % 2)
    return FiniteGroup(8, table, label="D_4")


def subgroup(g: FiniteGroup, elements: list[int]) -> tuple[FiniteGroup, list[int]]:
    """Subgroup on the given elements, with the embedding list back into g.

    Raises NotSubgroup unless the set contains the identity and is closed
    under products and inverses.
    """
    elems = sorted(set(int(x) for x in elements))
    if g.identity not in elems:
        raise NotSubgroup("identity not in the set")
    pos = {x: i for i, x in enumerate(elems)}
    k = len(elems)
    table = np.zeros((k, k), dtype=int)
    for a in elems:
        if g.inv(a) not in pos:
            raise NotSubgroup(f"inverse of {a} missing")
        for b in elems:
            c = g.mul(a, b)
            if c not in pos:
                raise NotSubgroup(f"product {a}*{b} leaves the set")
            table[pos[a], pos[b]] = pos[c]
    lab = f"{g.label or 'G'}|{{{','.join(map(str, elems))}}}"
    return FiniteGroup(k, table, label=lab), elems


@dataclass(frozen=True, eq=False)
class Character:
    """One-dimensional representation g -> values[g] on the unit circle."""

    group: FiniteGroup
    values: np.ndarray

    def __call__(self, g: int) -> complex:
        return complex(self.values[g])


def regular_representation(g: FiniteGroup) -> np.ndarray:
    """Permutation matrices lam[g] with lam[g] delta_h = delta_{gh}."""
    n = g.order
    lam = np.zeros((n, n, n), dtype=complex)
    for a in range(n):
        for h in range(n):
            lam[a, g.mul(a, h), h] = 1.0
    return lam


def characters(g: FiniteGroup, rng: np.random.Generator | None = None) -> list[Character]:
    """All characters of an abelian group.

    Simultaneously diagonalizes the regular representation: a random
    Hermitian combination of the lam[g] has the character vectors as
    eigenvectors; collisions trigger a retry with fresh coefficients.
    """
    if not g.is_abelian:
        raise NotAbelian(f"{g.label or 'group'} is not abelian")
    rng = rng or np.random.default_rng(0)
    n = g.order
    lam = regular_representation(g)
    for _ in range(20):
        coef = rng.normal(size=n) + 1j * rng.normal(size=n)
        coef = coef + np.conj(coef[g.inverse])  # makes the combination Hermitian
        m = np.einsum("g,gij->ij", coef, lam)
        vals, vecs = np.linalg.eigh(m)
        if n > 1 and np.min(np.diff(np.sort(vals))) < 1e-6 * max(1.0, np.max(np.abs(vals))):
            continue
        chars = []
        for k in range(n):
            v = vecs[:, k]
            chi = np.array([np.vdot(v, lam[a] @ v) for a in range(n)])
            chi = chi / chi[g.identity]
            chars.append(chi)
        # deterministic order, independent of the random coefficients
        chars.sort(key=lambda c: tuple((np.round(c, 8) + 0.0).view(float)))
        return [Character(g, c) for c in chars]
    raise NotAbelian("failed to separate characters after 20 retries")
