"""Finite groups as multiplication tables, and the Character type of abelian
ones (constructions.characters finds them)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .errors import GroupInvalid, NotSubgroup


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
    def generators(self) -> list[int]:
        """A generating set, chosen greedily: each element, in order, that
        the subgroup generated by the earlier picks lacks. Empty for the
        trivial group."""
        picks, reached = [], {self.identity}
        for a in range(self.order):
            if a in reached:
                continue
            picks.append(a)
            # close under right multiplication by the picks: in a finite
            # group the products of the picks are the generated subgroup
            frontier = list(reached)
            while frontier:
                new = {int(self.table[x, p]) for x in frontier for p in picks} - reached
                reached |= new
                frontier = list(new)
        return picks

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
    # (a1, b1)(a2, b2) = (a1 a2, b1 b2), on axes a1, b1, a2, b2
    table = g.table[:, None, :, None] * m + h.table[None, :, None, :]
    lab = f"{g.label or 'G'}x{h.label or 'H'}"
    return FiniteGroup(n * m, table.reshape(n * m, n * m), label=lab)


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
    a, b = np.arange(8) % 4, np.arange(8) // 4
    # r^a s^b r^c s^d = r^(a + (-1)^b c) s^(b + d)
    table = (a[:, None] + (1 - 2 * b[:, None]) * a) % 4 + 4 * ((b[:, None] + b) % 2)
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
