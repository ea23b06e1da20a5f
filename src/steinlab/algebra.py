"""Finite-dimensional tracial *-algebras given by structure constants.

An algebra is a basis b_0 .. b_{n-1} together with
    mult[i, j, k]  such that  b_i b_j = sum_k mult[i, j, k] b_k,
    star[:, i]     the coordinates of b_i*  (so v* = star @ conj(v)),
    unit           the coordinates of 1,
    trace          the functional tau, tau(v) = trace @ v (no conjugation).

The GNS inner product is <x, y> = tau(y* x), linear in the first slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import frob, onb_transform
from .errors import ShapeMismatch


def _carr(a) -> np.ndarray:
    out = np.asarray(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FDAlgebra:
    dim: int
    mult: np.ndarray
    star: np.ndarray
    unit: np.ndarray
    trace: np.ndarray
    label: str = ""

    def __post_init__(self):
        n = self.dim
        object.__setattr__(self, "mult", _carr(self.mult))
        object.__setattr__(self, "star", _carr(self.star))
        object.__setattr__(self, "unit", _carr(self.unit))
        object.__setattr__(self, "trace", _carr(self.trace))
        shapes = {
            "mult": ((n, n, n), self.mult.shape),
            "star": ((n, n), self.star.shape),
            "unit": ((n,), self.unit.shape),
            "trace": ((n,), self.trace.shape),
        }
        for name, (want, got) in shapes.items():
            if want != got:
                raise ShapeMismatch(f"{self.label or 'algebra'}: {name} has shape {got}, expected {want}")

    # -- basic operations ---------------------------------------------------

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.mult)

    def star_of(self, x: np.ndarray) -> np.ndarray:
        return self.star @ np.conj(x)

    def tr(self, x: np.ndarray) -> complex:
        return complex(self.trace @ x)

    def inner(self, x: np.ndarray, y: np.ndarray) -> complex:
        """GNS inner product tau(y* x)."""
        return complex(np.conj(y) @ (self.gram @ x))

    def norm(self, x: np.ndarray) -> float:
        val = self.inner(x, x).real
        return float(np.sqrt(max(val, 0.0)))

    def basis(self, i: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=complex)
        e[i] = 1.0
        return e

    # -- multiplication operators -------------------------------------------

    def left_mult(self, m: np.ndarray) -> np.ndarray:
        """Matrix of x -> m x."""
        return np.tensordot(m, self.mult, axes=(0, 0)).T

    def right_mult(self, m: np.ndarray) -> np.ndarray:
        """Matrix of x -> x m."""
        return np.tensordot(self.mult, m, axes=(1, 0)).T

    @cached_property
    def gram(self) -> np.ndarray:
        """gram[i, j] = tau(b_i* b_j); Hermitian positive definite when faithful."""
        g = np.einsum("ai,ajk,k->ij", self.star, self.mult, self.trace)
        return 0.5 * (g + g.conj().T)

    @cached_property
    def onb_factor(self) -> np.ndarray:
        """Upper-triangular T with gram = T^H T: x -> T x maps coordinates
        to GNS-orthonormal ones; diagonal when the basis is GNS-orthogonal."""
        return onb_transform(self.gram)[0]

    @cached_property
    def onb_inverse(self) -> np.ndarray:
        """T^-1, from GNS-orthonormal coordinates back to basis ones."""
        return np.linalg.inv(self.onb_factor)


@dataclass
class ValidationReport:
    label: str
    tol: float
    residuals: dict[str, float]
    gram_min_eig: float
    passed: bool

    def worst(self) -> tuple[str, float]:
        name = max(self.residuals, key=self.residuals.get)
        return name, self.residuals[name]

    def faults(self) -> str:
        """The failed conditions, "; "-joined; empty when none failed."""
        axiom, worst = self.worst()
        out = []
        if not worst <= self.tol:
            out.append(f"worst axiom: {axiom}")
        if not self.gram_min_eig > self.tol:
            out.append(f"trace not faithful: minimum Gram eigenvalue {self.gram_min_eig:.3e}")
        return "; ".join(out)


def validate(alg: FDAlgebra, tol: float = 1e-8) -> ValidationReport:
    """Check the axioms numerically: associativity, unit, involution,
    tracial state, and faithfulness (Gram positive definite)."""
    c, s, u, t = alg.mult, alg.star, alg.unit, alg.trace
    n = alg.dim
    res: dict[str, float] = {}

    left = np.einsum("ijp,pkq->ijkq", c, c)
    right = np.einsum("jkp,ipq->ijkq", c, c)
    res["associativity"] = frob(left - right)

    eye = np.eye(n)
    res["unit"] = max(
        frob(np.einsum("a,aik->ik", u, c) - eye),
        frob(np.einsum("a,iak->ik", u, c) - eye),
    )

    # (ab)* = b* a* on basis pairs, and ** = id
    lhs = np.einsum("kl,ijl->ijk", s, np.conj(c))
    rhs = np.einsum("aj,bi,abk->ijk", s, s, c)
    res["involution"] = frob(lhs - rhs)
    res["involutive"] = frob(s @ np.conj(s) - eye)

    res["trace_unit"] = abs(complex(t @ u) - 1.0)
    pairs = np.einsum("ijk,k->ij", c, t)
    res["trace_cyclic"] = frob(pairs - pairs.T)
    # tau(x*) = conj(tau(x)) keeps the state hermitian
    res["trace_hermitian"] = frob(np.conj(s.T @ t) - t)

    g = np.einsum("ai,ajk,k->ij", s, c, t)
    res["gram_hermitian"] = frob(g - g.conj().T)
    mineig = float(np.linalg.eigvalsh(0.5 * (g + g.conj().T)).min())

    passed = all(v <= tol for v in res.values()) and mineig > tol
    return ValidationReport(alg.label, tol, res, mineig, passed)
