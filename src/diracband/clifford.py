"""Anticommuting Hermitian generators and the matrix classes they induce.

The operator algebra is built from n+1 Hermitian matrices that pairwise
anticommute and square to the identity.  For n space dimensions the matrices
act on C^M with M = 2^ceil((n+1)/2); they are produced by a fixed chain of
Pauli tensor products, so every build is reproducible and the entries are
exact (0, +/-1, +/-i).

A matrix L is classified by how it moves through the first n generators:
commuting with all of them ("s0"), anticommuting with all of them ("s1"),
or neither.  Potentials entering the fiber operators live in these classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


def _kron_chain(factors) -> np.ndarray:
    return reduce(np.kron, factors)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CliffordRep:
    """A concrete set of n+1 anticommuting Hermitian involutions on C^M."""

    n: int
    M: int
    alphas: tuple  # n+1 read-only (M, M) arrays

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.M, dtype=complex)


def build_clifford(n: int) -> CliffordRep:
    """Construct the generator set for n space dimensions.

    The chain is deterministic: pairs (Z^(j-1) x X x I..., Z^(j-1) x Y x I...)
    for j = 1..ceil(n/2) followed by Z^m, truncated to the first n+1
    matrices, with m = (n+2)//2 factors.  For odd n the pairs fill all n+1
    slots; for even n they give alpha_1..alpha_n and the mass involution is
    alpha_{n+1} = Z^m, so the chirality alpha_1 ... alpha_{n+1} is a phase
    times I x ... x I x Z, diagonal with alternating signs.
    """
    if n < 2:
        raise ValueError("need at least two space dimensions")
    m = (n + 2) // 2
    mats = []
    for j in range(1, (n + 3) // 2):
        pre = [PAULI_Z] * (j - 1)
        post = [_EYE2] * (m - j)
        mats.append(_kron_chain(pre + [PAULI_X] + post))
        mats.append(_kron_chain(pre + [PAULI_Y] + post))
    mats.append(_kron_chain([PAULI_Z] * m))
    alphas = tuple(_readonly(a) for a in mats[: n + 1])
    return CliffordRep(n=n, M=2 ** m, alphas=alphas)


def clifford_contraction(rep: CliffordRep, v: np.ndarray) -> np.ndarray:
    """Sum v_j alpha_j over the first n generators; v may be complex."""
    v = np.asarray(v)
    if v.shape != (rep.n,):
        raise ValueError(f"coefficient vector must have length {rep.n}")
    out = np.zeros((rep.M, rep.M), dtype=complex)
    for vj, aj in zip(v, rep.alphas[: rep.n]):
        out += vj * aj
    return out


def class_flags(L: np.ndarray, rep: CliffordRep, tol: float = 1e-12
                ) -> tuple[bool, bool]:
    """(commutes, anticommutes) flags against the first n generators."""
    L = np.asarray(L, dtype=complex)
    if L.shape != (rep.M, rep.M):
        raise ValueError(f"matrix must be {rep.M} x {rep.M}")
    commutes = all(
        np.max(np.abs(L @ a - a @ L)) <= tol for a in rep.alphas[: rep.n]
    )
    anticommutes = all(
        np.max(np.abs(L @ a + a @ L)) <= tol for a in rep.alphas[: rep.n]
    )
    return commutes, anticommutes
