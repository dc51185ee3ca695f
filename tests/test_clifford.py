from functools import reduce

import numpy as np
import pytest

from diracband import build_clifford, class_flags, clifford_contraction
from diracband.util import complete_orthonormal
from helpers import anticommutator, projector

TOL = 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_generators_anticommute_exactly(n):
    rep = build_clifford(n)
    assert len(rep.alphas) == n + 1
    assert rep.M == 2 ** ((n + 2) // 2)
    eye = np.eye(rep.M)
    for i in range(n + 1):
        for j in range(i, n + 1):
            ac = anticommutator(rep.alphas[i], rep.alphas[j])
            want = 2.0 * eye if i == j else np.zeros_like(eye)
            # integer/half-integer entries: identities hold without tolerance
            assert np.array_equal(ac, want)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_even_n_chirality_is_diagonal(n):
    # Omega = alpha_1 ... alpha_{n+1} is a unit phase times
    # diag(1, -1, 1, -1, ...): the chiral halves are the even and odd rows
    rep = build_clifford(n)
    omega = reduce(np.matmul, rep.alphas)
    omega = np.conj(omega[0, 0]) * omega
    assert np.array_equal(omega, np.diag([1.0, -1.0] * (rep.M // 2)))
    for a in rep.alphas:
        assert np.array_equal(omega @ a, a @ omega)


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8])
def test_generators_hermitian_with_exact_entries(n):
    rep = build_clifford(n)
    allowed = {0, 1, -1, 1j, -1j}
    for a in rep.alphas:
        assert np.array_equal(a, a.conj().T)
        assert set(np.unique(a)) <= allowed


def test_dimension_too_small_rejected():
    with pytest.raises(ValueError):
        build_clifford(1)


def test_contraction_squares_to_norm(rep3, rng):
    v = rng.standard_normal(3)
    D = clifford_contraction(rep3, v)
    assert np.allclose(D @ D, np.dot(v, v) * np.eye(rep3.M), atol=TOL)
    # complex vectors square to the bilinear (not Hermitian) square
    w = v + 1j * rng.standard_normal(3)
    Dw = clifford_contraction(rep3, w)
    assert np.allclose(Dw @ Dw, np.dot(w, w) * np.eye(rep3.M), atol=TOL)


def test_classification_of_generators_and_products(rep3):
    # the extra involution anticommutes with the first n generators
    assert class_flags(rep3.alphas[3], rep3) == (False, True)
    assert class_flags(np.eye(4, dtype=complex), rep3) == (True, False)
    # alpha_1 alpha_2 commutes with alpha_3 but not with alpha_1: neither
    prod = rep3.alphas[0] @ rep3.alphas[1]
    assert class_flags(prod, rep3) == (False, False)
    both = class_flags(np.zeros((4, 4), dtype=complex), rep3)
    assert both == (True, True)


@pytest.mark.parametrize("sign", [1, -1])
def test_projector_properties(rep3, rng, sign):
    e = rng.standard_normal(3)
    e /= np.linalg.norm(e)
    et = complete_orthonormal([e], 3)[1]
    P = projector(e, et, sign, rep3)
    assert np.allclose(P @ P, P, atol=TOL)
    assert np.allclose(P, P.conj().T, atol=TOL)
    assert abs(np.trace(P).real - rep3.M / 2) < TOL

    # pinching: the projector kills the symbol of any momentum in the
    # (e, et) plane between equal-sign projections
    x = 1.7 * e + 0.4 * et
    D = clifford_contraction(rep3, x + 0.9j * e)
    assert np.max(np.abs(P @ D @ P)) < TOL
    # and maps across: D P^+ = P^- D for plane momenta
    Q = projector(e, et, -sign, rep3)
    assert np.allclose(D @ P, Q @ D, atol=TOL)


def test_projector_rejects_bad_frames(rep3):
    e = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        projector(e, np.array([1.0, 0.0, 0.0]), 1, rep3)
    with pytest.raises(ValueError):
        projector(e, np.array([0.0, 2.0, 0.0]), 1, rep3)
    with pytest.raises(ValueError):
        projector(e, np.array([0.0, 1.0, 0.0]), 2, rep3)
