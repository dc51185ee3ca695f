import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracband import lattice as lattice_module
from diracband import (Lattice, SphereMeasure, check_gamma, enumerate_points,
                       find_gamma, reciprocal_basis)
from diracband.fiber import FiberPoint, ModeSet, annulus_mask, axial_transverse
from helpers import brute_force_gamma, distinct_rows_oracle, pipeline_measure


def test_reciprocal_pairing_is_kronecker(rng):
    basis = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    rec = reciprocal_basis(basis)
    assert np.allclose(basis @ rec.T, np.eye(3), atol=1e-12)


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        Lattice(np.array([[1.0, 0.0], [2.0, 0.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_integer_pairing_orthogonality_is_exact(seed):
    # (sum m_j E_j, sum m'_l E*_l) = m . m' regardless of the basis entries,
    # so dual-orthogonality decided on coefficients never misfires
    rng = np.random.default_rng(seed)
    basis = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    lat = Lattice(basis)
    m = rng.integers(-5, 6, size=3)
    mp = rng.integers(-5, 6, size=3)
    pairing = float(np.dot(lat.point(m), lat.dual_point(mp)))
    assert abs(pairing - int(np.dot(m, mp))) < 1e-9 * (1 + abs(pairing))


def test_enumeration_complete_and_sorted(lat3):
    coeffs, vecs = enumerate_points(lat3.basis, 2.5)
    norms = np.linalg.norm(vecs, axis=1)
    assert np.all(norms <= 2.5)
    assert np.all(np.diff(norms) >= -1e-12)
    # brute force count: integer boxes
    want = sum(1 for a in range(-3, 4) for b in range(-3, 4)
               for c in range(-3, 4)
               if (a, b, c) != (0, 0, 0) and a * a + b * b + c * c <= 6.25)
    assert len(coeffs) == want
    # no duplicates
    assert len({tuple(r) for r in coeffs}) == len(coeffs)


def test_shortest_lengths(lat3):
    assert lat3.shortest_length() == 1.0
    assert lat3.shortest_length(dual=True) == 1.0
    skew = Lattice(np.array([[2.0, 0.0], [0.5, 1.0]]))
    assert abs(skew.shortest_length() - math.hypot(0.5, 1.0)) < 1e-12


def test_sphere_measure_validation_and_slab():
    with pytest.raises(ValueError):
        SphereMeasure(points=np.array([[1.0, 1.0, 0.0]]), weights=np.ones(1))
    with pytest.raises(ValueError):
        SphereMeasure(points=np.array([[1.0, 0.0, 0.0]]), weights=-np.ones(1))
    mu = SphereMeasure(points=np.eye(3), weights=np.array([1.0, 2.0, 4.0]))
    assert mu.total_mass == 7.0

    def slab_mass(gamma, h):
        return check_gamma(Lattice.cubic(3), gamma, mu, h, R0=3.0,
                           orth_floor=1.0, slab_cap=1.0)[1]["slab_mass"]

    # slab around the plane orthogonal to gamma=(1,0,0): only atoms with
    # |(p, gamma)| <= h survive
    assert slab_mass((1, 0, 0), 0.1) == 6.0
    assert slab_mass((1, 0, 0), 1.0) == 7.0
    assert slab_mass((2, 0, 0), 1.0) == 6.0


def test_check_gamma_single_atom_cases(lat3):
    mu = SphereMeasure(points=np.array([[1.0, 0.0, 0.0]]), weights=np.ones(1))
    ok, cert = check_gamma(lat3, (1, 0, 0), mu, h=0.1, R0=2.0,
                           orth_floor=0.5, slab_cap=1.0)
    # atom excluded from the slab since |(e', gamma)| = 1 > 0.1
    assert cert["slab_mass"] == 0.0 and cert["slab_ratio"] == 0.0
    # orthogonal dual vectors include (0,1,0): min_orth_raw = 1
    assert cert["min_orth_raw"] == 1.0
    assert ok  # 0.5 * 2^(1/2) < 1

    ok2, cert2 = check_gamma(lat3, (1, 0, 0), mu, h=0.1, R0=2.0,
                             orth_floor=0.8, slab_cap=1.0)
    assert not ok2  # 0.8 * sqrt(2) > 1 fails the orthogonality margin

    full = check_gamma(lat3, (1, 0, 0), mu, h=1.0, R0=2.0,
                       orth_floor=0.5, slab_cap=10.0)
    assert full[1]["slab_mass"] == 1.0  # |(e', gamma)| = 1 <= h = 1


def test_find_gamma_empty_measure_all_ties(lat3):
    # every candidate has slab ratio 0, so the winner is decided purely by
    # the orthogonal-sparsity tie-break; the oracle must agree
    mu = SphereMeasure(points=np.zeros((0, 3)), weights=np.zeros(0))
    cert = find_gamma(lat3, mu, h=0.1, R0=3.0)
    assert cert["slab_ratio"] == 0.0
    want, _ = brute_force_gamma(lat3, mu, 0.1, 3.0, cert["window"])
    assert cert["gamma_coeffs"] == want
    ok, _ = check_gamma(lat3, cert["gamma_coeffs"], mu, 0.1, 3.0,
                        orth_floor=cert["min_orth"] * 0.99,
                        slab_cap=max(cert["slab_ratio"], 1e-9))
    assert ok


def test_find_gamma_matches_brute_force(lat3, rng):
    for _ in range(4):
        m = rng.integers(1, 7)
        pts = rng.standard_normal((m, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        mu = SphereMeasure(points=pts, weights=rng.uniform(0.1, 2.0, size=m))
        for R0 in (2.0, 3.0):
            cert = find_gamma(lat3, mu, h=0.2, R0=R0)
            want, _ = brute_force_gamma(lat3, mu, 0.2, R0, cert["window"])
            assert cert["gamma_coeffs"] == want


SKEWED3 = [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.2, 0.3, 1.2]]


@pytest.mark.parametrize("basis, R0, window", [
    (SKEWED3, 2.0, None),
    (SKEWED3, 3.0, None),
    # a narrower window keeps the oracle's plain loops short in four dimensions
    (np.eye(4), 2.0, 4.0),
])
def test_find_gamma_noncubic_matches_brute_force(basis, R0, window, rng):
    lat = Lattice(basis)
    pts = rng.standard_normal((5, lat.n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    mu = SphereMeasure(points=pts, weights=rng.uniform(0.1, 2.0, size=5))
    cert = find_gamma(lat, mu, h=0.2, R0=R0, search_window=window)
    want, _ = brute_force_gamma(lat, mu, 0.2, R0, cert["window"])
    assert cert["gamma_coeffs"] == want
    # check_gamma enumerates its own window: an independent cross-check
    _, again = check_gamma(lat, cert["gamma_coeffs"], mu, 0.2, R0,
                           orth_floor=1.0, slab_cap=1.0, window=cert["window"])
    assert again["min_orth_raw"] == cert["min_orth_raw"]
    assert again["slab_ratio"] == cert["slab_ratio"]


def test_find_gamma_enumerates_the_window_once(lat3, monkeypatch):
    # hundreds of candidates at R0 = 6 share one dual-window enumeration:
    # the shortest-length probe, the candidate ball and the window itself
    calls = []

    def counting(basis, radius):
        calls.append(radius)
        return enumerate_points(basis, radius)

    monkeypatch.setattr(lattice_module, "enumerate_points", counting)
    mu = SphereMeasure(points=np.eye(3), weights=np.ones(3))
    find_gamma(lat3, mu, h=0.1, R0=6.0)
    assert len(calls) <= 3
    assert enumerate_points(lat3.basis, 6.0)[0].shape[0] > 300


def test_find_gamma_atom_permutation_stable(lat3):
    pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    wts = np.array([1.0, 2.0, 3.0])
    a = find_gamma(lat3, SphereMeasure(points=pts, weights=wts), 0.05, 5.0)
    perm = [2, 0, 1]
    b = find_gamma(lat3, SphereMeasure(points=pts[perm], weights=wts[perm]),
                   0.05, 5.0)
    assert a["gamma_coeffs"] == b["gamma_coeffs"]


def _scalar_search(lat, mu, h, R0, window):
    """The one-candidate loop: every candidate's certificate and the winner."""
    coeffs, _ = lat.points_in_ball(R0)
    dual = lattice_module._dual_window(lat, window)
    certs = [lattice_module._certificate(lat, row, mu, h, R0, window, dual)
             for row in coeffs]
    best = min(certs, key=lambda c: (
        c["slab_ratio"],
        -math.inf if c["min_orth"] is None else -c["min_orth"],
        c["gamma_norm"], c["gamma_coeffs"]))
    return coeffs, dual, certs, best


def _atoms(rng, lat, m, along_dual=False):
    """m unit atoms; along_dual puts them on reciprocal lattice directions,
    so that some lie exactly in the plane orthogonal to a candidate."""
    if along_dual:
        pts = rng.integers(-2, 3, size=(m, lat.n))
        pts[~pts.any(axis=1), 0] = 1
        pts = pts @ lat.reciprocal
    else:
        pts = rng.standard_normal((m, lat.n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return SphereMeasure(points=pts, weights=rng.uniform(0.1, 2.0, size=m))


SCORING_CASES = {
    # name: (basis, measure builder, h, R0, window)
    **{f"pipeline-seed{s}-R{r}": (np.eye(3), lambda rng, lat, s=s:
                                  pipeline_measure(s), 0.4, float(r), None)
       for s in (1, 2, 3) for r in (2, 4, 8)},
    "12-atoms": (np.eye(3), lambda rng, lat: _atoms(rng, lat, 12), 0.2, 3.0,
                 None),
    # 5,000 atoms split the candidates into blocks of 13
    "5000-atoms": (np.eye(3), lambda rng, lat: _atoms(rng, lat, 5000), 0.1,
                   3.0, None),
    "skewed": (SKEWED3, lambda rng, lat: _atoms(rng, lat, 12), 0.2, 3.0, None),
    "random-basis": (np.eye(3) + 0.3 * np.random.default_rng(5).standard_normal(
        (3, 3)), lambda rng, lat: _atoms(rng, lat, 9), 0.3, 2.5, None),
    "h0-cubic": (np.eye(3), lambda rng, lat: _atoms(rng, lat, 10, True), 0.0,
                 3.0, None),
    "h0-skewed": (SKEWED3, lambda rng, lat: _atoms(rng, lat, 10, True), 0.0,
                  3.0, None),
    "empty": (np.eye(3), lambda rng, lat: _atoms(rng, lat, 0), 0.1, 3.0, None),
    # inside |N| <= 1 only +-e_j: (1, 1, 1) and its kin have no orthogonal
    # dual vector, and with no mass that wins
    "no-orthogonal": (np.eye(3), lambda rng, lat: _atoms(rng, lat, 0), 0.1,
                      2.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(SCORING_CASES))
def test_vectorised_keys_match_certificates(name, rng):
    basis, build, h, R0, window = SCORING_CASES[name]
    lat = Lattice(basis)
    mu = build(rng, lat)
    if window is None:
        window = lattice_module._default_window(lat, R0, lat.n, 1.0)
    coeffs, dual, certs, best = _scalar_search(lat, mu, h, R0, window)
    # the block pass and the one-row certificates round alike: every
    # key of every candidate has the same bits
    _, gnorm, slab = lattice_module._candidate_keys(lat, coeffs, mu, h)
    ratio = lattice_module._slab_ratio(slab, mu.total_mass, gnorm, h, R0, lat.n)
    raw = lattice_module._min_orth_raw(coeffs, dual)
    for c, r, g, o in zip(certs, ratio, gnorm, raw):
        orth = math.inf if c["min_orth_raw"] is None else c["min_orth_raw"]
        assert (r, g, o) == (c["slab_ratio"], c["gamma_norm"], orth)
    assert find_gamma(lat, mu, h, R0, window) == best
    if name == "no-orthogonal":
        assert best["min_orth"] is None and not best["orthogonal_found"]


def test_find_gamma_peak_memory():
    # the scoring temporaries are blocked: an unblocked (tied candidates x
    # dual window) product alone would take about 22 MB here
    mu = pipeline_measure(1)
    tracemalloc.start()
    try:
        find_gamma(Lattice.cubic(3), mu, 0.4, 8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_k_beta_membership(lat3):
    e = np.array([1.0, 0.0, 0.0])
    kappa, beta = 2.0 * math.pi, 1.0
    k = np.array([0.5, 0.0, 0.0])
    rows = lat3.mode_window(20.0)
    modes = ModeSet(lat3, rows)

    def selected(k):
        fib = FiberPoint(k=k, e=e, kappa=kappa)
        mask = annulus_mask(axial_transverse(modes, fib), kappa, beta)
        return {tuple(int(c) for c in row) for row in rows[mask]}

    sel = selected(k)
    for t in sel:
        x = k + 2.0 * math.pi * lat3.dual_point(t)
        axial = float(np.dot(x, e))
        perp = float(np.linalg.norm(x - axial * e))
        assert abs(axial) < beta and abs(kappa - perp) < beta
    # (0,1,0): axial 0.5, perp 2 pi, dead centre of the annulus
    assert (0, 1, 0) in sel
    # origin mode misses the annulus: perp 0 gives |kappa - 0| = 2 pi
    assert (0, 0, 0) not in sel
    # any axial shift by 2 pi leaves the |axial| < 1 strip
    assert (1, 0, 0) not in sel

    # with k on the face pi*e the axial part lives in pi + 2 pi Z, so no
    # mode can enter while beta < pi
    assert selected(np.array([math.pi, 0.0, 0.0])) == set()


def test_distinct_rows_match_unique_over_packed_rows():
    # slab masks of 1-200 atoms, rows repeated so that groups form: the same
    # groups, first rows and inverse as np.unique over the packed rows
    rng = np.random.default_rng(5)
    for atoms in [1, 7, 8, 9, 63, 64, 65, 128, 200] + list(
            rng.integers(1, 201, 20)):
        base = rng.random((int(rng.integers(1, 12)), int(atoms))) < 0.4
        mask = base[rng.integers(0, base.shape[0], int(rng.integers(1, 300)))]
        first, inverse = lattice_module._distinct_rows(mask)
        want_first, want_inverse = distinct_rows_oracle(mask)
        assert np.array_equal(first, want_first)
        assert np.array_equal(inverse, want_inverse)
