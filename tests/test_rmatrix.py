import numpy as np
import pytest

from genus5chain import rmatrix
from genus5chain.curve import CurveParams, CurvePoint, U_CRITICAL, sample_points, solve_points
from genus5chain.errors import Singular
from genus5chain.rmatrix import (
    assemble_r,
    nonzero_positions,
    permutation_matrix,
    phase_shift,
    r_matrix,
    weights,
    ybe_residual,
)

SPIN = {0: 1, 1: 0, 2: -1}


@pytest.fixture(scope="module")
def par():
    return CurveParams(5.0)


@pytest.fixture(scope="module")
def regular(par):
    return CurvePoint(par, 1.0, 0.0)


def test_weights_at_regular_point(par, regular):
    w = weights(regular, regular)
    assert w.a == 1 and w.g == 1 and w.h == 1 and w.h_bar == 1
    assert w.b == 0 and w.b_bar == 0 and w.d == 0 and w.f == 0


def test_weights_mu_specialization(par, regular, rng):
    # second argument at the regular point collapses a, bbar, f to x1,
    # eps*y1/(x1^2+eps*y1^2) and y1^2/x1
    (p1,) = sample_points(par, 1, rng)
    w = weights(p1, regular)
    eps = par.eps
    assert abs(w.a - p1.x) < 1e-13
    assert abs(w.b_bar - eps * p1.y / (p1.x**2 + eps * p1.y**2)) < 1e-13
    assert abs(w.f - p1.y**2 / p1.x) < 1e-13


def test_h_identities_are_bitwise(par, rng):
    for p1, p2 in zip(sample_points(par, 5, rng), sample_points(par, 5, rng)):
        w = weights(p1, p2)
        assert w.h == w.a + w.f / par.eps
        assert w.h_bar == w.a + par.eps * w.f
        assert abs(w.g * (w.a + w.f) - (1 + par.eps * w.d**2 - w.b * w.b_bar)) < 1e-10


def test_assemble_zero_pattern_and_magnetization(par, rng):
    p1, p2 = sample_points(par, 2, rng)
    R = assemble_r(weights(p1, p2))
    allowed = nonzero_positions()
    for r in range(9):
        for c in range(9):
            if (r, c) not in allowed:
                assert R[r, c] == 0
            sr = SPIN[r // 3] + SPIN[r % 3]
            sc = SPIN[c // 3] + SPIN[c % 3]
            if sr != sc:
                assert R[r, c] == 0
    # the fixed unit entries and the eps*d placements
    assert R[1, 3] == 1 and R[3, 1] == 1 and R[5, 7] == 1 and R[7, 5] == 1
    w = weights(p1, p2)
    assert R[4, 2] == par.eps * w.d and R[6, 4] == par.eps * w.d


def test_regularity_permutation(regular):
    R = r_matrix(regular, regular)
    assert np.max(np.abs(R - permutation_matrix())) < 1e-14


def test_ybe_on_curve(par, rng):
    worst = 0.0
    for _ in range(20):
        p1, p2, p3 = sample_points(par, 3, rng)
        worst = max(worst, ybe_residual(p1, p2, p3))
    assert worst < 1e-10


def _einsum_ybe_residual(R12, R13, R23):
    """The residual with each two-site R lifted by its own index string."""
    I3 = np.eye(3)

    def lift(R, spec):
        return np.einsum(spec, R.reshape(3, 3, 3, 3), I3).reshape(27, 27)

    A = lift(R12, "abcd,ef->abecdf")
    B = lift(R13, "abcd,ef->aebcfd")
    C = lift(R23, "abcd,ef->eabfcd")
    return float(np.max(np.abs(A @ B @ C - C @ B @ A)))


def test_ybe_residual_relabels_codes_exactly(par, regular, monkeypatch):
    # three matrices that are no R-matrices, so the residual is O(1) and any
    # misplaced entry shows
    gen = np.random.default_rng(34)
    mats = [gen.normal(size=(9, 9)) + 1j * gen.normal(size=(9, 9)) for _ in range(3)]
    served = iter(mats)
    monkeypatch.setattr(rmatrix, "r_matrix", lambda p, q: next(served))
    got = ybe_residual(regular, regular, regular)
    assert got > 1.0
    assert got == _einsum_ybe_residual(*mats)


def test_ybe_coincident_points(par, rng):
    p1, p2 = sample_points(par, 2, rng)
    assert ybe_residual(p1, p1, p2) < 1e-12


def test_ybe_fails_off_curve(par, rng):
    p1, p2, p3 = sample_points(par, 3, rng)
    p1_off = CurvePoint(par, p1.x, p1.y + 1e-3)
    assert ybe_residual(p1_off, p2, p3) >= 1e-5


def test_weight_singular_names_denominator(par):
    # x^2 + eps y^2 = 0 along y = +- i x / sqrt(eps); build such an off-curve point
    eps = par.eps
    x = 0.8
    y = 1j * x / np.sqrt(eps)
    bad = CurvePoint(par, x, y)
    good = CurvePoint(par, 1.0, 0.0)
    with pytest.raises(Singular, match="x1"):
        weights(bad, good)


def test_phase_shift_singular_at_regular_point(regular):
    with pytest.raises(Singular, match="a\\*f vanishes"):
        phase_shift(regular, regular)


def test_phase_shift_finite_and_inverse_pair(par, rng):
    # recorded relation: theta(p1,p2) * theta(p2,p1) = 1
    for _ in range(5):
        p1, p2 = sample_points(par, 2, rng)
        t12 = phase_shift(p1, p2)
        t21 = phase_shift(p2, p1)
        assert np.isfinite(t12)
        assert abs(t12 * t21 - 1.0) < 1e-10


def test_swap_relation_unitarity(par, rng):
    # recorded relation: R(p1,p2) P R(p2,p1) P = a(p1,p2) a(p2,p1) * Id,
    # tying the b/bbar families of the swapped pair together
    P = permutation_matrix()
    for _ in range(5):
        p1, p2 = sample_points(par, 2, rng)
        M = r_matrix(p1, p2) @ P @ r_matrix(p2, p1) @ P
        c = weights(p1, p2).a * weights(p2, p1).a
        assert np.max(np.abs(M - c * np.eye(9))) < 1e-10 * max(1.0, abs(c))


def test_phase_shift_consistency_with_z_form(par, rng):
    # the combination theta * a(1,2) bbar(2,1) / [a(2,1) bbar(1,2)] equals
    # the scattering ratio in the t = Z - eps/Z variables
    from genus5chain.curve import zw_map

    eps = par.eps
    seps = par.sqrt_eps
    for _ in range(5):
        p1, p2 = sample_points(par, 2, rng)
        w12, w21 = weights(p1, p2), weights(p2, p1)
        comb = phase_shift(p1, p2) * w12.a * w21.b_bar / (w21.a * w12.b_bar)
        Z1 = zw_map(p1).Z
        Z2 = zw_map(p2).Z
        t1 = Z1 - eps / Z1
        t2 = Z2 - eps / Z2
        ratio = (t1 / eps - eps * t2 - par.U * seps) / (eps * t1 - t2 / eps + par.U * seps)
        assert abs(comb - ratio) < 1e-9
