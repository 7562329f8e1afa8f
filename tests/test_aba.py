import numpy as np
import pytest

from genus5chain import aba, bethe, lattice
from genus5chain.aba import (
    build_phi,
    eigenstate_residual,
    exchange_symmetry_check,
    monodromy_apply,
    on_shell_eigenvector,
    state_sector,
    vacuum_state,
    vacuum_values,
)
from genus5chain.curve import CurveParams, CurvePoint, sample_points
from genus5chain.errors import Singular


@pytest.fixture(scope="module")
def par():
    return CurveParams(5.0)


@pytest.fixture(scope="module")
def mu0(par):
    return CurvePoint(par, 1.0, 0.0)


def test_trace_identity(par, mu0, rng):
    (lam,) = sample_points(par, 1, rng)
    L, n = 4, 2
    basis = lattice.sector_basis(L, n)
    units = np.eye(3**L)[:, basis.codes]
    halves = lattice.monodromy_halves(lam, mu0, L)
    total = sum(monodromy_apply(i, i, halves, units) for i in (1, 2, 3))[basis.codes]
    T = lattice.build_transfer_matrix(lam, mu0, L, n).matrix.toarray()
    assert np.max(np.abs(total - T)) < 1e-12 * max(1.0, np.max(np.abs(T)))


def test_vacuum_triangularity_random_pairs(par, rng):
    L = 4
    v0 = vacuum_state(L)
    for _ in range(20):
        lam, mu = sample_points(par, 2, rng)
        av, bv, fv = vacuum_values(lam, mu, L)
        scale = max(1.0, abs(av), abs(bv), abs(fv))
        halves = lattice.monodromy_halves(lam, mu, L)
        for (i, j), expect in (((1, 1), av), ((2, 2), bv), ((3, 3), fv)):
            out = monodromy_apply(i, j, halves, v0)
            defect = out - expect * v0 if i == j else out
            assert np.max(np.abs(defect)) < 1e-12 * scale
        for i, j in ((2, 1), (3, 1), (3, 2)):
            out = monodromy_apply(i, j, halves, v0)
            assert np.max(np.abs(out)) < 1e-12 * scale


def test_phi_zero_is_vacuum(mu0):
    assert np.array_equal(build_phi([], mu0, 4), vacuum_state(4))


def test_phi_builds_monodromy_factors_once_per_rapidity(par, mu0, monkeypatch):
    builds = []
    halves = aba.monodromy_halves

    def counted(lam, mu, L):
        builds.append(lam)
        return halves(lam, mu, L)

    monkeypatch.setattr(aba, "monodromy_halves", counted)
    pts = sample_points(par, 3, np.random.default_rng(7))  # leaves the shared rng's draws alone
    build_phi(pts, mu0, 4)
    assert builds == pts[::-1]  # once each, the first point's last


@pytest.mark.parametrize("m, applications", [(1, 1), (2, 3), (3, 6)])
def test_phi_applies_every_block_through_monodromy_apply(par, mu0, monkeypatch, m, applications):
    # T_12 for each of the 2^(m-1) phis, T_13 for each phi with a tail
    calls = []
    apply = aba.monodromy_apply

    def counted(i, j, halves, vec):
        calls.append((i, j))
        return apply(i, j, halves, vec)

    monkeypatch.setattr(aba, "monodromy_apply", counted)
    pts = sample_points(par, m, np.random.default_rng(7))  # leaves the shared rng's draws alone
    build_phi(pts, mu0, 4)
    assert len(calls) == applications


def test_phi_sector_bookkeeping(par, mu0, rng):
    pts = sample_points(par, 3, rng)
    L = 4
    assert state_sector(build_phi(pts[:1], mu0, L), L) == L - 1
    assert state_sector(build_phi(pts[:2], mu0, L), L) == L - 2
    assert state_sector(build_phi(pts[:3], mu0, L), L) == L - 3


def test_state_sector_rejects_mixed_state(par, mu0, rng):
    pts = sample_points(par, 2, rng)
    L = 4
    one, two = build_phi(pts[:1], mu0, L), build_phi(pts[:2], mu0, L)
    mixed = one / np.linalg.norm(one) + two / np.linalg.norm(two)
    with pytest.raises(ValueError, match="single sector"):
        state_sector(mixed, L)


@pytest.mark.parametrize("leak, refused", [(1e-6, False), (1e-4, True)])
def test_state_sector_refuses_weight_beyond_a_share_in_another_sector(leak, refused):
    # basis state 0 (all spins 1) lies in sector L, state 1 in sector L - 1; the leak
    # carries a share leak^2 / 2 of the norm off sector L, against the bound 1e-10
    phi = np.zeros(3**4, dtype=complex)
    phi[:2] = 1.0, leak
    if refused:
        with pytest.raises(ValueError, match="not supported on a single sector"):
            state_sector(phi, 4)
    else:
        assert state_sector(phi, 4) == 4


def test_state_sector_rejects_zero_vector():
    with pytest.raises(Singular, match="state vector vanished"):
        state_sector(np.zeros(3**4, dtype=complex), 4)


def test_degenerate_rapidities_rejected(par, mu0, rng):
    (p,) = sample_points(par, 1, rng)
    with pytest.raises(Singular, match="rapidities 0 and 1 coincide"):
        build_phi([p, p], mu0, 4)


def test_eigenstate_residual_m1(par, mu0, rng):
    (lam,) = sample_points(par, 1, rng)
    L = 4
    rs = bethe.BetheRootSet(L, L - 1, par.U, np.array([2 * np.pi / L], dtype=complex))
    phi = on_shell_eigenvector(rs, mu0)
    assert eigenstate_residual(phi, lam, rs, mu0) < 1e-8


def test_eigenstate_residual_m2(par, mu0, rng):
    (lam,) = sample_points(par, 1, rng)
    L = 4
    rs = bethe.solve_log_form(L, L - 2, par.U)
    phi = on_shell_eigenvector(rs, mu0)
    assert eigenstate_residual(phi, lam, rs, mu0) < 1e-8


def test_off_shell_is_not_eigenstate(par, mu0, rng):
    (lam,) = sample_points(par, 1, rng)
    L = 4
    rs = bethe.BetheRootSet(L, L - 2, par.U, np.array([0.37, -0.95], dtype=complex))
    phi = on_shell_eigenvector(rs, mu0)
    assert eigenstate_residual(phi, lam, rs, mu0) > 1e-4


def test_exchange_symmetry(par, mu0, rng):
    lam1, lam2 = sample_points(par, 2, rng)
    assert exchange_symmetry_check(lam1, lam2, mu0, 4) < 1e-10


def test_exchange_fails_off_curve(par, mu0, rng):
    lam1, lam2 = sample_points(par, 2, rng)
    lam1_off = CurvePoint(par, lam1.x, lam1.y + 1e-2)
    assert exchange_symmetry_check(lam1_off, lam2, mu0, 4) > 1e-4


def test_zero_vector_guard(par, mu0, rng):
    (lam,) = sample_points(par, 1, rng)
    rs = bethe.BetheRootSet(4, 3, par.U, np.array([0.5], dtype=complex))
    with pytest.raises(Singular, match="state vector vanished"):
        eigenstate_residual(np.zeros(81, dtype=complex), lam, rs, mu0)
