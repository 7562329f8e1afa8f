import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus5chain import bethe, refdata, thermo
from genus5chain.curve import U_CRITICAL
from genus5chain.errors import KernelSingular, NoConvergence
from genus5chain.thermo import (
    bulk_energy,
    gap,
    solve_rho,
    solve_sigma,
)

SQRT3 = np.sqrt(3.0)


def _kernel_F(sign: int, x, y):
    """F+-(x, y) = sin(x - pi/6) +- sin(y - pi/6)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return np.sin(x - np.pi / 6) + sign * np.sin(y - np.pi / 6)


def test_kernel_basics():
    assert _kernel_F(-1, 0.7, 0.7) == 0
    top = np.pi / 6 + np.pi / 2
    assert abs(_kernel_F(+1, top, top) - 2.0) < 1e-15
    x, y = 0.3, 1.1
    assert abs(_kernel_F(+1, x, y) + _kernel_F(-1, x, y) - 2 * np.sin(x - np.pi / 6)) < 1e-15


def test_sigma_solution_values():
    for key in ("5", "4.5", "4"):
        grid = solve_sigma(refdata.u_value(key))
        assert abs(bulk_energy(grid) - refdata.TABLE2_ENERGY[key]["bulk"]) < 1e-10
        assert abs(grid.norm() - 1.0) < 1e-10
        assert np.all(grid.values > 0)


def test_sigma_rejects_subcritical_coupling():
    with pytest.raises(ValueError):
        solve_sigma(1.0)


def test_kernel_singular_when_node_hits_singularity():
    from genus5chain.errors import KernelSingular

    # placing k0 exactly one grid step below 2*pi/3 forces a node onto the
    # singular point of the critical-coupling kernel
    with pytest.raises(KernelSingular):
        solve_sigma(U_CRITICAL, N=256, k0=2 * np.pi / 3 - 2 * np.pi / 256)


def _dense_sigma_reference(U, N, k0):
    """The unfolded N x N sigma kernel on the solver's grid, built from F+-,
    and the exact fixed point of its quadrature equation."""
    nodes, w, _ = thermo._grid(U, N, k0)
    fm = _kernel_F(-1, nodes[:, None], nodes[None, :])
    fp = _kernel_F(+1, nodes[:, None], nodes[None, :])
    K = (U + SQRT3 * fm - SQRT3 * fp) / (fm * fm + (U - SQRT3 * fp) ** 2) * w[None, :]
    drive = 2.0 * np.cos(nodes - np.pi / 6)
    sigma = np.linalg.solve(2 * np.pi * np.eye(N) - drive[:, None] * K, np.ones(N))
    return thermo.DensityGrid(k0, N, U, nodes, w, sigma, "sigma")


def test_folded_sigma_matches_dense_reference():
    parities = set()
    for U in (U_CRITICAL, 3.6, 4.0, 5.0, 10.0):
        for N in (256, 512, 1024):
            h = 2 * np.pi / N
            # k0 = -pi and half a step above it give both parities of the phase index
            for k0 in (-np.pi, -np.pi + h / 2):
                j = round(2.0 * (thermo.K_SINGULAR - k0) / h)
                if U == U_CRITICAL and j % 2 == 0:
                    continue  # a node sits on the singular point
                parities.add((U, j % 2))
                ref = _dense_sigma_reference(U, N, k0)
                got = solve_sigma(U, N=N, k0=k0)
                scale = np.max(np.abs(ref.values))
                assert np.max(np.abs(got.values - ref.values)) <= 1e-11 * scale, (U, N, j)
                assert abs(bulk_energy(got) - bulk_energy(ref)) <= 1e-14, (U, N, j)
    assert len(parities) == 9


def test_sigma_memory_below_folded_kernel_bound():
    # no kernel is stored: one block of _ROW_BLOCK rows is 2 MB at N = 8192,
    # where a packed triangle of the folded kernel takes 67 MB; the pair terms
    # of a block are two such arrays, and each block is released before the next
    tracemalloc.start()
    try:
        solve_sigma(U_CRITICAL, N=8192)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@settings(max_examples=100, deadline=None)
@given(s=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=200),
       U=st.floats(U_CRITICAL, 10.0), seed=st.integers(0, 2**32 - 1))
def test_row_block_application_is_the_dense_product(s, U, seed):
    s = np.array(s)
    x = np.random.default_rng(seed).standard_normal(len(s))
    try:
        D = thermo._denominator_rows(U, s, s)
    except KernelSingular:
        with pytest.raises(KernelSingular):
            thermo._apply_denominator(U, s, x)
        return
    scale = np.max(np.abs(D) @ np.abs(x))
    assert np.max(np.abs(thermo._apply_denominator(U, s, x) - D @ x)) <= 1e-14 * scale


def _folded_kernel(U, N):
    """The solver's folded grid and drive, with f -> K f and f -> |K| |f| as
    dense products: K is D diag(U - 2 sqrt(3) s) on the pair sums of the weighted f."""
    nodes, w, pair = thermo._grid(U, N, -np.pi)
    s = np.bincount(pair, np.sin(nodes - np.pi / 6)) / np.bincount(pair)
    D = thermo._denominator_rows(U, s, s)
    col = U - 2 * SQRT3 * s
    drive = 2.0 * np.cos(nodes - np.pi / 6)
    return (s, pair, drive, lambda f: D @ (col * np.bincount(pair, w * f)),
            lambda f: np.abs(D) @ (np.abs(col) * np.bincount(pair, w * np.abs(f))))


@pytest.mark.parametrize("U", [U_CRITICAL, 4.0, 5.0])
def test_kernel_annihilates_drive_times_functions_of_s(U):
    # relative to the uncancelled sum |K| |f|: at 2 sqrt(3), D's near-singular
    # entries (D (U - 2 sqrt(3) s) up to 2.4e5) lift the rounding-level pair
    # sums of the drive to an absolute 4e-13
    s, pair, drive, K, absK = _folded_kernel(U, 2048)
    rng = np.random.default_rng(16)
    for _ in range(5):
        g = drive * np.polynomial.chebyshev.chebval(s, rng.standard_normal(8))[pair]
        assert np.max(np.abs(K(g))) <= 1e-14 * np.max(absK(g))
    # the uniform start is not annihilated: sigma is one application away from it
    one = np.ones(len(pair))
    assert np.max(np.abs(K(one))) > 0.5 * np.max(absK(one))


@pytest.mark.parametrize("N", [256, 2048])
@pytest.mark.parametrize("U", [U_CRITICAL, 4.0, 5.0])
def test_one_more_step_leaves_sigma(U, N):
    # not held at (2 sqrt(3), 8192): there D's near-singular entries amplify
    # the rounding of 1 + drive K sigma, and one more step moves sigma by 1.9e-13
    _, pair, drive, K, _ = _folded_kernel(U, N)
    sigma = solve_sigma(U, N=N).values
    step = (1.0 + drive * K(sigma)[pair]) / (2 * np.pi)
    assert np.max(np.abs(step - sigma)) <= 1e-13


def test_sigma_refuses_a_drive_that_does_not_cancel(monkeypatch):
    grid = thermo._grid

    def skewed(U, N, k0):
        nodes, w, pair = grid(U, N, k0)
        return nodes, w * (1 + 1e-6 * (np.arange(N) % 2)), pair

    monkeypatch.setattr(thermo, "_grid", skewed)
    with pytest.raises(NoConvergence) as info:
        solve_sigma(5.0, N=256)
    assert info.value.residual > 1e-14


def test_sigma_grid_refinement_stable():
    e1 = bulk_energy(solve_sigma(5.0, N=2048))
    e2 = bulk_energy(solve_sigma(5.0, N=4096))
    assert abs(e1 - e2) < 1e-11


def test_sigma_k0_invariance():
    for k0 in (-np.pi, 0.0, 0.37):
        grid = solve_sigma(5.0, k0=k0)
        assert abs(bulk_energy(grid) + 0.200733056598) < 1e-10
        assert abs(grid.norm() - 1.0) < 1e-10


def test_sigma_at_critical_coupling():
    grid = solve_sigma(U_CRITICAL, N=8192)
    assert abs(bulk_energy(grid) - refdata.TABLE2_ENERGY["2sqrt3"]["bulk"]) < 1e-7


def test_bulk_energy_of_uniform_density():
    grid = solve_sigma(5.0, N=512)
    uniform = thermo.DensityGrid(
        grid.k0, grid.N, grid.U, grid.nodes, grid.weights, np.full(grid.N, 1 / (2 * np.pi)),
        "sigma",
    )
    assert abs(bulk_energy(uniform)) < 1e-12


def test_rho_collapses():
    for U in (4.0, 5.0, 10.0):
        grid, defect = solve_rho(U)
        assert np.max(np.abs(grid.values)) < 1e-8
        assert defect < 1e-8


def test_rho_zero_is_fixed_point():
    grid, _ = solve_rho(6.0)
    # applying the homogeneous step to zero returns zero exactly
    assert np.max(np.abs(grid.values)) < 1e-12


def test_gap_values():
    assert abs(gap(5.0).value - refdata.TABLE3_GAP["5"]["conjecture"]) < 1e-10
    assert abs(gap(4.0).value - refdata.TABLE3_GAP["4"]["conjecture"]) < 1e-10
    assert gap(U_CRITICAL).value == 0.0


def test_rho_refuses_the_critical_window():
    # gap takes U within 1e-12 of 2 sqrt(3) as critical and needs no rho there
    with pytest.raises(ValueError):
        solve_rho(U_CRITICAL + 5e-13)
    assert gap(U_CRITICAL + 5e-13).value == 0.0


def test_gap_reports_nilpotency_defect():
    for U in (3.47, 3.6, 4.0, 5.0, 8.0):
        est = gap(U)
        assert est.nilpotency_defect < 1e-14
        assert est.rho_sup < 1e-8


def test_nilpotency_defect_separates_nilpotent_operators():
    c, s = np.cos(0.7), np.sin(0.7)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert thermo._nilpotency_defect(rotation) > 0.1
    square_zero = np.zeros((4, 4))
    square_zero[:2, 2:] = [[2.0, -1.0], [0.5, 3.0]]
    assert thermo._nilpotency_defect(square_zero) == 0.0


def test_finite_size_energies_approach_bulk():
    for key in ("5", "4.5", "4"):
        U = refdata.u_value(key)
        rs = bethe.solve_log_form(1024, 0, U)
        e_bulk = bulk_energy(solve_sigma(U))
        assert abs(bethe.energy(rs) / 1024 - e_bulk) < 1e-9


def test_finite_size_gap_approaches_conjecture():
    delta = bethe.finite_size_gap(128, 5.0)
    assert abs(delta - (5.0 / 2 - SQRT3)) < 1e-9
