import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dspmv

from genus5chain import bethe, refdata, thermo
from genus5chain.curve import U_CRITICAL
from genus5chain.errors import KernelSingular
from genus5chain.thermo import (
    bulk_energy,
    gap,
    kernel_F,
    solve_rho,
    solve_sigma,
)

SQRT3 = np.sqrt(3.0)


def test_kernel_basics():
    assert kernel_F(-1, 0.7, 0.7) == 0
    top = np.pi / 6 + np.pi / 2
    assert abs(kernel_F(+1, top, top) - 2.0) < 1e-15
    x, y = 0.3, 1.1
    assert abs(kernel_F(+1, x, y) + kernel_F(-1, x, y) - 2 * np.sin(x - np.pi / 6)) < 1e-15


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
    fm = kernel_F(-1, nodes[:, None], nodes[None, :])
    fp = kernel_F(+1, nodes[:, None], nodes[None, :])
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
    # the packed kernel holds (N/2)(N/2 + 1)/2 floats; one dense (N/2) x (N/2)
    # kernel alone reaches the bound
    N = 4096
    tracemalloc.start()
    try:
        solve_sigma(U_CRITICAL, N=N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (N // 2) ** 2 * 8


@settings(max_examples=100, deadline=None)
@given(s=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=200),
       U=st.floats(U_CRITICAL, 10.0), seed=st.integers(0, 2**32 - 1))
def test_packed_denominator_is_the_dense_lower_triangle(s, U, seed):
    s = np.sort(s)
    n = len(s)
    try:
        D = thermo._denominator_rows(U, s, s)
    except KernelSingular:
        with pytest.raises(KernelSingular):
            thermo._inverse_denominator(U, s)
        return
    assert np.array_equal(D, D.T)
    packed = thermo._inverse_denominator(U, s)
    assert packed.shape == (n * (n + 1) // 2,)
    for i in range(n):
        assert np.array_equal(packed[i * (i + 1) // 2:(i + 1) * (i + 2) // 2], D[i, :i + 1])
    x = np.random.default_rng(seed).standard_normal(n)
    scale = np.max(np.abs(D) @ np.abs(x))
    assert np.max(np.abs(dspmv(n, 1.0, packed, x) - D @ x)) <= 1e-14 * scale


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
