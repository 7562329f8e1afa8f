"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines;
criteria gated behind --runheavy extend two of the table checks to the
largest sizes.
"""

import time

import numpy as np
import pytest

from genus5chain import aba, bethe, lattice, refdata, thermo
from genus5chain.tables import fit_threshold
from genus5chain.curve import (
    CurveParams,
    CurvePoint,
    U_CRITICAL,
    cubic_factor_residuals,
    sample_points,
    zw_map,
)
from genus5chain.rmatrix import permutation_matrix, r_matrix, ybe_residual

SQRT3 = np.sqrt(3.0)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_yang_baxter():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    for u in (0.0, 1.0, U_CRITICAL, 5.0, -5.0):
        for sign in ("plus", "minus"):
            params = CurveParams(u, sign)
            for _ in range(15):
                p1, p2, p3 = sample_points(params, 3, rng)
                worst = max(worst, ybe_residual(p1, p2, p3))
                count += 1
    par = CurveParams(5.0)
    p1, p2, p3 = sample_points(par, 3, rng)
    off = ybe_residual(CurvePoint(par, p1.x, p1.y + 1e-3), p2, p3)
    elapsed = time.time() - t0
    _report(
        1,
        worst < 1e-10 and off >= 1e-5 and count >= 150 and elapsed < 60,
        f"max residual {worst:.2e} over {count} triples, off-curve control {off:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_regularity():
    par = CurveParams(2.0)
    p0 = CurvePoint(par, 1.0, 0.0)
    dev = float(np.max(np.abs(r_matrix(p0, p0) - permutation_matrix())))
    _report(2, dev < 1e-14, f"R(regular, regular) vs permutation: {dev:.2e}")


def test_criterion_03_elliptic_map():
    rng = np.random.default_rng(103)
    worst = 0.0
    for u in (0.0, 2.0, 5.0, -5.0):
        for sign in ("plus", "minus"):
            for p in sample_points(CurveParams(u, sign), 13, rng):
                worst = max(worst, zw_map(p).residual())
    _report(3, worst < 1e-10, f"cubic residual over 104 mapped points: {worst:.2e}")


def test_criterion_04_reality_thresholds(reality_thresholds):
    devs = {
        L: abs(reality_thresholds[L] - refdata.TABLE1_REALITY[L]) for L in (4, 5, 6)
    }
    _report(
        4,
        all(d < 1e-4 for d in devs.values()),
        "threshold deviations " + ", ".join(f"L={L}: {d:.1e}" for L, d in devs.items()),
    )


def test_criterion_04_reality_threshold_l7():
    u7 = lattice.reality_threshold(7)
    dev = abs(u7 - refdata.TABLE1_REALITY[7])
    _report(4, dev < 1e-3, f"L=7 threshold {u7} deviation {dev:.1e}")


def test_criterion_05_threshold_fit(reality_thresholds):
    pairs = sorted(reality_thresholds.items())
    u_inf, slope = fit_threshold(pairs)
    dev = abs(u_inf - U_CRITICAL)
    _report(5, dev < 0.05, f"U_inf {u_inf:.5f} vs 2*sqrt(3), deviation {dev:.4f}")


def test_criterion_06_bethe_ed_equivalence():
    worst = 0.0
    for L in (4, 5, 6):
        for key in ("5", "2sqrt3"):
            U = refdata.U_KEYS[key]
            for n in range(0, L + 1):
                e_bethe = bethe.energy(bethe.solve_log_form(L, n, U))
                rep = lattice.diagonalize(lattice.build_hamiltonian(U, L, n), mode="full")
                worst = max(worst, abs(e_bethe - rep.lowest_real))
    _report(6, worst < 1e-8, f"lowest-state mismatch across sectors: {worst:.2e}")


def test_criterion_07_table2():
    worst_rows = 0.0
    for key in ("5", "4.5", "4", "2sqrt3"):
        U = refdata.U_KEYS[key]
        for L in (8, 12, 16, 24, 64):
            e = bethe.energy(bethe.solve_log_form(L, 0, U)) / L
            worst_rows = max(worst_rows, abs(e - refdata.TABLE2_ENERGY[key][L]))
    e5 = thermo.bulk_energy(thermo.solve_sigma(5.0, N=2048))
    dev5 = abs(e5 - (-0.200733056598))
    ec = thermo.bulk_energy(thermo.solve_sigma(U_CRITICAL, N=8192))
    devc = abs(ec - (-0.29514306683))
    _report(
        7,
        worst_rows < 1e-9 and dev5 < 1e-9 and devc < 1e-7,
        f"finite rows {worst_rows:.2e}; bulk e0(5) dev {dev5:.2e}; "
        f"bulk e0(2sqrt3) dev {devc:.2e}",
    )


def test_criterion_08_table3():
    worst = 0.0
    for key in ("5", "4.5", "4", "2sqrt3"):
        U = refdata.U_KEYS[key]
        for L in (4, 6, 8, 10, 12, 24):
            d = bethe.finite_size_gap(L, U)
            worst = max(worst, abs(d - refdata.TABLE3_GAP[key][L]))
    d128 = bethe.finite_size_gap(128, 5.0)
    conj_dev = abs(d128 - (5.0 / 2 - SQRT3))
    rho_sups = {}
    for u in (4.0, 5.0, 10.0):
        grid, _ = thermo.solve_rho(u)
        rho_sups[u] = float(np.max(np.abs(grid.values)))
    _report(
        8,
        worst < 1e-8 and conj_dev < 1e-9 and all(v < 1e-8 for v in rho_sups.values()),
        f"gap rows {worst:.2e}; L=128 vs conjecture {conj_dev:.2e}; "
        f"max sup|rho| {max(rho_sups.values()):.2e}",
    )


def test_criterion_09_table4():
    worst = 0.0
    for key in ("3", "2", "1", "0"):
        U = refdata.U_KEYS[key]
        for L in range(4, 11):
            e0, e1 = lattice.lowest_two_energies(U, L)
            worst = max(worst, abs((e1 - e0) - refdata.TABLE4_GAP[key][L]))
    _report(9, worst < 1e-8, f"gap deviations for L <= 10: {worst:.2e}")


@pytest.mark.heavy
def test_criterion_09_table4_heavy():
    worst = 0.0
    for key in ("3", "2", "1", "0"):
        U = refdata.U_KEYS[key]
        for L in (11, 12):
            e0, e1 = lattice.lowest_two_energies(U, L)
            worst = max(worst, abs((e1 - e0) - refdata.TABLE4_GAP[key][L]))
    _report(9, worst < 1e-8, f"gap deviations for L in (11, 12): {worst:.2e}")


def test_criterion_10_table5_and_symmetry():
    worst_f0 = 0.0
    for key in ("4", "2sqrt3", "sqrt2", "1"):
        U = refdata.U_KEYS[key]
        for L in (4, 6, 8, 10):
            worst_f0 = max(worst_f0, abs(lattice.f0_per_site(U, L) - refdata.TABLE5_F0[key][L]))
    worst_e1 = 0.0
    for L in (4, 6, 8, 10):
        for U in (2.0, 4.0):
            d = lattice.sector_1_lowest(U, L) - lattice.sector_1_lowest(-U, L) - U * L / 2
            worst_e1 = max(worst_e1, abs(d))
    worst_spec = 0.0
    for L in (4, 6, 8):
        for U in (4.0, 2.0):
            worst_spec = max(worst_spec, lattice.symmetry_check_neg_u(L, U).spectral_distance)
    _report(
        10,
        worst_f0 < 1e-8 and worst_e1 < 1e-10 and worst_spec < 1e-9,
        f"F0 rows {worst_f0:.2e}; E1 relation {worst_e1:.2e}; "
        f"spectral antisymmetry {worst_spec:.2e}",
    )


def test_criterion_11_eigenvalue_formula():
    rng = np.random.default_rng(111)
    par = CurveParams(5.0)
    p0 = CurvePoint(par, 1.0, 0.0)
    (lam,) = sample_points(par, 1, rng)
    L = 4
    worst = 0.0
    for n in (2, 3, 4):
        if n == 4:
            rs = bethe.BetheRootSet(L, 4, 5.0, np.zeros(0, dtype=complex))
        else:
            rs = bethe.solve_log_form(L, n, 5.0)
        val = bethe.eigenvalue_lambda(lam, rs)
        T = lattice.build_transfer_matrix(lam, p0, L, n).matrix.toarray()
        ev = np.linalg.eigvals(T)
        worst = max(worst, float(np.min(np.abs(ev - val))) / max(1.0, abs(val)))
    _report(11, worst < 1e-8, f"transfer-eigenvalue mismatch (relative): {worst:.2e}")


def test_criterion_12_eigenvector_construction():
    rng = np.random.default_rng(112)
    par = CurveParams(5.0)
    mu0 = CurvePoint(par, 1.0, 0.0)
    (lam,) = sample_points(par, 1, rng)
    L = 4
    v0 = aba.vacuum_state(L)
    worst_vac = 0.0
    for _ in range(20):
        a, b = sample_points(par, 2, rng)
        av, bv, fv = aba.vacuum_values(a, b, L)
        scale = max(1.0, abs(av), abs(bv), abs(fv))
        halves = lattice.monodromy_halves(a, b, L)
        for (i, j), expect in (((1, 1), av), ((2, 2), bv), ((3, 3), fv)):
            out = aba.monodromy_apply(i, j, halves, v0)
            worst_vac = max(worst_vac, float(np.max(np.abs(out - expect * v0))) / scale)
        for i, j in ((2, 1), (3, 1), (3, 2)):
            out = aba.monodromy_apply(i, j, halves, v0)
            worst_vac = max(worst_vac, float(np.max(np.abs(out))) / scale)
    pa, pb = sample_points(par, 2, rng)
    exch = aba.exchange_symmetry_check(pa, pb, mu0, L)
    rs1 = bethe.BetheRootSet(L, 3, 5.0, np.array([2 * np.pi / L], dtype=complex))
    res1 = aba.eigenstate_residual(aba.on_shell_eigenvector(rs1, mu0), lam, rs1, mu0)
    rs2 = bethe.solve_log_form(L, 2, 5.0)
    res2 = aba.eigenstate_residual(aba.on_shell_eigenvector(rs2, mu0), lam, rs2, mu0)
    _report(
        12,
        worst_vac < 1e-12 and exch < 1e-10 and res1 < 1e-8 and res2 < 1e-8,
        f"vacuum identities {worst_vac:.2e}; exchange {exch:.2e}; "
        f"residuals m=1 {res1:.2e}, m=2 {res2:.2e}",
    )


def test_criterion_13_degeneration():
    rng = np.random.default_rng(113)
    par = CurveParams(U_CRITICAL)
    worst = 0.0
    for p in sample_points(par, 40, rng):
        cp, cm = cubic_factor_residuals(p.x, p.y, par)
        worst = max(worst, min(abs(cp), abs(cm)))
    _report(13, worst < 1e-9, f"min factor residual over sampled points: {worst:.2e}")
