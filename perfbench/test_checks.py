"""Each benchmark check accepts a correct result and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from reference import TABLE1, TABLE2, TABLE3, TABLE4, TABLE5, U_CRITICAL  # noqa: E402

from genus5chain import bethe, lattice, rmatrix, thermo  # noqa: E402
from genus5chain.curve import CurveParams, CurvePoint, sample_points  # noqa: E402


def accepts_and_rejects(check, good, bad):
    check(good)
    with pytest.raises(CheckFailed):
        check(bad)


@pytest.mark.parametrize("L, tol", [(4, 1e-4), (6, 1e-4), (7, 1e-3)])
def test_threshold(L, tol):
    accepts_and_rejects(lambda v: checks.threshold(L, v), TABLE1[L] + 0.5 * tol,
                        TABLE1[L] + 2 * tol)


def test_table_rows():
    accepts_and_rejects(lambda v: checks.energy_per_site("4", 24, v), TABLE2["4"][24],
                        TABLE2["4"][24] + 2e-9)
    accepts_and_rejects(lambda v: checks.bulk_energy("5", v), TABLE2["5"]["bulk"],
                        TABLE2["5"]["bulk"] + 2e-9)
    accepts_and_rejects(lambda v: checks.bulk_energy("2sqrt3", v),
                        TABLE2["2sqrt3"]["bulk"] + 5e-8, TABLE2["2sqrt3"]["bulk"] + 2e-7)
    accepts_and_rejects(lambda v: checks.bethe_gap("4.5", 12, v), TABLE3["4.5"][12],
                        TABLE3["4.5"][12] + 2e-8)
    accepts_and_rejects(lambda e1: checks.ed_gap("2", 10, -1.0, e1), TABLE4["2"][10] - 1.0,
                        TABLE4["2"][10] - 1.0 + 2e-8)
    accepts_and_rejects(lambda v: checks.f0("sqrt2", 10, v), TABLE5["sqrt2"][10],
                        TABLE5["sqrt2"][10] - 2e-8)


def _spectrum(U, L, n):
    return lattice.diagonalize(lattice.build_hamiltonian(U, L, n), mode="full").eigenvalues


def test_reflection():
    plus, minus = _spectrum(2.0, 4, 1), _spectrum(-2.0, 4, 1)
    bad = minus.copy()
    bad[3] += 1e-6
    accepts_and_rejects(lambda m: checks.reflection(plus, m), minus, bad)


def test_conjugate_pairs():
    spec = _spectrum(1.0, 6, 0)
    complex_idx = np.nonzero(np.abs(spec.imag) > 1e-3)[0]
    assert len(complex_idx) >= 2
    bad = spec.copy()
    bad[complex_idx[0]] += 1e-6j
    accepts_and_rejects(checks.conjugate_pairs, spec, bad)


def test_e1_relation():
    U, L = 2.0, 6
    e_plus, e_minus = _spectrum(U, L, 1).real.min(), _spectrum(-U, L, 1).real.min()
    accepts_and_rejects(lambda e: checks.e1_relation(e, e_minus, U, L), e_plus, e_plus + 1e-9)


def test_bethe_defect_and_energy():
    rs = bethe.solve_log_form(8, 0, 5.0)
    bad = rs.roots.copy()
    bad[2] += 1e-8
    accepts_and_rejects(lambda k: checks.on_shell(k, 8, 5.0), rs.roots, bad)
    accepts_and_rejects(lambda k: checks.bethe_energy(k, 0, 5.0), rs.roots,
                        rs.roots + np.array([1e-3j] + [0] * 7))


def test_bethe_matches_ed():
    rs = bethe.solve_log_form(5, 1, 5.0)
    e = checks.bethe_energy(rs.roots, 1, 5.0)
    spec = _spectrum(5.0, 5, 1)
    accepts_and_rejects(lambda v: checks.matches_lowest_level(v, spec, "L=5"), e, e + 1e-7)


def test_density_norm():
    g = thermo.solve_sigma(6.0, N=256)
    accepts_and_rejects(lambda v: checks.density_norm(g.weights, v), g.values,
                        g.values * (1 + 1e-9))


def test_gap_closed_form():
    value = thermo.gap(5.0).value
    accepts_and_rejects(lambda v: checks.gap_closed_form(5.0, v), value, value + 1e-9)


def test_eigenvalue_in_spectrum():
    par = CurveParams(5.0)
    p0 = CurvePoint(par, 1.0, 0.0)
    (lam,) = sample_points(par, 1, np.random.default_rng(7))
    rs = bethe.solve_log_form(4, 2, 5.0)
    T = lattice.build_transfer_matrix(lam, p0, 4, 2).matrix.toarray()
    val = bethe.eigenvalue_lambda(lam, rs)
    accepts_and_rejects(lambda v: checks.eigenvalue_in_spectrum(v, T), val, val * (1 + 1e-6))


def test_yang_baxter():
    p1, p2, p3 = sample_points(CurveParams(1.5, "minus"), 3, np.random.default_rng(8))
    r12, r13, r23 = rmatrix.r_matrix(p1, p2), rmatrix.r_matrix(p1, p3), rmatrix.r_matrix(p2, p3)
    # the benchmark's own embedding agrees with the package's residual
    assert checks.ybe_defect(r12, r13, r23) == pytest.approx(
        rmatrix.ybe_residual(p1, p2, p3), abs=1e-12)
    bad = r12.copy()
    bad[4, 4] += 1e-6
    accepts_and_rejects(lambda r: checks.yang_baxter(r, r13, r23), r12, bad)


def test_eigenvector_residual():
    accepts_and_rejects(lambda r: checks.eigenvector_residual(r, 0.5), 1e-11, 1e-9)
    accepts_and_rejects(lambda r: checks.eigenvector_residual(r, 1e5), 1e-6, 1e-4)


def test_string_check_needs_one_two_string():
    rs = bethe.track_state(4, 0, 5.0, 0.0)
    workloads._check_string(rs)
    with pytest.raises(CheckFailed):
        workloads._check_string(bethe.solve_log_form(4, 0, 5.0))


def test_critical_density_check():
    g = thermo.solve_sigma(U_CRITICAL, N=256)
    with pytest.raises(CheckFailed):
        workloads._check_sigma_critical(g)  # N = 256 is far from the 1e-7 row


@pytest.mark.parametrize("workload", ["ed_full", "ed_lowest", "bethe_thermo_aba"])
def test_plan_depends_only_on_seed(workload):
    names = lambda seed: [[op.name for op in ops] for ops in workloads.plan(workload, seed, 20)]
    assert names(5) == names(5)
    assert names(5) != names(6)
    first = names(5)
    assert all(len(ops) == len(first[0]) for ops in first)


def test_clear_caches_covers_every_cached_function():
    cached = (lattice.sector_basis, lattice.ground_state_energy, lattice.lowest_two_energies,
              lattice.sector_1_lowest)
    assert {id(fn) for fn in cached} <= {id(fn) for fn in workloads._CACHED}
    lattice.sector_basis(3, 0)
    lattice.sector_1_lowest(1.0, 3)
    workloads.clear_caches()
    assert all(fn.cache_info().currsize == 0 for fn in cached)


def test_speed_meter_leaves_out_probe_time(monkeypatch):
    def slow_probe():
        time.sleep(0.02)
        return 0.02

    monkeypatch.setattr(speed, "probe", slow_probe)
    monkeypatch.setattr(speed, "INTERVAL_S", 0.0)
    meter = speed.SpeedMeter()
    token = meter.start()
    for _ in range(5):
        time.sleep(0.01)
        meter.maybe_probe()
    wall, wall_ref = meter.stop(token)
    assert len(meter.samples) == 2 * speed.BOUNDARY_PROBES + 5
    assert 0.05 <= wall < 0.1  # 0.15 s or more if the five inner probes counted
    assert wall_ref == pytest.approx(wall * speed.PROBE_REF_S / 0.02)
