"""Benchmark tables 1-5, each a CSV header and rows with deviations from `refdata`.

Tables 2-5 are grids: one row per size and, for every coupling column of
the reference catalog in its order, the computed value and its deviation.
Table 2's bulk row and table 3's conjecture row are the last size of their
grid, keyed like the catalog's own rows.
"""

from __future__ import annotations

import numpy as np

from . import bethe, lattice, refdata, thermo
from .curve import critical_side


def fit_threshold(pairs) -> tuple[float, float]:
    """Least-squares fit U(L) = U_inf + a / L^2."""
    if len(pairs) < 3:
        raise ValueError("threshold fit needs at least three (L, U) points")
    ls = np.array([p[0] for p in pairs], dtype=float)
    us = np.array([p[1] for p in pairs], dtype=float)
    if not np.all(np.isfinite(us)):
        raise ValueError("threshold fit needs finite couplings U")
    if np.any(ls < 1):
        raise ValueError("threshold fit needs lengths L >= 1")
    if len(np.unique(ls)) < 2:
        raise ValueError("threshold fit needs at least two distinct lengths L")
    A = np.stack([np.ones_like(ls), ls**-2.0], axis=1)
    coef, *_ = np.linalg.lstsq(A, us, rcond=None)
    return float(coef[0]), float(coef[1])


def extrapolate_gap(series: dict) -> tuple[float, float]:
    """Polynomial-in-1/L extrapolation with a scheme-spread uncertainty.

    The massless-window gaps decay like 1/L to leading order, so the fits
    run in powers of 1/L; the quoted uncertainty combines the cubic fit's
    residual error with the spread against the quadratic fit, since the
    extrapolated constant is strongly scheme-dependent at these sizes.
    """
    ls = np.array(sorted(series), dtype=float)
    gs = np.array([series[int(l)] for l in ls])
    x = 1.0 / ls

    def fit(order):
        A = np.stack([x**p for p in range(order + 1)], axis=1)
        coef, res, *_ = np.linalg.lstsq(A, gs, rcond=None)
        dof = max(len(ls) - (order + 1), 1)
        s2 = (res[0] / dof) if len(res) else 0.0
        cov = np.linalg.inv(A.T @ A) * s2
        return float(coef[0]), float(np.sqrt(max(cov[0, 0], 0.0)))

    v3, e3 = fit(3)
    v2, _ = fit(2)
    return v3, max(e3, abs(v3 - v2))


def _grid(label, reference, sizes, value):
    """Rows [L, value(U, L), |value - reference[key][L]|, ...] over the keys of `reference`."""
    header = ["L"]
    for key in reference:
        header += [f"{label}(U={key})", f"dev(U={key})"]
    rows = []
    for L in sizes:
        row = [L]
        for key, ref in reference.items():
            val = value(refdata.U_KEYS[key], L)
            row += [val, abs(val - ref[L])]
        rows.append(row)
    return header, rows


def _table1(heavy: bool):
    sizes = [4, 5, 6, 7] + ([8, 9] if heavy else [])
    header = ["L", "threshold", "reference", "deviation"]
    rows = []
    for L in sizes:
        u_l = lattice.reality_threshold(L)
        ref = refdata.TABLE1_REALITY[L]
        rows.append([L, u_l, ref, abs(u_l - ref)])
    return header, rows


def _table2(heavy: bool):
    def energy_per_site(u, L):
        if L == "bulk":
            # the critical kernel converges slowly near its pole
            return thermo.bulk_energy(thermo.solve_sigma(u, N=2048 if critical_side(u) else 8192))
        return bethe.energy(bethe.solve_log_form(L, 0, u)) / L

    sizes = [8, 12, 16, 24, 64] + ([128, 256, 516, 1024] if heavy else []) + ["bulk"]
    return _grid("E/L", refdata.TABLE2_ENERGY, sizes, energy_per_site)


def _table3(heavy: bool):
    def gap(u, L):
        return thermo.gap(u).value if L == "conjecture" else bethe.finite_size_gap(L, u)

    sizes = [4, 6, 8, 10, 12, 24, 64, 128, "conjecture"]
    return _grid("gap", refdata.TABLE3_GAP, sizes, gap)


def _table4(heavy: bool):
    def gap(u, L):
        e0, e1 = lattice.lowest_two_energies(u, L)
        return e1 - e0

    sizes = list(range(4, 11)) + ([11, 12] if heavy else [])
    header, rows = _grid("gap", refdata.TABLE4_GAP, sizes, gap)
    extrap = ["extrapolated(method-dependent)"]
    for col in range(1, len(header), 2):
        extrap += extrapolate_gap({row[0]: row[col] for row in rows})
    return header, rows + [extrap]


def _table5(heavy: bool):
    sizes = [4, 6, 8, 10] + ([12] if heavy else [])
    return _grid("F0", refdata.TABLE5_F0, sizes, lattice.f0_per_site)


TABLES = {1: _table1, 2: _table2, 3: _table3, 4: _table4, 5: _table5}
