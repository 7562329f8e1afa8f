import ast
from pathlib import Path

import numpy as np
import pytest

from genus5chain.curve import (
    CurveParams,
    CurvePoint,
    U_CRITICAL,
    _ZWSystem,
    branch_points_z,
    critical_couplings,
    cubic_factor_residuals,
    eval_curve,
    points_with_Z,
    sample_points,
    solve_points,
    y_polynomial_coeffs,
    zw_map,
)

ALL_PARAMS = [
    CurveParams(u, s) for u in (0.0, 1.0, U_CRITICAL, 5.0, -5.0) for s in ("plus", "minus")
]


def test_eps_branch_properties():
    for par in ALL_PARAMS:
        assert abs(abs(par.eps) - 1.0) < 1e-15
        assert abs(par.eps**3 + 1.0) < 1e-15
        assert abs(par.sqrt_eps**2 - par.eps) < 1e-15


@pytest.mark.parametrize("par", ALL_PARAMS)
def test_regular_and_origin_points(par):
    assert eval_curve(1.0, 0.0, par) == 0
    assert eval_curve(0.0, 0.0, par) == 0


def test_solve_points_contains_trivial_roots():
    par = CurveParams(3.7)
    for x in (1.0, 0.0):
        ys = [p.y for p in solve_points(x, par)]
        assert min(abs(y) for y in ys) < 1e-12


def _coeffs_from_samples(x, par):
    """Independent degree-6 fit of y -> C(x, y) through Vandermonde sampling."""
    nodes = 1.3 * np.exp(2j * np.pi * np.arange(7) / 7)
    V = np.vander(nodes, 7, increasing=True)
    vals = np.array([eval_curve(x, y, par) for y in nodes])
    return np.linalg.solve(V, vals)


def test_polynomial_coefficients_against_sampling_oracle():
    par = CurveParams(4.2)
    for x in (0.7, 0.3 + 0.2j, -1.1 + 0.05j):
        direct = y_polynomial_coeffs(x, par)
        fitted = _coeffs_from_samples(x, par)
        assert np.max(np.abs(direct - fitted)) < 1e-10


def test_eval_curve_on_solved_root():
    par = CurveParams(5.0)
    fitted = _coeffs_from_samples(0.7, par)
    for y in np.roots(fitted[::-1]):
        # the sampling-oracle roots already satisfy the curve equation
        assert abs(eval_curve(0.7, y, par)) < 1e-11


def test_solve_points_six_refined_roots():
    par = CurveParams(4.0)
    pts = solve_points(0.7 + 0.1j, par)
    assert len(pts) == 6
    assert max(p.residual() for p in pts) < 1e-12
    sorted_again = sorted(pts, key=lambda p: (p.y.real, p.y.imag))
    assert [p.y for p in pts] == [p.y for p in sorted_again]


def test_solve_points_residuals_across_parameters(rng):
    for par in ALL_PARAMS:
        for _ in range(4):
            x = rng.normal() + 1j * rng.normal(scale=0.4)
            assert max(p.residual() for p in solve_points(x, par)) < 1e-12


def test_zw_map_lands_on_cubic(rng):
    for par in ALL_PARAMS:
        pts = sample_points(par, 10, rng)
        for p in pts:
            assert zw_map(p).residual() < 1e-10


def test_zw_map_singular_cases():
    par = CurveParams(2.0)
    with pytest.raises(ValueError, match="zw_map undefined"):
        zw_map(CurvePoint(par, 1.0, 0.0))
    with pytest.raises(ValueError, match="zw_map undefined"):
        zw_map(CurvePoint(par, 0.0, 1.0))


def test_cubic_factors_trivial_point():
    # the regular point sits on the C+ component (C- evaluates to 2 there)
    par = CurveParams(U_CRITICAL)
    cp, cm = cubic_factor_residuals(1.0, 0.0, par)
    assert cp == 0
    assert min(abs(cp), abs(cm)) == 0


def test_cubic_factors_vanish_on_curve(rng):
    par = CurveParams(U_CRITICAL)
    for p in sample_points(par, 20, rng):
        cp, cm = cubic_factor_residuals(p.x, p.y, par)
        assert min(abs(cp), abs(cm)) < 1e-9


def test_factorization_cofactor_is_unity(rng):
    # determined numerically: C equals the plain product C+ * C-
    par = CurveParams(U_CRITICAL)
    for _ in range(20):
        x = rng.normal() + 1j * rng.normal()
        y = rng.normal() + 1j * rng.normal()
        cp, cm = cubic_factor_residuals(x, y, par)
        ratio = eval_curve(x, y, par) / (cp * cm)
        assert abs(ratio - 1.0) < 1e-8


def test_cubic_factors_require_critical_coupling():
    with pytest.raises(ValueError, match="requires U = 2"):
        cubic_factor_residuals(1.0, 0.0, CurveParams(3.0))


def _critical_comparisons(path):
    """Lines of the comparisons in a module that have U_CRITICAL in an operand."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare) and any(
            (isinstance(n, ast.Name) and n.id == "U_CRITICAL")
            or (isinstance(n, ast.Attribute) and n.attr == "U_CRITICAL")
            for n in ast.walk(node)
        ):
            lines.append(node.lineno)
    return lines


def test_only_curve_compares_with_the_critical_coupling():
    # every other module asks `critical_side` which side of 2 sqrt(3) a coupling is on
    package = Path(__file__).resolve().parents[1] / "src" / "genus5chain"
    found = {p.name: _critical_comparisons(p) for p in sorted(package.glob("*.py"))}
    assert found.pop("curve.py")  # the scan does see curve's own comparisons
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_critical_couplings_values():
    lo, hi = critical_couplings()
    assert hi == pytest.approx(2 * np.sqrt(3), abs=1e-12)
    assert lo == -hi
    assert hi == pytest.approx(3.464101, abs=1e-6)


def _quartic_coeffs(u_val, par):
    """The cubic's W-discriminant (sqrt(eps)(Z^2 - eps) + U Z)^2 + 4 Z^2 / eps^2,
    expanded in Z, on the eps branch of par."""
    eps, seps = par.eps, par.sqrt_eps
    return [
        seps * seps,
        2 * seps * u_val,
        u_val * u_val - 2 * seps * seps * eps + 4 / (eps * eps),
        -2 * u_val * seps * eps,
        seps * seps * eps * eps,
    ]


U_GRID = np.round(np.arange(-1200, 1201) * 0.01, 2)  # U in [-12, 12], step 0.01


def _s_of(Z, par):
    return (Z - par.eps / Z) / (2j * par.sqrt_eps)


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_branch_points_match_the_expanded_quartic(sign):
    worst = 0.0
    for U in U_GRID:
        par = CurveParams(float(U), sign)
        got, ref = branch_points_z(par), np.roots(_quartic_coeffs(U, par))
        dist = np.abs(got[:, None] - ref[None, :])
        worst = max(worst, dist.min(axis=0).max(), dist.min(axis=1).max())
    assert worst < 1e-12


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_w_branch_point_meets_the_band_edge_only_at_the_critical_couplings(sign):
    # s = +-1 are where Z branches, the ends of the real-momentum band
    for U in [*U_GRID, -U_CRITICAL, U_CRITICAL]:
        par = CurveParams(float(U), sign)
        s = _s_of(branch_points_z(par), par)
        closest = np.abs(s[:, None] - np.array([1.0, -1.0])[None, :]).min()
        assert (closest < 1e-12) == (abs(U) == U_CRITICAL), U


def test_gap_is_the_distance_from_a_w_branch_point_to_the_band_edge():
    from genus5chain.thermo import gap

    for U in [*np.linspace(U_CRITICAL, 12.0, 200), 3.6, 4.0, 5.0, 8.0]:
        par = CurveParams(float(U))
        distance = np.abs(_s_of(branch_points_z(par), par) - 1.0).min()
        assert abs(distance - (U / 2 - np.sqrt(3))) < 1e-13
        if U in (3.6, 4.0, 5.0, 8.0):
            assert abs(distance - gap(U).value) < 1e-12


def _branch_discriminant(U):
    r = branch_points_z(CurveParams(float(np.real(U)) if abs(np.imag(U)) < 1e-30 else U))
    return np.prod([(r[i] - r[j]) ** 2 for i in range(4) for j in range(i + 1, 4)])


def test_critical_coupling_matches_discriminant_scan():
    # oracle: the elliptic double cover degenerates when two of the four
    # branch points in Z collide, i.e. the quartic discriminant vanishes
    grid = np.arange(0.5, 5.0, 0.02)
    vals = [abs(_branch_discriminant(u)) for u in grid]
    u = grid[int(np.argmin(vals))]

    def disc(u_complex):
        r = np.roots(_quartic_coeffs(u_complex, CurveParams(0.0)))
        return np.prod([(r[i] - r[j]) ** 2 for i in range(4) for j in range(i + 1, 4)])

    z = complex(u)
    for _ in range(80):
        f = disc(z)
        h = 1e-7
        df = (disc(z + h) - disc(z - h)) / (2 * h)
        step = f / df
        z -= step
        if abs(step) < 1e-12:
            break
    assert abs(z.imag) < 1e-8
    assert abs(z.real - U_CRITICAL) < 1e-6


def test_points_with_z_recover_prescribed_Z(rng):
    par = CurveParams(5.0)
    for k in (0.4, 1.3, -2.0):
        Z = np.exp(1j * k)
        pts = points_with_Z(Z, par)
        assert len(pts) >= 4
        for p in pts[:4]:
            assert p.residual() < 1e-11
            assert abs(zw_map(p).Z - Z) < 1e-9


def test_points_with_z_polishes_a_candidate_off_tolerance(monkeypatch):
    # algebraic candidates next to the regular point (1, 0), which |Z| of a few
    # hundred reaches, can miss the tolerance before the Newton polish; the
    # Jacobian is first evaluated at such a candidate
    starts, jacobian = [], _ZWSystem.jacobian
    monkeypatch.setattr(_ZWSystem, "jacobian",
                        lambda self, x, y: starts.append((x, y)) or jacobian(self, x, y))
    rng = np.random.default_rng(1)
    for _ in range(2000):
        Z = 10 ** rng.uniform(-3, 3) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        par = CurveParams(rng.uniform(-8, 8), ("plus", "minus")[rng.integers(2)])
        pts = points_with_Z(Z, par)
        if starts:
            break
    system, (x0, y0) = _ZWSystem(Z, par), starts[0]
    assert np.max(np.abs(system.value(x0, y0))) > 1e-12
    polished = [p for p in pts if abs(p.x - x0) + abs(p.y - y0) < 1e-9]
    assert len(polished) == 1
    assert np.max(np.abs(system.value(polished[0].x, polished[0].y))) <= 1e-12


def test_points_with_z_keeps_points_far_from_the_origin():
    # seeded draws of Z on the unit circle: draws 1000 and 1444 each have four
    # points with |x| ~ 10 and ~ 38, whose curve residual stalls at 7e-12 and
    # 2e-9 under rounding; an absolute 1e-12 tolerance dropped them
    rng = np.random.default_rng(1)
    draws = {}
    for i in range(1445):
        Z = np.exp(1j * rng.uniform(-np.pi, np.pi))
        par = CurveParams(rng.uniform(-8, 8), ("plus", "minus")[rng.integers(2)])
        if i in (1000, 1444):
            draws[i] = Z, par
    for Z, par in draws.values():
        pts = points_with_Z(Z, par)
        assert len(pts) == 8
        assert max(max(abs(p.x), abs(p.y)) for p in pts) > 9
        for p in pts:
            size = max(1.0, abs(p.x), abs(p.y)) ** 6
            assert p.residual() <= 1e-12 * size
            assert abs(zw_map(p).Z - Z) < 1e-12


@pytest.mark.parametrize("par", ALL_PARAMS)
def test_zw_jacobian_matches_central_difference(par):
    rng = np.random.default_rng(7)
    for p in sample_points(par, 6, rng):
        system = _ZWSystem(zw_map(p).Z, par)
        # on the curve, and off it as Newton iterates are
        for x, y in ((p.x, p.y), (p.x + 0.1 - 0.03j, 0.9 * p.y + 0.05j)):
            J = system.jacobian(x, y)
            h = 1e-7 * max(1.0, abs(x), abs(y))
            fx = (system.value(x + h, y) - system.value(x - h, y)) / (2 * h)
            fy = (system.value(x, y + h) - system.value(x, y - h)) / (2 * h)
            assert np.max(np.abs(J - np.column_stack([fx, fy]))) <= 1e-7 * np.max(np.abs(J))
