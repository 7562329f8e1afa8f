"""Genus-five spectral curve and its degree-four map onto an elliptic curve.

The curve in affine coordinates (x, y) is

    C(x, y) = (x^2 + y^2/eps) (x^2 + eps y^2)^2
              + U sqrt(eps) x y (x^2 + eps y^2) - x^2 + y^2 = 0,

with eps = exp(+-i pi/3).  The chain's branch eps = exp(+i pi/3) and its
square root are `EPS` and `SQRT_EPS`, the only place the package writes them;
the other branch takes their conjugates.  The pair

    Z = x (x^2 + eps y^2) / (eps y),   W = y (x^2 + eps y^2) / (eps x)

lands on the cubic

    sqrt(eps) (Z - eps/Z) + (1/sqrt(eps)) (W - 1/(eps W)) + U = 0,

which is genus one.  At U = +-2*sqrt(3) the genus-five curve splits into a
product of two cubics and the elliptic modulus of the image degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MapSingular, WrongCoupling

SQRT3 = np.sqrt(3.0)
U_CRITICAL = 2.0 * SQRT3
EPS = complex(np.exp(1j * np.pi / 3))
SQRT_EPS = complex(np.exp(1j * np.pi / 6))

# numerical zero for map/denominator checks
_ZERO_TOL = 1e-12
# curve residual |C| that fibre and Z-prescribed points are polished to
_POLISH_TOL = 1e-12


@dataclass(frozen=True)
class CurveParams:
    """Coupling U and the root-of-unity branch eps = exp(+-i pi/3)."""

    U: float
    eps_sign: str = "plus"

    def __post_init__(self):
        if self.eps_sign not in ("plus", "minus"):
            raise ValueError(f"eps_sign must be 'plus' or 'minus', got {self.eps_sign!r}")

    @property
    def eps(self) -> complex:
        return EPS if self.eps_sign == "plus" else EPS.conjugate()

    @property
    def sqrt_eps(self) -> complex:
        return SQRT_EPS if self.eps_sign == "plus" else SQRT_EPS.conjugate()


@dataclass(frozen=True)
class CurvePoint:
    params: CurveParams
    x: complex
    y: complex

    def residual(self) -> float:
        return abs(eval_curve(self.x, self.y, self.params))


@dataclass(frozen=True)
class EllipticPoint:
    Z: complex
    W: complex
    params: CurveParams

    def residual(self) -> float:
        return abs(cubic_relation(self.Z, self.W, self.params))


def eval_curve(x: complex, y: complex, params: CurveParams) -> complex:
    """Value of the defining polynomial C(x, y); zero on the curve."""
    eps = params.eps
    A = x * x + eps * y * y
    B = x * x + y * y / eps
    return B * A * A + params.U * params.sqrt_eps * x * y * A - x * x + y * y


def y_polynomial_coeffs(x: complex, params: CurveParams) -> np.ndarray:
    """Coefficients c[0..6] of C(x, y) = sum_k c[k] y^k at fixed x."""
    eps = params.eps
    seps = params.sqrt_eps
    U = params.U
    return np.array(
        [
            x**6 - x**2,
            U * seps * x**3,
            x**4 * (2 * eps + 1 / eps) + 1.0,
            U * seps * eps * x,
            x**2 * (eps * eps + 2.0),
            0.0,
            eps,
        ],
        dtype=complex,
    )


def _curve_dy(x: complex, y: complex, params: CurveParams) -> complex:
    c = y_polynomial_coeffs(x, params)
    return sum(k * c[k] * y ** (k - 1) for k in range(1, 7))


def solve_points(x: complex, params: CurveParams) -> list[CurvePoint]:
    """All six fibre points y over a fixed x, polished to |C| <= 1e-12.

    Roots come from the companion-matrix eigenvalues of the degree-six
    coefficient vector, then a Newton polish in y; returned sorted by
    (Re y, Im y) so runs are reproducible.
    """
    roots = np.roots(y_polynomial_coeffs(x, params)[::-1])
    out = []
    for y in roots:
        y = complex(y)
        for _ in range(100):
            F = eval_curve(x, y, params)
            if abs(F) <= 0.1 * _POLISH_TOL:
                break
            dF = _curve_dy(x, y, params)
            if abs(dF) < 1e-300:
                break
            step = F / dF
            y -= step
            if abs(step) < 1e-17 * max(1.0, abs(y)):
                break
        out.append(CurvePoint(params, complex(x), y))
    out.sort(key=lambda p: (p.y.real, p.y.imag))
    return out


def zw_map(p: CurvePoint) -> EllipticPoint:
    """Image (Z, W) of a curve point; singular at x = 0 or y = 0."""
    if abs(p.x) < _ZERO_TOL or abs(p.y) < _ZERO_TOL:
        raise MapSingular(f"zw_map undefined at x={p.x}, y={p.y}")
    eps = p.params.eps
    A = p.x * p.x + eps * p.y * p.y
    return EllipticPoint(p.x * A / (eps * p.y), p.y * A / (eps * p.x), p.params)


def cubic_relation(Z: complex, W: complex, params: CurveParams) -> complex:
    eps = params.eps
    seps = params.sqrt_eps
    return seps * (Z - eps / Z) + (W - 1.0 / (eps * W)) / seps + params.U


def cubic_factor_residuals(x: complex, y: complex, params: CurveParams) -> tuple[complex, complex]:
    """(C+, C-) with C+- = x^3 +- eps x^2 y + eps x y^2 -+ y^3/eps -+ x + y.

    Defined at the degeneration coupling U = 2*sqrt(3), where the full
    curve polynomial factorizes as C = C+ * C- (unit cofactor).
    """
    if critical_side(params.U) != 0:
        raise WrongCoupling(f"factorization requires U = 2*sqrt(3), got U={params.U}")
    eps = params.eps
    cp = x**3 + eps * x * x * y + eps * x * y * y - y**3 / eps - x + y
    cm = x**3 - eps * x * x * y + eps * x * y * y + y**3 / eps + x + y
    return cp, cm


def critical_side(U: float) -> int:
    """-1 below the degeneration coupling 2*sqrt(3), 0 within 1e-12 of it, +1 above (NaN: -1)."""
    return 0 if abs(U - U_CRITICAL) <= 1e-12 else (1 if U > U_CRITICAL else -1)


def critical_couplings() -> tuple[float, float]:
    """Couplings where the elliptic image degenerates: (-2*sqrt(3), +2*sqrt(3))."""
    return (-U_CRITICAL, U_CRITICAL)


def branch_points_z(params: CurveParams) -> np.ndarray:
    """Roots of the quartic in Z over which the cubic's double cover branches.

    Viewing the cubic as a quadratic in W, the W-discriminant cleared of
    denominators is (sqrt(eps)(Z^2 - eps) + U Z)^2 + 4 Z^2 / eps^2.
    """
    eps = params.eps
    seps = params.sqrt_eps
    U = params.U
    # expand (seps Z^2 + U Z - seps*eps)^2 + (4/eps^2) Z^2
    a4 = seps * seps
    a3 = 2 * seps * U
    a2 = U * U - 2 * seps * seps * eps + 4 / (eps * eps)
    a1 = -2 * U * seps * eps
    a0 = seps * seps * eps * eps
    return np.roots([a4, a3, a2, a1, a0])


def sample_points(params: CurveParams, n: int, rng: np.random.Generator) -> list[CurvePoint]:
    """Draw n generic on-curve points, avoiding map and weight singularities:
    |x| and |y| stay at least 0.05 and |x^2 + eps y^2| at least 1e-6."""
    eps = params.eps
    out: list[CurvePoint] = []
    while len(out) < n:
        x = rng.normal(loc=0.6, scale=0.5) + 1j * rng.normal(scale=0.35)
        pts = solve_points(x, params)
        p = pts[int(rng.integers(0, len(pts)))]
        if abs(p.x) < 0.05 or abs(p.y) < 0.05:
            continue
        if abs(p.x * p.x + eps * p.y * p.y) < 1e-6:
            continue
        out.append(p)
    return out


@dataclass(frozen=True)
class _ZWSystem:
    """Newton system for recovering (x, y) from a prescribed Z."""

    Z: complex
    params: CurveParams

    def value(self, x, y):
        eps = self.params.eps
        return np.array(
            [eval_curve(x, y, self.params), x**3 + eps * x * y * y - eps * self.Z * y],
            dtype=complex,
        )

    def jacobian(self, x, y):
        """Exact partials of (C, Z-constraint) in (x, y)."""
        eps = self.params.eps
        useps = self.params.U * self.params.sqrt_eps
        A = x * x + eps * y * y
        B = x * x + y * y / eps
        cx = 2 * x * A * A + 4 * x * A * B + useps * y * (A + 2 * x * x) - 2 * x
        return np.array(
            [
                [cx, _curve_dy(x, y, self.params)],
                [3 * x * x + eps * y * y, 2 * eps * x * y - eps * self.Z],
            ],
            dtype=complex,
        )


def points_with_Z(Z: complex, params: CurveParams) -> list[CurvePoint]:
    """Curve points whose zw_map has the prescribed Z coordinate.

    Candidates are built algebraically: W from the cubic (a quadratic in W),
    then A^2 = eps^2 Z W and x/y = eps Z / A fix (x, y) up to the overall
    sign.  Each candidate is polished by a 2x2 Newton iteration on
    (C = 0, Z-constraint = 0) and the list is sorted by curve residual,
    then lexicographically, so the choice is deterministic.
    """
    eps = params.eps
    seps = params.sqrt_eps
    # cubic as quadratic in W: (1/seps) W^2 + [seps (Z - eps/Z) + U] W - 1/(seps*eps) = 0
    qa = 1.0 / seps
    qb = seps * (Z - eps / Z) + params.U
    qc = -1.0 / (seps * eps)
    disc = np.sqrt(qb * qb - 4 * qa * qc)
    cands = []
    for W in ((-qb + disc) / (2 * qa), (-qb - disc) / (2 * qa)):
        for sign_a in (1.0, -1.0):
            A = sign_a * eps * np.sqrt(Z * W)
            rho = eps * Z / A  # x / y
            y = np.sqrt(A / (rho * rho + eps))
            x = rho * y
            cands.append((x, y))
            cands.append((-x, -y))
    system = _ZWSystem(Z, params)
    polished = []
    for x, y in cands:
        for _ in range(60):
            F = system.value(x, y)
            if max(abs(F[0]), abs(F[1])) < _POLISH_TOL:
                break
            try:
                dx, dy = np.linalg.solve(system.jacobian(x, y), F)
            except np.linalg.LinAlgError:
                break
            x, y = x - dx, y - dy
        F = system.value(x, y)
        if max(abs(F[0]), abs(F[1])) <= _POLISH_TOL and abs(x) > _ZERO_TOL and abs(y) > _ZERO_TOL:
            polished.append(CurvePoint(params, complex(x), complex(y)))
    polished.sort(key=lambda p: (p.residual(), p.x.real, p.x.imag, p.y.real, p.y.imag))
    # drop near-duplicates
    unique: list[CurvePoint] = []
    for p in polished:
        if all(abs(p.x - q.x) + abs(p.y - q.y) > 1e-9 for q in unique):
            unique.append(p)
    return unique
