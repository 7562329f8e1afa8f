"""Boltzmann weights and the 9x9 R-matrix of the three-state vertex model.

Weight conventions, with u_i = x_i^2 + eps y_i^2 and
m = x_1^2 x_2^2 - eps^2 y_1^2 y_2^2:

    a = x1 x2 / u2 + eps y1 y2 / u1
    b = y1 x2 / u2 - x1 y2 / u1
    bbar = eps y1 x2 / u1 - eps x1 y2 / u2
    d = x1 y1 (x2^2 - y2^2) / (u2 m) - x2 y2 (x1^2 - y1^2) / (u1 m)
    f = eps^2 x1 x2 y2^2 u1 / (u2 m) - x1^2 y1 y2 u2 / (u1 m)
        + y1 x2 (x1 y1 - eps^2 x2 y2) / m
    g = (1 + eps d^2 - b bbar) / (a + f)
    h = a + f / eps,   hbar = a + eps f

At the regular point x = 1, y = 0 for both arguments the matrix reduces to
the permutation of the two three-state spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import CurveParams, CurvePoint
from .errors import Singular

_DENOM_TOL = 1e-13


@dataclass(frozen=True)
class RWeights:
    a: complex
    b: complex
    b_bar: complex
    d: complex
    eps_d: complex  # eps * d, the weight of R's two eps d slots
    f: complex
    g: complex
    h: complex
    h_bar: complex


def weights(p1: CurvePoint, p2: CurvePoint) -> RWeights:
    """All eight independent weights for an (ordered) pair of curve points."""
    if p1.params != p2.params:
        raise ValueError("weight evaluation requires matching curve parameters")
    eps = p1.params.eps
    x1, y1, x2, y2 = p1.x, p1.y, p2.x, p2.y
    u1 = x1 * x1 + eps * y1 * y1
    u2 = x2 * x2 + eps * y2 * y2
    m = x1 * x1 * x2 * x2 - eps * eps * y1 * y1 * y2 * y2
    if abs(u1) < _DENOM_TOL:
        raise Singular("x1^2 + eps*y1^2 vanishes")
    if abs(u2) < _DENOM_TOL:
        raise Singular("x2^2 + eps*y2^2 vanishes")
    if abs(m) < _DENOM_TOL:
        raise Singular("x1^2*x2^2 - eps^2*y1^2*y2^2 vanishes")
    a = x1 * x2 / u2 + eps * y1 * y2 / u1
    b = y1 * x2 / u2 - x1 * y2 / u1
    b_bar = eps * y1 * x2 / u1 - eps * x1 * y2 / u2
    d = (x1 * y1 * (x2 * x2 - y2 * y2) / u2 - x2 * y2 * (x1 * x1 - y1 * y1) / u1) / m
    f = (
        eps * eps * x1 * x2 * y2 * y2 * u1 / (u2 * m)
        - x1 * x1 * y1 * y2 * u2 / (u1 * m)
        + y1 * x2 * (x1 * y1 - eps * eps * x2 * y2) / m
    )
    if abs(a + f) < _DENOM_TOL:
        raise Singular("a + f vanishes")
    eps_d = eps * d
    g = (1.0 + eps_d * d - b * b_bar) / (a + f)
    # h, hbar are defined through a and f; keep the same floating expressions
    h = a + f / eps
    h_bar = a + eps * f
    return RWeights(a, b, b_bar, d, eps_d, f, g, h, h_bar)


def assemble_r(w: RWeights, unit: float = 1.0) -> np.ndarray:
    """9x9 matrix on the ordered pair basis (s1, s2), s = 1..3 per space.

    Nineteen entries are populated; everything else is structurally zero,
    and every entry conserves the total spin of the pair under the labels
    (+1, 0, -1) for (1, 2, 3).  Four of them are the constant `unit`, which
    is 0 when w holds the derivatives of the weights.
    """
    R = np.zeros((9, 9), dtype=complex)
    R[0, 0] = w.a
    R[1, 1] = w.b
    R[1, 3] = unit
    R[2, 2] = w.f
    R[2, 4] = w.d
    R[2, 6] = w.h
    R[3, 1] = unit
    R[3, 3] = w.b_bar
    R[4, 2] = w.eps_d
    R[4, 4] = w.g
    R[4, 6] = w.d
    R[5, 5] = w.b_bar
    R[5, 7] = unit
    R[6, 2] = w.h_bar
    R[6, 4] = w.eps_d
    R[6, 6] = w.f
    R[7, 5] = unit
    R[7, 7] = w.b
    R[8, 8] = w.a
    return R


def r_matrix(p1: CurvePoint, p2: CurvePoint) -> np.ndarray:
    return assemble_r(weights(p1, p2))


_SWAP = np.arange(9).reshape(3, 3).T.ravel()  # pair code 3 s1 + s2 read as 3 s2 + s1


def permutation_matrix() -> np.ndarray:
    """P, the swap of the two three-state spaces; R(p, p) = P at every curve point p."""
    return np.eye(9)[_SWAP]


def bond_density(params: CurveParams) -> np.ndarray:
    """The chain's two-site density -d/dt [R(lam, p0) P] at lam = p0, plus U/4,
    on the curve branch of `params`.

    p0 = (x, y) = (1, 0) is the regular point: R(p0, p0) = P, so the
    transfer matrix T(lam, p0) is the shift at lam = p0, and summed over the
    bonds this density is -T^-1 dT/dt + L U/4 (the trace identity of a
    regular R-matrix).  The local parameter on the curve through p0 is
    t = sqrt(eps) y; there dC/dx = 4 and dC/dy = U sqrt(eps), so
    dx/dt = -U/4 and the weights' t-derivatives at (p0, p0) are

        a' = h' = hbar' = -U/4,   g' = U/4,   f' = 0,
        b' = d' = eps^(-1/2),     bbar' = (eps d)' = eps^(1/2),

    the four unit entries being constant.  eps^(-1/2) is taken as the exact
    conjugate of eps^(1/2), so the density keeps the site reflection
    P B P = conj(B) to the last bit; on the eps-minus branch it is the
    complex conjugate of the chain's.  U enters only on the diagonal.
    """
    U, s = params.U, params.sqrt_eps
    w = RWeights(a=-U / 4, b=s.conjugate(), b_bar=s, d=s.conjugate(), eps_d=s, f=0.0,
                 g=U / 4, h=-U / 4, h_bar=-U / 4)
    B = -assemble_r(w, unit=0.0)[:, _SWAP]
    B[np.diag_indices(9)] += U / 4
    return B


def nonzero_positions() -> set[tuple[int, int]]:
    """The nineteen structurally allowed (row, col) positions, 0-indexed."""
    return {
        (0, 0), (1, 1), (1, 3), (2, 2), (2, 4), (2, 6), (3, 1), (3, 3),
        (4, 2), (4, 4), (4, 6), (5, 5), (5, 7), (6, 2), (6, 4), (6, 6),
        (7, 5), (7, 7), (8, 8),
    }


_CODES = np.arange(27).reshape(3, 3, 3)  # triple-space code 9 s1 + 3 s2 + s3
# R13 and R23 are R12 with the codes of (s1, s2, s3) read as (s1, s3, s2) and (s2, s3, s1)
_SWAP_23 = np.ix_(*2 * [_CODES.transpose(0, 2, 1).ravel()])
_CYCLE = np.ix_(*2 * [_CODES.transpose(2, 0, 1).ravel()])


def _on_12(R9: np.ndarray) -> np.ndarray:
    """Lift a two-site R onto C^3 x C^3 x C^3, acting on spaces 1 and 2."""
    return np.einsum("abcd,ef->abecdf", R9.reshape(3, 3, 3, 3), np.eye(3)).reshape(27, 27)


def ybe_residual(p1: CurvePoint, p2: CurvePoint, p3: CurvePoint) -> float:
    """Max-norm defect of R12 R13 R23 - R23 R13 R12 on the triple space."""
    R12 = _on_12(r_matrix(p1, p2))
    R13 = _on_12(r_matrix(p1, p3))[_SWAP_23]
    R23 = _on_12(r_matrix(p2, p3))[_CYCLE]
    return float(np.max(np.abs(R12 @ R13 @ R23 - R23 @ R13 @ R12)))


def phase_shift(p1: CurvePoint, p2: CurvePoint) -> complex:
    """theta = (g f - eps d^2) / (a f); the two-body scattering phase."""
    w = weights(p1, p2)
    if abs(w.a * w.f) < _DENOM_TOL:
        raise Singular("a*f vanishes for this pair")
    return (w.g * w.f - w.eps_d * w.d) / (w.a * w.f)
