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

from .curve import CurvePoint
from .errors import Singular

_DENOM_TOL = 1e-13


@dataclass(frozen=True)
class RWeights:
    a: complex
    b: complex
    b_bar: complex
    d: complex
    f: complex
    g: complex
    h: complex
    h_bar: complex
    p1: CurvePoint
    p2: CurvePoint

    @property
    def eps(self) -> complex:
        return self.p1.params.eps


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
    g = (1.0 + eps * d * d - b * b_bar) / (a + f)
    # h, hbar are defined through a and f; keep the same floating expressions
    h = a + f / eps
    h_bar = a + eps * f
    return RWeights(a, b, b_bar, d, f, g, h, h_bar, p1, p2)


def assemble_r(w: RWeights) -> np.ndarray:
    """9x9 matrix on the ordered pair basis (s1, s2), s = 1..3 per space.

    Nineteen entries are populated; everything else is structurally zero,
    and every entry conserves the total spin of the pair under the labels
    (+1, 0, -1) for (1, 2, 3).
    """
    eps = w.eps
    R = np.zeros((9, 9), dtype=complex)
    R[0, 0] = w.a
    R[1, 1] = w.b
    R[1, 3] = 1.0
    R[2, 2] = w.f
    R[2, 4] = w.d
    R[2, 6] = w.h
    R[3, 1] = 1.0
    R[3, 3] = w.b_bar
    R[4, 2] = eps * w.d
    R[4, 4] = w.g
    R[4, 6] = w.d
    R[5, 5] = w.b_bar
    R[5, 7] = 1.0
    R[6, 2] = w.h_bar
    R[6, 4] = eps * w.d
    R[6, 6] = w.f
    R[7, 5] = 1.0
    R[7, 7] = w.b
    R[8, 8] = w.a
    return R


def r_matrix(p1: CurvePoint, p2: CurvePoint) -> np.ndarray:
    return assemble_r(weights(p1, p2))


def permutation_matrix() -> np.ndarray:
    P = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            P[3 * a + b, 3 * b + a] = 1.0
    return P


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
    return (w.g * w.f - w.eps * w.d * w.d) / (w.a * w.f)
