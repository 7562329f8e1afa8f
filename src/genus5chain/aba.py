"""Algebraic construction of transfer-matrix eigenvectors at small particle number.

The monodromy matrix is the un-traced ordered product of R-matrices,
applied as T_ij = sum_c A_ic (x) B_cj over the two half-chain factors of
`lattice.monodromy_halves` (the transfer matrix is assembled from the
same factors).  Its 3x3 auxiliary blocks T_ij act on the chain Hilbert
space, lower the total magnetization by the auxiliary spin difference,
and act triangularly on the fully polarized reference state:

    T_11 |0> = a(lam, mu)^L |0>,   T_22 |0> = bbar^L |0>,
    T_33 |0> = f^L |0>,            T_ij |0> = 0  for i > j.

m-particle states follow the two-step recursion

    phi_m(l1..lm) = T_12(l1) phi_{m-1}(l2..lm)
        - T_13(l1) sum_{j>=2} eps d(l1,lj)/f(l1,lj) * a(lj, mu)^L
          * prod_{k>=2, k!=j} a(lk,lj)/bbar(lk,lj) theta_<(lk,lj)
          * phi_{m-2}(.. without lj ..),

with theta_< the ordered phase shift (theta for earlier-listed arguments,
1 otherwise), and are on-shell eigenvectors once the rapidities satisfy
the Bethe equations.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .bethe import BetheRootSet, curve_points_for_roots, eigenvalue_lambda
from .curve import CurvePoint
from .errors import Singular
from .lattice import _code_spins, build_transfer_matrix, monodromy_halves, sector_basis
from .rmatrix import phase_shift, weights


def monodromy_apply(i: int, j: int, halves: tuple[np.ndarray, np.ndarray],
                    vec: np.ndarray) -> np.ndarray:
    """T_ij from the factors (A, B) of `lattice.monodromy_halves`, applied to a
    full-space vector or to the columns of a matrix."""
    A, B = halves
    rows = A.shape[1] * B.shape[1]
    if vec.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {vec.shape[0]}")
    # columns first; each is a matrix over the (hi, lo) half-chain codes
    V = vec.reshape(A.shape[1], B.shape[1], -1).transpose(2, 0, 1)
    out = sum(A[i - 1, :, c] @ V @ B[c, :, j - 1].T for c in range(3))
    return out.transpose(1, 2, 0).reshape(vec.shape)


def vacuum_state(L: int) -> np.ndarray:
    v = np.zeros(3**L, dtype=complex)
    v[0] = 1.0
    return v


def vacuum_values(lam: CurvePoint, mu: CurvePoint, L: int) -> tuple[complex, complex, complex]:
    """(a^L, bbar^L, f^L): diagonal monodromy eigenvalues on the vacuum."""
    w = weights(lam, mu)
    return w.a**L, w.b_bar**L, w.f**L


def _check_distinct(points: list[CurvePoint]):
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if (
                abs(points[i].x - points[j].x) + abs(points[i].y - points[j].y) < 1e-10
            ):
                raise Singular(f"rapidities {i} and {j} coincide")


def build_phi(points: list[CurvePoint], mu: CurvePoint, L: int) -> np.ndarray:
    """State vector phi_m for the given rapidity points (m = len(points) <= 3).

    phi of a point tuple needs phi of its tail and of the tail without each
    of its points; for m <= 3 those are phi of every subset of points[1:].
    Each is built once, grouped by leading point from the last point to the
    first, so every point's monodromy factors are built once and dropped
    before the next point's.
    """
    m = len(points)
    if m > 3:
        raise ValueError("eigenvector recursion implemented for m <= 3")
    _check_distinct(points)
    subs = [c for size in range(1, m) for c in combinations(range(1, m), size)] + [tuple(range(m))]
    phis = {(): vacuum_state(L)}
    for k in reversed(range(m)):
        halves = monodromy_halves(points[k], mu, L)
        for sub in (s for s in subs if s[0] == k):
            rest = sub[1:]
            drops = [phis[rest[:j] + rest[j + 1:]] for j in range(len(rest))]
            phis[sub] = _phi_step(points[k], halves, [points[i] for i in rest], phis[rest], drops,
                                  mu, L)
        del halves
    return phis[tuple(range(m))]


def _phi_step(lam1: CurvePoint, halves1: tuple, rest: list, phi_rest: np.ndarray, drops: list,
              mu: CurvePoint, L: int) -> np.ndarray:
    """T_12(lam1) phi(rest) - T_13(lam1) sum_j c_j phi(rest without its j-th point)."""
    out = monodromy_apply(1, 2, halves1, phi_rest)
    if not rest:
        return out
    correction = np.zeros_like(out)
    for pos_j, lam_j in enumerate(rest):  # position j = pos_j + 2 in 1-based labelling
        w1j = weights(lam1, lam_j)
        coeff = lam1.params.eps * w1j.d / w1j.f
        coeff *= weights(lam_j, mu).a ** L
        for pos_k, lam_k in enumerate(rest):
            if pos_k == pos_j:
                continue
            wkj = weights(lam_k, lam_j)
            coeff *= wkj.a / wkj.b_bar
            if pos_k < pos_j:
                coeff *= phase_shift(lam_k, lam_j)
        correction += coeff * drops[pos_j]
    return out - monodromy_apply(1, 3, halves1, correction)


def state_sector(phi: np.ndarray, L: int) -> int:
    """Magnetization sector carrying the state's weight; fails if more than
    a 1e-10 share of the norm lies outside it."""
    total = float(np.linalg.norm(phi))
    if total < 1e-13:
        raise Singular("state vector vanished")
    codes = np.flatnonzero(phi)
    weight = np.bincount(_code_spins(codes, L) + L, weights=np.abs(phi[codes]) ** 2,
                         minlength=2 * L + 1)
    best = int(np.argmax(weight))
    if np.sqrt(weight[best]) < (1 - 1e-10) * total:
        raise ValueError("state is not supported on a single sector")
    return best - L


def eigenstate_residual(
    phi: np.ndarray,
    lam_spectator: CurvePoint,
    rs: BetheRootSet,
    mu: CurvePoint,
) -> float:
    """Relative defect || T(lam) phi - Lambda(lam) phi || / || phi ||."""
    L = rs.L
    n = state_sector(phi, L)
    T = build_transfer_matrix(lam_spectator, mu, L, n).matrix
    lam_val = eigenvalue_lambda(lam_spectator, rs)
    sub = phi[sector_basis(L, n).codes]
    return float(np.linalg.norm(T @ sub - lam_val * sub) / np.linalg.norm(phi))


def exchange_symmetry_check(lam1: CurvePoint, lam2: CurvePoint, mu: CurvePoint, L: int) -> float:
    """Defect of phi_2(l1, l2) = theta(l1, l2) phi_2(l2, l1)."""
    phi_12 = build_phi([lam1, lam2], mu, L)
    phi_21 = build_phi([lam2, lam1], mu, L)
    theta = phase_shift(lam1, lam2)
    denom = np.linalg.norm(phi_12)
    if denom < 1e-13:
        raise Singular("phi_2 vanished")
    return float(np.linalg.norm(phi_12 - theta * phi_21) / denom)


def on_shell_eigenvector(rs: BetheRootSet, mu: CurvePoint) -> np.ndarray:
    """phi_m built from curve-point representatives of a solved root set."""
    return build_phi(curve_points_for_roots(rs), mu, rs.L)
