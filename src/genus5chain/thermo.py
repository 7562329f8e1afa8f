"""Bulk root density, energy and mass gap for U >= 2*sqrt(3), as `curve.critical_side` decides.

With s = sin(k - pi/6) and D(s, s') = 1 / [(s - s')^2 + (U - sqrt(3)(s + s'))^2],
the ground-state density sigma(k) on a period [k0, k0 + 2 pi] solves

    2 pi sigma(k) = 1 + 2 cos(k - pi/6) Integral (U - 2 sqrt(3) s') D(s, s') sigma(k') dk';

its integral over the period equals one root per site.  Removing one root
drives the back-flow density rho(k), which solves the homogeneous equation

    2 pi rho(k) = Integral cos(k' - pi/6) (U + 2 sqrt(3) s) D(s, s') rho(k') dk',

and collapses to zero (the iteration operator annihilates constants and,
by the reflection symmetry about k = 2 pi/3, squares to zero).  The gap is

    Delta(U) = U/2 - sqrt(3) + 2 Integral sin(k + pi/6) rho(k) dk,

which reduces to U/2 - sqrt(3) once rho vanishes.

The drive 2 cos(k - pi/6) is odd under k -> 4 pi/3 - k, and the integral sees
k' only through s', which is even, so the sigma iteration operator squares to
zero too: sigma is one kernel application to the uniform start.  D sees k only
through s, so the sigma solve folds reflected node pairs onto N/2 nodes and
applies D in one pass over its lower triangle in row blocks; no kernel is
stored.  The rho solve keeps all N nodes in a dense kernel: a fold would build
in the collapse and the nilpotency it checks.  D's pair terms s - s' and
sqrt(3)(s + s') - U are formed only in `_pair_terms`, which `bethe` shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import SQRT3, critical_side
from .errors import KernelSingular, NoConvergence

# the sigma-kernel denominator vanishes only at k = k' = K_SINGULAR when
# U = 2*sqrt(3); grids are phased so nodes sit symmetrically around it
K_SINGULAR = 2.0 * np.pi / 3.0
_ROW_BLOCK = 64


@dataclass
class DensityGrid:
    k0: float
    N: int
    U: float
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    kind: str  # "sigma" or "rho"

    def norm(self) -> float:
        """Quadrature of the density over the period."""
        return float(np.sum(self.weights * self.values))


def _grid(U: float, N: int, k0: float):
    """Uniform periodic nodes, phased symmetrically about K_SINGULAR.

    The iteration kernels are even under reflection about 2 pi/3, which maps
    node a to node (j - a) mod N, while the driving cosine is odd; a
    reflection-symmetric node set preserves that cancellation exactly in
    quadrature, which keeps the fixed point stable arbitrarily close to the
    critical coupling.  k0 is honored up to a shift below one half grid
    spacing.  Node a's pair index is |2a - j| // 2, with 2a - j reduced into [-N, N).
    """
    if N < 256 or N % 2:
        raise ValueError("need an even node count N >= 256")
    h = 2 * np.pi / N
    j = round(2.0 * (K_SINGULAR - k0) / h)
    t0 = K_SINGULAR - 0.5 * j * h
    nodes = t0 + h * np.arange(N)
    return nodes, np.full(N, h), np.abs((2 * np.arange(N) - j + N) % (2 * N) - N) // 2


def _pair_terms(U: float, sa: np.ndarray, sb: np.ndarray):
    """s_a - s_b and sqrt(3)(s_a + s_b) - U for rows a and columns b, each built in one
    array; their ratio is the tangent of the pair phase, the sum of their squares 1/D."""
    diff = sa[:, None] - sb
    den = sa[:, None] + sb
    den *= SQRT3
    den -= U
    return diff, den


def _denominator_rows(U: float, si: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows D(si, s) of the inverse denominator; raises KernelSingular where 1/D vanishes."""
    diff, den = _pair_terms(U, si, s)
    den *= den
    diff *= diff
    den += diff
    if np.min(den) < 1e-14:
        raise KernelSingular(
            f"kernel denominator vanishes on the grid at U={U}; refine N or move k0"
        )
    return np.reciprocal(den, out=den)


def _apply_denominator(U: float, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """D(s, s) v in one pass over D's lower triangle; no kernel is stored.

    Rows are built in blocks of _ROW_BLOCK against the columns up to the
    block's last row: a block gives its own rows, and by symmetry its
    transpose gives the columns above.  Each entry of D is built once, and
    the entries checked for a vanishing 1/D are all of D's values.
    """
    out = np.empty(len(s))
    for i0 in range(0, len(s), _ROW_BLOCK):
        i1 = min(i0 + _ROW_BLOCK, len(s))
        rows = _denominator_rows(U, s[i0:i1], s[:i1])
        out[i0:i1] = rows @ v[:i1]
        out[:i0] += v[i0:i1] @ rows[:, :i0]
        del rows  # released before the next block is built
    return out


def _anderson_step(x_hist, g_hist):
    """Anderson mixing over the stored history (type-II, small window).

    No solver calls it since sigma is one step; `perfbench/speed.py` still
    hooks it by name.
    """
    m = len(x_hist)
    r_hist = [g - x for g, x in zip(g_hist, x_hist)]
    if m == 1:
        return g_hist[0]
    dr = np.stack([r_hist[i + 1] - r_hist[i] for i in range(m - 1)], axis=1)
    try:
        gamma, *_ = np.linalg.lstsq(dr, r_hist[-1], rcond=None)
    except np.linalg.LinAlgError:
        return g_hist[-1]
    g = g_hist[-1].copy()
    for i in range(m - 1):
        g -= gamma[i] * (g_hist[i + 1] - g_hist[i])
    return g


def solve_sigma(U: float, N: int = 2048, k0: float = -np.pi) -> DensityGrid:
    """Root density sigma = (1 + drive K(1/(2 pi))) / (2 pi), one kernel
    application to the uniform start, which is the fixed point.

    One more step adds drive K(drive g(s)) for some g, which vanishes with
    the pair sums of the quadrature-weighted drive; NoConvergence is raised,
    with their largest magnitude as `residual`, if one exceeds 1e-14.
    Valid for U >= 2*sqrt(3), down to 1e-12 below it.  The normalization
    of the result is checked by the caller (it is not imposed).
    """
    if critical_side(U) < 0:
        raise ValueError(f"density equation requires U >= 2*sqrt(3), got U={U}")
    nodes, w, pair = _grid(U, N, k0)
    drive = 2.0 * np.cos(nodes - np.pi / 6)
    defect = float(np.max(np.abs(np.bincount(pair, w * drive))))
    if defect > 1e-14:
        raise NoConvergence(f"drive pair sums reach {defect:.2e}; sigma is not one step",
                            residual=defect)
    s = np.bincount(pair, np.sin(nodes - np.pi / 6)) / np.bincount(pair)
    # the kernel is D diag(U - 2 sqrt(3) s) on the pair sums
    Kf = _apply_denominator(U, s, (U - 2 * SQRT3 * s) * np.bincount(pair, w / (2 * np.pi)))
    return DensityGrid(k0, N, U, nodes, w, (1.0 + drive * Kf[pair]) / (2 * np.pi), "sigma")


def bulk_energy(grid: DensityGrid) -> float:
    """Ground-state energy per site, -2 Integral cos(k + pi/6) sigma(k) dk."""
    if grid.kind != "sigma":
        raise ValueError("bulk energy needs a sigma grid")
    return float(-2.0 * np.sum(np.cos(grid.nodes + np.pi / 6) * grid.values * grid.weights))


def _nilpotency_defect(K: np.ndarray) -> float:
    """||K(Kv)||_2 / (||K||_inf ||Kv||_2) for a seeded random v: zero when K
    squares to zero, of order one when K is not nilpotent."""
    Kv = K @ np.random.default_rng(52).standard_normal(len(K))
    scale = np.linalg.norm(K, np.inf) * np.linalg.norm(Kv)
    return float(np.linalg.norm(K @ Kv) / scale) if scale else 0.0


def solve_rho(U: float, N: int = 1024, k0: float = -np.pi) -> tuple[DensityGrid, float]:
    """Back-flow density and the nilpotency defect of its operator.

    The homogeneous equation is iterated from the unit density until rho
    falls below 1e-12 or an update moves it by less than 1e-13.  The unit
    start is annihilated in one step, so it cannot show that the operator
    squares to zero; the defect checks that on a seeded random vector with
    two matrix-vector products.  Refuses U within 1e-12 above 2*sqrt(3) too.
    """
    if critical_side(U) <= 0:
        raise ValueError(f"back-flow equation requires U > 2*sqrt(3), got U={U}")
    nodes, w, _ = _grid(U, N, k0)
    s = np.sin(nodes - np.pi / 6)
    K = np.empty((N, N))
    for i0 in range(0, N, _ROW_BLOCK):
        K[i0:i0 + _ROW_BLOCK] = _denominator_rows(U, s[i0:i0 + _ROW_BLOCK], s)
    K *= (U + 2 * SQRT3 * s)[:, None]
    K *= np.cos(nodes - np.pi / 6) * w / (2 * np.pi)
    rho = np.ones(N)
    delta = np.inf
    for _ in range(200):
        new = K @ rho
        delta = float(np.max(np.abs(new - rho)))
        rho = new
        if np.max(np.abs(rho)) < 1e-12 or delta < 1e-13:
            break
    else:
        raise NoConvergence(f"rho iteration stalled at delta={delta:.2e}", last=rho)
    return DensityGrid(k0, N, U, nodes, w, rho, "rho"), _nilpotency_defect(K)


@dataclass
class GapEstimate:
    value: float
    rho_sup: float
    nilpotency_defect: float
    U: float


def gap(U: float, N: int = 1024, k0: float = -np.pi) -> GapEstimate:
    """Lowest excitation energy Delta(U) = U/2 - sqrt(3) + back-flow term.

    The back-flow integral is evaluated from the solved rho; with the
    collapse rho -> 0 the value reduces to U/2 - sqrt(3).  The nilpotency
    defect of the back-flow operator checks that the collapse is exact.
    Within 1e-12 of the critical coupling the homogeneous solve is skipped
    and the boundary value 0 is returned.
    """
    if critical_side(U) < 0:
        raise ValueError(f"gap formula requires U >= 2*sqrt(3), got U={U}")
    if critical_side(U) == 0:
        return GapEstimate(0.0, 0.0, 0.0, U)
    grid, defect = solve_rho(U, N=N, k0=k0)
    backflow = 2.0 * np.sum(np.sin(grid.nodes + np.pi / 6) * grid.values * grid.weights)
    return GapEstimate(
        float(U / 2.0 - SQRT3 + backflow),
        float(np.max(np.abs(grid.values))),
        defect,
        U,
    )
