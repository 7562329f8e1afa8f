"""Bethe-equation solvers for the spin-1 chain.

Momentum form, M = L - n roots per sector n:

    exp(i k_j L) = prod_{i != j}
        [sin(k_j - pi/6) e^{-i pi/3} - sin(k_i - pi/6) e^{+i pi/3} + i U/2]
        / [sin(k_j - pi/6) e^{+i pi/3} - sin(k_i - pi/6) e^{-i pi/3} - i U/2]

Logarithmic (real-root) form, stable for U >= 2*sqrt(3):

    L k_j = 2 pi Q_j + 2 sum_{i != j} arctan[ (s_j - s_i)
              / (sqrt(3)(s_j + s_i) - U) ],      s = sin(k - pi/6),

with ground-state branch numbers Q_j = (L - n - 1)/2 - (j - 1).  Energies
are E = -sum_j 2 cos(k_j + pi/6) + n U / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import curve as curve_mod
from . import thermo
from .curve import EPS, SQRT3, CurveParams, CurvePoint, critical_side, zw_map
from .errors import NoConvergence, Singular

ACCEPT_RESIDUAL = 1e-10
# a scattering or eigenvalue denominator below this is a pole
_POLE_TOL = 1e-13
_PAIR_POLE = "scattering denominator vanishes for a root pair"
# |Im k| below this counts as a real root in the two-string classification
_STRING_TOL = 1e-6
# sigma nodes of the counting function that seeds the log form
_SEED_NODES = 256
# log-form Newton steps of this many roots or more are solved by Jacobi sweeps
_SWEEP_CUTOFF = 256


@dataclass
class BetheRootSet:
    L: int
    n: int
    U: float
    roots: np.ndarray  # complex momenta k_j, length L - n
    Q: list | None = None
    residual: float = np.inf

    @property
    def z_values(self) -> np.ndarray:
        return np.exp(1j * self.roots)

    def to_json_dict(self) -> dict:
        return {
            "L": self.L,
            "n": self.n,
            "U": self.U,
            "eps_sign": "plus",  # the momentum form fixes eps = e^{i pi/3}
            "roots": [{"re": float(k.real), "im": float(k.imag)} for k in self.roots],
            "Q": None if self.Q is None else [float(q) for q in self.Q],
            "residual": float(self.residual),
        }


def ground_state_quantum_numbers(L: int, n: int) -> list[float]:
    """Branch numbers of the lowest state in sector n: (L-n-1)/2 - (j-1)."""
    if not 0 <= n <= L:
        raise ValueError(f"sector n={n} outside 0..L for L={L}")
    return [(L - n - 1) / 2.0 - j for j in range(L - n)]


def _pair_arrays(t: np.ndarray, a: complex, c: complex, rows: slice = slice(None)):
    """Scattering factors of rows j in `rows`, stacked as f[0] = num and f[1] = den:
    num[j, i] = t_j/a - t_i a + c, den[j, i] = t_j a - t_i/a - c, with exact ones
    on the diagonal, so row products run over the other roots.
    Momentum form: t = sin(k - pi/6), a = e^{i pi/3}, c = i U/2; Z form:
    t = Z - eps/Z, a = eps, c = -U sqrt(eps)."""
    q = np.array((t / a, t * a))
    f = q[:, rows, None] - q[::-1, None, :]
    f += np.array([c, -c])[:, None, None]
    # entry (j, j) of a block starting at row j0 lies at flat offset j0 + (j - j0)(M + 1)
    f.reshape(2, -1)[:, rows.indices(len(t))[0]::len(t) + 1] = 1.0
    return f


def _ratio_products(f: np.ndarray, what: str) -> np.ndarray:
    """prod_i num[j, i] / den[j, i] for each row of the factors f; Singular(what)
    when a denominator is below _POLE_TOL."""
    if f[1].size and np.min(np.abs(f[1])) < _POLE_TOL:
        raise Singular(what)
    return np.prod(f[0] / f[1], axis=-1)


def _blocked_ratio_products(t: np.ndarray, a: complex, c: complex, what: str) -> np.ndarray:
    """`_ratio_products` of the whole system, in blocks of thermo._ROW_BLOCK rows."""
    out = np.empty(len(t), dtype=complex)
    for j0 in range(0, len(t), thermo._ROW_BLOCK):
        rows = slice(j0, j0 + thermo._ROW_BLOCK)
        out[rows] = _ratio_products(_pair_arrays(t, a, c, rows), what)
    return out


def bethe_defect(rs: BetheRootSet) -> np.ndarray:
    """Residual of each momentum-form equation; zero on-shell."""
    k = np.asarray(rs.roots, dtype=complex)
    prods = _blocked_ratio_products(np.sin(k - np.pi / 6), EPS, 0.5j * rs.U, _PAIR_POLE)
    return np.exp(1j * k * rs.L) - prods


def bethe_defect_z(rs: BetheRootSet) -> np.ndarray:
    """Same system written in Z_j = exp(i k_j); agrees with the k-form."""
    Z = rs.z_values
    params = CurveParams(rs.U)
    prods = _blocked_ratio_products(Z - params.eps / Z, params.eps, -rs.U * params.sqrt_eps,
                                    "Z-form denominator vanishes")
    return Z**rs.L - prods


# ---------------------------------------------------------------------------
# real logarithmic form


def _phase_kernel(sa: np.ndarray, sb: np.ndarray, U: float, kernel: bool = True):
    """Pair phase at = arctan[(s_a - s_b) / D] of `thermo._pair_terms`, rows a and columns
    b, its s_a-derivative kern = (2 sqrt(3) s_b - U) / q and q = (s_a - s_b)^2 + D^2
    (None for both unless `kernel`).  q is symmetric bit for bit, so for sa = sb,
    rows of the s_b-derivative -kern.T come from the same q."""
    q, den = thermo._pair_terms(U, sa, sb)
    with np.errstate(divide="ignore", invalid="ignore"):
        at = np.arctan(q / den)
        if not kernel:
            return at, None, None
        q *= q
        den *= den
        q += den
        return at, (2 * SQRT3 * sb - U) / q, q


def _log_form_residual_and_jacobian(k: np.ndarray, L: int, U: float, Q: np.ndarray,
                                    J: np.ndarray | None = None, jacobian: bool = True):
    """Residual g_a = L k_a - 2 pi Q_a - 2 sum_b at[a, b] and its Jacobian
    J = diag(L - 2 c_a sum_b kern[a, b]) + 2 c_b kern[b, a], with the pair
    terms of a != b only, filled in blocks of thermo._ROW_BLOCK rows into J
    when an M x M array is given; the residual alone, with J None, unless
    `jacobian`."""
    s = np.sin(k - np.pi / 6)
    c2 = 2 * np.cos(k - np.pi / 6)
    w = 2 * SQRT3 * s - U
    M = len(k)
    phase_sums = np.empty(M)
    if J is None and jacobian:
        J = np.empty((M, M))
    for a0 in range(0, M, thermo._ROW_BLOCK):
        rows = slice(a0, a0 + thermo._ROW_BLOCK)
        at, kern, q = _phase_kernel(s[rows], s, U, jacobian)
        own = (np.arange(len(at)), np.arange(a0, a0 + len(at)))
        at[own] = 0.0
        phase_sums[rows] = at.sum(axis=1)
        if not jacobian:
            continue
        kern[own] = 0.0
        diag = L - c2[rows] * kern.sum(axis=1)
        del at, kern
        with np.errstate(divide="ignore", invalid="ignore"):
            kern_t = np.divide(w[rows, None], q, out=q)  # kern[b, a] for row a
        kern_t[own] = 0.0
        kern_t *= c2
        # the off-diagonal of diag(...) + 2 c_b kern[b, a] is 0.0 + 2 c_b kern[b, a],
        # which holds +0.0 where the product is -0.0
        np.add(kern_t, 0.0, out=J[rows])
        J[rows][own] = diag
    return L * k - 2 * np.pi * Q - 2 * phase_sums, J if jacobian else None


def _counting_function(k: np.ndarray, U: float, s: np.ndarray, ws: np.ndarray,
                       density: bool = True):
    """Bulk counting function Z(k) and its derivative sigma(k) at any momenta,
    by the Nystrom formula on the sigma nodes (sines s, weight times density ws):

        Z(k) = k / 2 pi - (1/pi) Integral arctan[(s(k) - s') / (sqrt(3)(s(k) + s') - U)]
                   sigma(k') dk',

    whose derivative is the right side of the sigma equation in `thermo`;
    sigma is None unless `density`.
    """
    # -kern is the sigma kernel
    at, kern, _ = _phase_kernel(np.sin(k - np.pi / 6), s, U, density)
    Z = k / (2 * np.pi) - at @ ws / np.pi
    if not density:
        return Z, None
    return Z, (1.0 - 2 * np.cos(k - np.pi / 6) * (kern @ ws)) / (2 * np.pi)


@lru_cache(maxsize=64)
def _counting_table(U: float):
    """Z over one period on half the step of the N = 256 sigma grid, with
    what `_counting_function` needs to evaluate it elsewhere.

    The half steps put a table point on k = 2 pi/3, where the critical
    density is singular and Z climbs steeply; a running maximum keeps the
    table increasing where the quadrature lets Z dip next to that point.
    """
    grid = thermo.solve_sigma(U, N=_SEED_NODES)
    s = np.sin(grid.nodes - np.pi / 6)
    ws = grid.weights * grid.values
    t = grid.nodes[0] + (np.pi / _SEED_NODES) * np.arange(2 * _SEED_NODES + 1)
    Z = _counting_function(t, U, s, ws, density=False)[0]
    return t, np.maximum.accumulate(Z), s, ws


def _log_form_start(L: int, U: float, Q: np.ndarray) -> np.ndarray:
    """Newton's start k_j = Z^{-1}(Q_j / L) for U >= 2 sqrt(3), down to 1e-12 below
    it; the free momenta 2 pi Q_j / L further below, where the density does not exist.

    The table inverse is refined by two Newton steps on Z with Z' = sigma,
    each kept only for the roots whose |Z - Q/L| it lowers: next to the
    singular point of the critical kernel the quadrature of Z is poor, and a
    step there need not bring a root closer.
    """
    if critical_side(U) < 0:
        return (2 * np.pi / L) * Q
    t, Ztab, s, ws = _counting_table(U)
    q = Q / L
    turns = np.floor(q - Ztab[0])  # Z(k + 2 pi) = Z(k) + 1
    k = np.interp(q - turns, Ztab, t) + 2 * np.pi * turns
    Z, sigma = _counting_function(k, U, s, ws)
    for _ in range(2):
        k_new = k - (Z - q) / sigma
        Z_new, sigma_new = _counting_function(k_new, U, s, ws)
        better = np.abs(Z_new - q) < np.abs(Z - q)
        k = np.where(better, k_new, k)
        Z = np.where(better, Z_new, Z)
        sigma = np.where(better, sigma_new, sigma)
    return k


def _log_form_step(J: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton's step x = J^{-1} g of the log form.

    J = D + O, its diagonal plus the pair terms, has D^{-1} O nearly
    nilpotent: at the converged roots of L = 1024 its spectral radius is
    0.012 at U = 5 and 0.275 at 2 sqrt(3) + 1e-9.  So from _SWEEP_CUTOFF roots
    up the step comes from Jacobi sweeps x <- D^{-1} (g - O x), started at
    D^{-1} g, until a sweep moves x by at most 1e-15 max|x|; O x is read from
    J with its diagonal zeroed for the sweeps and restored after them.  LU
    solves the step below the cutoff, where it is faster, and wherever D has a zero
    or non-finite entry, a sweep moves x by a non-finite amount or farther than the
    first sweep did, or 64 sweeps do not settle.  Raises LinAlgError if J is singular.
    """
    d = J.diagonal().copy()
    if len(g) >= _SWEEP_CUTOFF and np.isfinite(d).all() and np.all(d != 0):
        np.fill_diagonal(J, 0.0)
        try:
            x = g / d
            with np.errstate(over="ignore", invalid="ignore"):
                for sweep in range(64):
                    x_new = (g - J @ x) / d
                    moved = np.max(np.abs(x_new - x))
                    first = moved if sweep == 0 else first
                    if not np.isfinite(moved) or moved > first:
                        break
                    x = x_new
                    if moved <= 1e-15 * np.max(np.abs(x)):
                        return x
        finally:
            np.fill_diagonal(J, d)
    return np.linalg.solve(J, g)


def solve_log_form(L: int, n: int, U: float, Q: list | None = None) -> BetheRootSet:
    """Real momenta from the logarithmic equations by damped Newton, stopped
    once a step falls below 1e-13.

    For U >= 2*sqrt(3), down to 1e-12 below it, Newton starts at the roots
    of the bulk counting function, Z(k_j) = Q_j / L (`_log_form_start`).
    Finite-size corrections fall off exponentially in the massive phase, so
    at U >= 4 and L >= 256 that start is within rounding of the roots.
    Further below, Newton starts from the free momenta k_j = 2 pi Q_j / L.

    Each point is evaluated once: an accepted line-search trial brings its
    residual and Jacobian along, and a trial that rounds back to k ends the
    search, since every shorter step rounds back to k too.  Steps come from
    `_log_form_step`: Jacobi sweeps from _SWEEP_CUTOFF roots up, which work
    on the Jacobian in place, and LU below.  Once a step is solved, each
    trial's Jacobian is written over the old one's array, so one M x M
    Jacobian is held for the whole solve, with LAPACK's copy of it only
    where LU solves the step.  A trial whose step is
    below 1e-13 ends the iteration, accepted or not, so it is evaluated
    for its residual alone.

    Reliable for U >= 2*sqrt(3); below that range real roots destabilize
    and the solve raises NoConvergence when two momenta collide.
    """
    if Q is None:
        Q = ground_state_quantum_numbers(L, n)
    Qa = np.asarray(Q, dtype=float)
    M = L - n
    if len(Qa) != M:
        raise ValueError(f"expected {M} branch numbers, got {len(Qa)}")
    if not np.all(np.isfinite(Qa)):
        raise ValueError("branch numbers must be finite")
    shifted = Qa - (M - 1) / 2
    if not np.array_equal(shifted, np.round(shifted)):
        kind, parity = ("integers", "odd") if M % 2 else ("half-odd integers", "even")
        raise ValueError(f"branch numbers must be {kind} when M = L - n = {M} is {parity}")
    if np.any(np.abs(Qa) >= 2.0**52):
        # no double from 2**52 up is half-odd, none from 2**53 up is odd
        raise ValueError("branch numbers must lie below 2**52 in magnitude, "
                         "where their parity is still decidable")
    if M == 0:
        return BetheRootSet(L, n, U, np.zeros(0, dtype=complex), [], 0.0)
    k = _log_form_start(L, U, Qa)
    g, J = _log_form_residual_and_jacobian(k, L, U, Qa)
    last_step = np.inf
    for _ in range(200):
        try:
            step = _log_form_step(J, g)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"log-form Jacobian singular at U={U}, L={L}") from exc
        scale, stalled = 1.0, False
        gnorm, smax = np.max(np.abs(g)), np.max(np.abs(step))
        for _ in range(40):
            trial = k - scale * step
            if np.array_equal(trial, k):
                stalled = True
                break
            # J's step is solved: the trial's Jacobian overwrites it, unless
            # a step this short ends the iteration and no Jacobian is read again
            gt, _ = _log_form_residual_and_jacobian(trial, L, U, Qa, J, scale * smax >= 1e-13)
            if np.max(np.abs(gt)) < gnorm:
                k, g = trial, gt
                break
            scale /= 2
        else:
            k = k - scale * step
            g, _ = _log_form_residual_and_jacobian(k, L, U, Qa, J, scale * smax >= 1e-13)
        # the closest pair of momenta are neighbours once sorted
        if M > 1 and np.min(np.diff(np.sort(k))) < 1e-9:
            raise NoConvergence(f"momenta collided at U={U}, L={L}, n={n}: real roots unstable",
                                last=k)
        last_step = scale * smax
        # a step that rounds back to k would be solved again and again
        if last_step < 1e-13 or stalled:
            break
    if not last_step < 1e-13:
        raise NoConvergence(f"log form did not converge (last step {last_step:.2e})", last=k)
    rs = BetheRootSet(L, n, U, k.astype(complex), list(Qa))
    rs.residual = float(np.max(np.abs(bethe_defect(rs))))
    if rs.residual > ACCEPT_RESIDUAL:
        raise NoConvergence(f"converged iterate has defect {rs.residual:.2e}", last=k,
                            residual=rs.residual)
    return rs


# ---------------------------------------------------------------------------
# complex form


def _wrap(k: np.ndarray) -> np.ndarray:
    return (k.real + np.pi) % (2 * np.pi) - np.pi + 1j * k.imag


def _cylinder_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b|, broadcast, with the real parts compared on the circle of length 2 pi."""
    dr = np.abs(a.real - b.real)
    dr = np.minimum(dr, 2 * np.pi - dr)
    return np.hypot(dr, a.imag - b.imag)


def _min_distance(k: np.ndarray) -> float:
    """The closest pair's distance on the cylinder; inf for fewer than two roots."""
    M = len(k)
    if M < 2:
        return np.inf
    d = _cylinder_distances(k[:, None], k)
    d.flat[::M + 1] = np.inf
    return float(d.min())


# an unconverged complex Newton iterate with two roots closer than this is
# collapsing them (`solve_complex`)
_COLLAPSE_DISTANCE = 1e-3


def _cleared_defect(k: np.ndarray, L: int, U: float):
    """Pole-free residual exp(i k_j L) prod den - prod num, with row scales,
    the stacked momentum-form pair factors and exp(i k_j L), which
    `_cleared_jacobian` and the plain defect at convergence take from here.

    Near string formation the scattering denominators pinch zeros, which
    makes the ratio form ill-conditioned; the cleared form stays smooth
    through those couplings.  The returned scale per row is the magnitude
    sum of the two competing terms, for relative convergence tests.
    """
    f = _pair_arrays(np.sin(k - np.pi / 6), EPS, 0.5j * U)
    t2, d = np.multiply.reduce(f, axis=2)
    E = np.exp(1j * k * L)
    t1 = E * d
    return t1 - t2, np.abs(t1) + np.abs(t2) + 1.0, f, E


def _products_but_one(a: np.ndarray) -> np.ndarray:
    """out[..., i] = prod_{l != i} a[..., l], from exclusive prefix and suffix
    products along the last axis; no division, so a vanishing factor (a pinched
    pole) is safe."""
    pre, suf = np.ones((2,) + a.shape, dtype=a.dtype)
    np.cumprod(a[..., :-1], axis=-1, out=pre[..., 1:])
    np.cumprod(a[..., :0:-1], axis=-1, out=suf[..., -2::-1])
    return pre * suf


def _cleared_jacobian(k: np.ndarray, L: int, f: np.ndarray, E: np.ndarray) -> np.ndarray:
    """J[j, i] = d/dk_i of the cleared residual of row j, from the pair factors
    f and E = exp(i k L) of `_cleared_defect`.  With c = cos(k - pi/6), factor
    (j, i) has d/dk_j num = c_j/eps, den = c_j eps and d/dk_i num = -c_i eps,
    den = -c_i/eps; each term carries the product of the other factors."""
    M = len(k)
    c = np.cos(k - np.pi / 6)
    prods = _products_but_one(f)
    own = prods.reshape(2, -1)[:, ::M + 1]
    P = own[1].copy()  # the whole off-diagonal product of each den row
    own[...] = 0.0
    nsum, dsum = prods.sum(axis=2)
    J = E[:, None] * (-c / EPS) * prods[1] + (c * EPS) * prods[0]
    J.reshape(-1)[::M + 1] = 1j * L * E * P + c * (E * EPS * dsum - nsum / EPS)
    return J


def solve_complex(L: int, n: int, U: float, init: np.ndarray) -> BetheRootSet:
    """Newton solve of the momentum-form system in complex variables.

    The iteration runs on the pole-cleared residual, at most 150 steps, so
    string patterns that pinch a scattering pole remain reachable; the
    reported residual is the plain momentum-form defect, accepted up to
    ACCEPT_RESIDUAL.  Momenta are kept wrapped to Re k in (-pi, pi].

    Coincident momenta solve the equations only spuriously, so a run that
    collapses two roots is stopped: an iterate whose relative cleared defect
    is still above 1e-13 and whose closest pair of roots (on the cylinder)
    lies below min(1e-3, pi / 2L), a quarter of the free spacing, raises
    NoConvergence.  Every solve of the tests and the benchmark that converges
    keeps its roots 2.1e-3 or more apart at every iterate, while a trial that
    ends on coincident momenta passes below 1e-3 long before its defect
    does.  A converged iterate is still rejected with two roots closer than
    1e-6.  The closest pair is tracked by a lower bound: the last distance
    computed, less 2 scale max|step| for each accepted move (wrapping the real
    parts moves no distance on the cylinder).  The M x M distance table is
    built again only once that bound falls below twice the collapse
    distance, so both tests decide as if it were built at every iterate.

    Each point is evaluated once: its pair factors and exp(i k L) serve its
    cleared defect, its Jacobian and, at convergence, its plain defect.

    A run that stalls is stopped early: once the relative cleared defect has
    not fallen tenfold over the last 10 iterations, the solve raises
    NoConvergence.  Every solve of the tests and the benchmark that converges
    keeps that pace, while a fused-pair trial that cannot converge would
    otherwise crawl through all 150 damped steps.
    """
    k = _wrap(np.asarray(init, dtype=complex))
    if len(k) != L - n:
        raise ValueError(f"expected {L - n} initial momenta, got {len(k)}")
    collapsing = min(_COLLAPSE_DISTANCE, np.pi / (2 * L))
    with np.errstate(over="ignore", invalid="ignore"):
        F, row_scale, f, E = _cleared_defect(k, L, U)
        history = []  # the relative cleared defect of each iterate
        closest = -np.inf  # a lower bound on the closest pair's distance
        for _ in range(150):
            r = float((np.abs(F) / row_scale).max()) if len(F) else 0.0
            history.append(r)
            if not np.isfinite(F).all():
                raise NoConvergence("defect overflowed", last=k)
            if closest < 2 * collapsing:
                closest = _min_distance(k)
            if r < 1e-13:
                if closest < 1e-6:
                    raise NoConvergence("converged to coincident momenta", last=k, residual=r)
                rs = BetheRootSet(L, n, U, k)
                try:
                    plain = E - _ratio_products(f, _PAIR_POLE)
                    rs.residual = float(np.max(np.abs(plain))) if len(plain) else 0.0
                except Singular:
                    # exactly pole-pinched (isolated couplings during string
                    # formation): the ratio form is unevaluable, keep the
                    # relative cleared residual instead
                    rs.residual = r
                if rs.residual > ACCEPT_RESIDUAL:
                    raise NoConvergence(
                        "cleared form converged but the pole-pinched defect stays "
                        f"{rs.residual:.2e}",
                        last=k,
                        residual=rs.residual,
                    )
                return rs
            if closest < collapsing:
                raise NoConvergence("Newton collapsing two roots", last=k, residual=r)
            if len(history) > 10 and r > 0.1 * history[-11]:
                raise NoConvergence(f"complex Newton stalled at defect {r:.2e}", last=k,
                                    residual=r)
            J = _cleared_jacobian(k, L, f, E)
            try:
                step = np.linalg.solve(J, F)
            except np.linalg.LinAlgError as exc:
                raise NoConvergence("complex-form Jacobian singular") from exc
            scale, improved = 1.0, False
            for _ in range(55):
                trial = _wrap(k - scale * step)
                Ft, st, ft, Et = _cleared_defect(trial, L, U)
                if np.isfinite(Ft).all() and (np.abs(Ft) / st).max() < r:
                    improved = True
                    break
                scale /= 2
            if not improved:
                raise NoConvergence(f"line search stalled at defect {r:.2e}", last=k, residual=r)
            k, F, row_scale, f, E = trial, Ft, st, ft, Et  # the accepted trial is the next iterate
            closest -= 2 * scale * np.max(np.abs(step))
    raise NoConvergence("complex Newton exceeded 150 iterations", last=k,
                        residual=float((np.abs(F) / row_scale).max()))


def track_state(
    L: int,
    n: int,
    u_start: float,
    u_target: float,
    du: float = 0.05,
    kick: float = 1e-9,
) -> BetheRootSet:
    """Continue a root set in the coupling, growing strings as needed.

    Starts from the real log-form solution at u_start (which must lie in
    the stable range) and walks toward u_target
    with adaptive steps.  When plain Newton fails, the two closest real
    roots are fused into a trial conjugate pair; among converging trials
    the one of lowest real energy is kept, matching how string patterns
    descend from the real states above the critical coupling.

    Each plain step starts Newton from a secant predictor: after an accepted
    plain step the slope dk/dU = (k_new - k_old) / h is kept, and the next
    step of length h' starts from k + h' dk/dU (Allgower & Georg,
    *Introduction to Numerical Continuation Methods*, 2003).  A halved step
    keeps the slope; a fusion clears it, as the root set has changed shape.
    A continuation that gets stuck raises NoConvergence with the residual
    of the last solve that failed.
    """
    k = solve_log_form(L, n, u_start).roots
    u = u_start
    step = du
    direction = 1.0 if u_target >= u_start else -1.0
    rng = np.random.default_rng(20170601)
    slope = None  # dk/dU of the last accepted plain step
    last_residual = None
    while abs(u - u_target) > 1e-12:
        h = direction * min(step, abs(u_target - u))
        u_next = u + h
        guess = k if slope is None else k + h * slope
        trial_init = guess + 1j * kick * rng.standard_normal(len(k))
        try:
            rs_next = solve_complex(L, n, u_next, trial_init)
            if _moved_less_than(k, rs_next.roots, 0.5):
                slope = _wrap(rs_next.roots - k) / h
                k, u = rs_next.roots, u_next
                step = min(du, step * 1.7)
                continue
        except NoConvergence as exc:
            last_residual = exc.residual
        if step > du / 16:
            step /= 2
            continue
        # only once plain continuation is exhausted, let a close real pair
        # fuse into a conjugate two-string (the physical branch change)
        fused = _fuse_candidates(k, L, n, u_next)
        if fused is not None:
            k, u = fused.roots, u_next
            step, slope = du, None
            continue
        step /= 2
        if step < 1e-5:
            raise NoConvergence(f"continuation stuck at U={u:.6f}", last=k,
                                residual=last_residual)
    rs = BetheRootSet(L, n, u_target, k)
    rs.residual = float(np.max(np.abs(bethe_defect(rs)))) if len(k) else 0.0
    return rs


def _moved_less_than(old: np.ndarray, new: np.ndarray, bound: float) -> bool:
    """Whether each old root has a new one closer than `bound`.  Newton keeps each
    root's index, and a root's distance to its own successor bounds the distance
    to its nearest new root, so those M distances mostly decide it without the
    M x M table."""
    if np.max(_cylinder_distances(old, new)) < bound:
        return True
    return np.max(np.min(_cylinder_distances(old[:, None], new), axis=1)) < bound


def _fuse_candidates(k: np.ndarray, L: int, n: int, u_next: float):
    real_idx = [i for i in range(len(k)) if abs(k[i].imag) < 1e-8]
    if len(real_idx) < 2:
        return None
    pairs = sorted(
        (abs((k[i] - k[j]).real), i, j) for i in real_idx for j in real_idx if i < j
    )
    best = None
    for _, i, j in pairs[:2]:
        mean = 0.5 * (k[i] + k[j]).real
        for delta in (0.01, 0.03, 0.06, 0.1, 0.2):
            trial = k.copy()
            trial[i] = mean + 1j * delta
            trial[j] = mean - 1j * delta
            try:
                cand = solve_complex(L, n, u_next, trial)
            except NoConvergence:
                continue
            if not _moved_less_than(k, cand.roots, 0.6):
                continue  # jumped to an unrelated branch
            e = energy(cand)
            if isinstance(e, complex):
                continue
            if best is None or e < best[0]:
                best = (e, cand)
    return None if best is None else best[1]


# ---------------------------------------------------------------------------
# observables


def energy(rs: BetheRootSet):
    """E = -sum 2 cos(k_j + pi/6) + n U / 2; real when the imaginary part
    is at rounding level, complex otherwise.

    E is -d log Lambda/dt at the regular point plus L U/4, as H is of the
    transfer matrix (`lattice`), with t = sqrt(eps) y.  Near that point the
    first term of `eigenvalue_lambda` dominates: each root's factor gives
    -2 cos(k_j + pi/6) - U/2 and x^L gives L U/4, so the L - n roots and the
    constant sum to the formula above."""
    e = -np.sum(2 * np.cos(rs.roots + np.pi / 6)) + rs.n * rs.U / 2.0
    if abs(e.imag) < 1e-10 * max(1.0, abs(e.real)):
        return float(e.real)
    return complex(e)


def finite_size_gap(L: int, U: float) -> float:
    """E1 - E0 from the log-form lowest states of sectors 1 and 0."""
    e0 = energy(solve_log_form(L, 0, U))
    e1 = energy(solve_log_form(L, 1, U))
    return float(e1 - e0)


def eigenvalue_lambda(lam: CurvePoint, rs: BetheRootSet) -> complex:
    """Transfer-matrix eigenvalue at spectator point lam, inhomogeneity at
    the regular point.

    With (Z, W) the elliptic image of lam and Z_i = exp(i k_i):

        Lambda / x^L = prod_i (y/(eps x)) (eps + Z_i/W) / (1 - Z_i/Z)
          + Z^{-L} prod_i [same factor] * S(Z, Z_i)
          + (W/Z)^L prod_i (y/x) (eps + Z Z_i) / (W Z_i - 1),

    where S(Z, Z_i) is the scattering factor of `bethe_defect_z`, Z one more root.
    """
    params = lam.params
    eps = params.eps
    zp = zw_map(lam)  # refuses x = 0 or y = 0 with a ValueError
    Z, W = zp.Z, zp.W
    Zi = rs.z_values
    x, y = lam.x, lam.y
    d1 = 1.0 - Zi / Z
    d3 = W * Zi - 1.0
    t = np.concatenate(([Z - eps / Z], Zi - eps / Zi))
    s_num, s_den = _pair_arrays(t, eps, -rs.U * params.sqrt_eps, slice(1))[:, 0, 1:]
    for name, arr in (("1 - Z_i/Z", d1), ("W Z_i - 1", d3), ("scattering", s_den)):
        if len(arr) and np.min(np.abs(arr)) < _POLE_TOL:
            raise Singular(f"eigenvalue denominator {name} vanishes")
    base = (y / (eps * x)) * (eps + Zi / W) / d1
    term1 = np.prod(base)
    term2 = Z ** (-rs.L) * np.prod(base * (s_num / s_den))
    term3 = (W / Z) ** rs.L * np.prod((y / x) * (eps + Z * Zi) / d3)
    return complex(x**rs.L * (term1 + term2 + term3))


@dataclass
class RootClassification:
    reals: list
    strings: list  # list of (k, conj partner) pairs
    unpaired: list

    @property
    def n_strings(self) -> int:
        return len(self.strings)


def classify_roots(rs: BetheRootSet) -> RootClassification:
    """Split roots into real ones and conjugate two-strings."""
    reals, complexes = [], []
    for k in rs.roots:
        (reals if abs(k.imag) < _STRING_TOL else complexes).append(complex(k))
    strings, unpaired = [], []
    used = [False] * len(complexes)
    for i, k in enumerate(complexes):
        if used[i]:
            continue
        best, best_d = None, np.inf
        for j in range(i + 1, len(complexes)):
            if used[j]:
                continue
            d = abs(np.conj(k) - complexes[j])
            if d < best_d:
                best, best_d = j, d
        if best is not None and best_d < 10 * _STRING_TOL + 1e-3 * abs(k.imag):
            used[i] = used[best] = True
            strings.append((k, complexes[best]))
        else:
            used[i] = True
            unpaired.append(k)
    return RootClassification(reals, strings, unpaired)


def curve_points_for_roots(rs: BetheRootSet) -> list[CurvePoint]:
    """Deterministic curve-point representatives with Z(p) = exp(i k_j)."""
    params = CurveParams(rs.U)
    out = []
    for Z in rs.z_values:
        cands = curve_mod.points_with_Z(Z, params)
        if not cands:
            raise NoConvergence(f"no curve point found for Z={Z}")
        out.append(cands[0])
    return out
