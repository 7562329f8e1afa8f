"""Correctness checks the benchmark applies to every result it times.

Each check raises `CheckFailed` with a one-line reason.  The properties are
computed here from the program's raw outputs (spectra, roots, densities,
R-matrices), not read from the program's own defect reports.  Table
tolerances are those of the package's acceptance suite.
"""

import math

import numpy as np

from reference import TABLE1, TABLE2, TABLE3, TABLE4, TABLE5, U_CRITICAL

_E3 = np.exp(1j * np.pi / 3)

TOL_TABLE2 = 1e-9
TOL_BULK_CRITICAL = 1e-7
TOL_TABLE3 = 1e-8
TOL_TABLE4 = 1e-8
TOL_TABLE5 = 1e-8
TOL_REFLECTION = 1e-9
TOL_CONJUGATE = 1e-9
TOL_E1 = 1e-10
TOL_BETHE_DEFECT = 1e-10
TOL_BETHE_ED = 1e-8
TOL_NORM = 1e-10
TOL_GAP = 1e-10
TOL_TRANSFER = 1e-8
TOL_YBE = 1e-10
TOL_EIGENVECTOR = 1e-10
# a level counts as real when |Im E| <= REAL_TOL * max(1, |Re E|)
REAL_TOL = 1e-8


class CheckFailed(Exception):
    """A result disagrees with the published value or a required property."""


def near(what, value, ref, tol):
    dev = abs(value - ref)
    if not dev <= tol:
        raise CheckFailed(f"{what}: {value!r} vs {ref!r}, deviation {dev:.3e} > {tol:.0e}")


def threshold(L, value):
    """Table 1 row; 1e-4 up to L = 6 and 1e-3 beyond."""
    near(f"table 1 L={L}", value, TABLE1[L], 1e-4 if L <= 6 else 1e-3)


def energy_per_site(key, L, value):
    """Table 2 finite-L row."""
    near(f"table 2 U={key} L={L}", value, TABLE2[key][L], TOL_TABLE2)


def bulk_energy(key, value):
    """Table 2 bulk row; the critical coupling has the looser quadrature bound."""
    tol = TOL_BULK_CRITICAL if key == "2sqrt3" else TOL_TABLE2
    near(f"table 2 U={key} bulk", value, TABLE2[key]["bulk"], tol)


def bethe_gap(key, L, value):
    near(f"table 3 U={key} L={L}", value, TABLE3[key][L], TOL_TABLE3)


def ed_gap(key, L, e0, e1):
    near(f"table 4 U={key} L={L}", e1 - e0, TABLE4[key][L], TOL_TABLE4)


def f0(key, L, value):
    near(f"table 5 U={key} L={L}", value, TABLE5[key][L], TOL_TABLE5)


def reflection(spec_plus, spec_minus):
    """spec H(U) = -spec H(-U), as a Hausdorff distance between the sets."""
    a = np.asarray(spec_plus)
    b = -np.asarray(spec_minus)
    if a.shape != b.shape:
        raise CheckFailed(f"reflection: {a.size} levels at +U vs {b.size} at -U")
    d = np.abs(a[:, None] - b[None, :])
    dist = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
    if not dist <= TOL_REFLECTION:
        raise CheckFailed(f"reflection: Hausdorff distance {dist:.3e}")


def conjugate_pairs(spec):
    """Every non-real level has its complex conjugate in the spectrum."""
    z = np.asarray(spec)
    off = np.abs(z.imag) > REAL_TOL * np.maximum(1.0, np.abs(z.real))
    if not off.any():
        return
    worst = float(np.max(np.min(np.abs(np.conj(z[off])[:, None] - z[None, :]), axis=1)))
    if not worst <= TOL_CONJUGATE:
        raise CheckFailed(f"conjugate pairs: unmatched level at distance {worst:.3e}")


def lowest_real(spec):
    """Smallest real part among the levels that are real."""
    z = np.asarray(spec)
    real = np.abs(z.imag) <= REAL_TOL * np.maximum(1.0, np.abs(z.real))
    if not real.any():
        raise CheckFailed("spectrum has no real level")
    return float(z.real[real].min())


def e1_relation(e1_plus, e1_minus, U, L):
    """E1(U) - E1(-U) = U L / 2 for the lowest sector-1 levels, even L."""
    near(f"E1 relation U={U:.6g} L={L}", e1_plus - e1_minus, U * L / 2.0, TOL_E1)


def bethe_defect(roots, L, U):
    """Largest residual of exp(i k_j L) = prod_{i != j} S(k_j, k_i)."""
    k = np.asarray(roots, dtype=complex)
    M = len(k)
    if M == 0:
        return 0.0
    s = np.sin(k - np.pi / 6)
    num = s[:, None] / _E3 - s[None, :] * _E3 + 0.5j * U
    den = s[:, None] * _E3 - s[None, :] / _E3 - 0.5j * U
    np.fill_diagonal(num, 1.0)
    np.fill_diagonal(den, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rhs = np.prod(num / den, axis=1)
        return float(np.max(np.abs(np.exp(1j * k * L) - rhs)))


def on_shell(roots, L, U):
    d = bethe_defect(roots, L, U)
    if not d <= TOL_BETHE_DEFECT:
        raise CheckFailed(f"Bethe defect {d:.3e} at L={L}, U={U:.6g}")


def bethe_energy(roots, n, U):
    """E = -sum 2 cos(k_j + pi/6) + n U / 2, required to be real."""
    e = complex(-np.sum(2.0 * np.cos(np.asarray(roots) + np.pi / 6)) + n * U / 2.0)
    if not abs(e.imag) <= 1e-10 * max(1.0, abs(e.real)):
        raise CheckFailed(f"Bethe energy {e} is not real")
    return e.real


def matches_lowest_level(e_bethe, spec, what):
    near(f"Bethe vs ED {what}", e_bethe, lowest_real(spec), TOL_BETHE_ED)


def density_norm(weights, values):
    """One root per site: the density integrates to one over the period."""
    near("density norm", float(np.sum(np.asarray(weights) * np.asarray(values))), 1.0, TOL_NORM)


def gap_closed_form(U, value):
    """Massive-phase gap Delta(U) = U/2 - sqrt(3)."""
    if not U > U_CRITICAL:
        raise CheckFailed(f"gap checked only above 2 sqrt(3), got U={U}")
    near(f"gap U={U:.6g}", value, U / 2.0 - math.sqrt(3.0), TOL_GAP)


def eigenvalue_in_spectrum(value, matrix):
    """The formula's transfer eigenvalue is an eigenvalue of T."""
    ev = np.linalg.eigvals(np.asarray(matrix))
    rel = float(np.min(np.abs(ev - value))) / max(1.0, abs(value))
    if not rel <= TOL_TRANSFER:
        raise CheckFailed(f"transfer eigenvalue off the spectrum of T by {rel:.3e} (relative)")


def _swap():
    P = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            P[3 * a + b, 3 * b + a] = 1.0
    return P


_P23 = np.kron(np.eye(3), _swap())


def ybe_defect(r12, r13, r23):
    """max |R12 R13 R23 - R23 R13 R12| on C^3 x C^3 x C^3 from three 9x9 R's."""
    eye = np.eye(3)
    A12 = np.kron(np.asarray(r12), eye)
    A23 = np.kron(eye, np.asarray(r23))
    A13 = _P23 @ np.kron(np.asarray(r13), eye) @ _P23
    return float(np.max(np.abs(A12 @ A13 @ A23 - A23 @ A13 @ A12)))


def yang_baxter(r12, r13, r23):
    d = ybe_defect(r12, r13, r23)
    if not d <= TOL_YBE:
        raise CheckFailed(f"Yang-Baxter defect {d:.3e}")


def eigenvector_residual(residual, eigenvalue):
    """|| T phi - Lambda phi || / || phi ||, relative to max(1, |Lambda|).

    The residual scales with the eigenvalue, which grows like |x|^L: at
    L = 8 it reaches 1e5, and rounding alone leaves 1e-9.
    """
    rel = residual / max(1.0, abs(eigenvalue))
    if not rel <= TOL_EIGENVECTOR:
        raise CheckFailed(f"ABA eigenvector residual {residual:.3e}, {rel:.3e} relative")
