"""Spin-1 chain and transfer matrix on L periodic sites, per magnetization sector.

The chain Hamiltonian (eps = exp(+i pi/3) branch) is

    H(U) = sum_j { -exp(+i pi/6)/2 S+_j S-_{j+1} - exp(-i pi/6)/2 S-_j S+_{j+1}
                   + i/2 (Sz S+)_j S-_{j+1} - i/2 S-_j (Sz S+)_{j+1}
                   + U/2 (Sz_j)^2 },

with spin-1 ladder operators and (Sz S+) the matrix product applying S+
first.  The operator ordering and chain orientation are pinned by two
facts checked in the tests: H commutes with the transfer matrix built
from the same R-matrix, and on the constructed eigenvectors it takes the
value -sum 2 cos(k_j + pi/6) + n U/2 at the same momenta that enter the
transfer-matrix eigenvalue.  (The site-reflected variant has an identical
spectrum but fails both checks.)

H is not Hermitian: complex eigenvalues appear in conjugate pairs, while
low-lying levels stay real, and above a size-dependent coupling the whole
spectrum is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eig

from .curve import CurvePoint
from .errors import BracketInvalid, ConvergenceFailure
from .rmatrix import r_matrix

SP = np.sqrt(2.0) * np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
SM = np.sqrt(2.0) * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
_ID3 = np.eye(3, dtype=complex)

# (Sz S+): apply S+ first, then Sz; raises only on the 0 -> +1 rung
_SZSP = SZ @ SP

_E_PLUS = np.exp(1j * np.pi / 6)
_E_MINUS = np.exp(-1j * np.pi / 6)

DENSE_LIMIT = 20000
_DENSE_EIG_CUTOFF = 900  # dims above this use ARPACK in "lowest" mode


def bond_hamiltonian(U: float) -> np.ndarray:
    """Two-site operator; the on-site U-term is attached to the right site."""
    return (
        (-_E_PLUS / 2) * np.kron(SP, SM)
        + (-_E_MINUS / 2) * np.kron(SM, SP)
        + (1j / 2) * np.kron(_SZSP, SM)
        + (-1j / 2) * np.kron(SM, _SZSP)
        + (U / 2) * np.kron(_ID3, SZ @ SZ)
    )


@dataclass(frozen=True)
class SectorBasis:
    """Configurations of {+1, 0, -1}^L with total spin n, as sorted base-3 codes.

    Site labels 0, 1, 2 carry spins +1, 0, -1.  A configuration's code is
    its label string read as a base-3 integer, site 0 the most significant
    digit, so the code equals the configuration's index in the full 3^L
    space (`aba` relies on this) and ascending codes list the states in
    lexicographic order of their label strings.  `codes` is read-only and
    fixed by (L, n).
    """

    L: int
    n: int
    codes: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.codes)

    def digits(self) -> np.ndarray:
        """(dim, L) site labels of every state."""
        return self.codes[:, None] // 3 ** np.arange(self.L - 1, -1, -1) % 3


def _code_spins(codes: np.ndarray, L: int) -> np.ndarray:
    """Total spin of each L-site base-3 code."""
    spin, rest = np.zeros_like(codes), codes
    for _ in range(L):
        rest, label = np.divmod(rest, 3)
        spin += 1 - label
    return spin


@lru_cache(maxsize=None)
def sector_basis(L: int, n: int) -> SectorBasis:
    if not (-L <= n <= L):
        raise ValueError(f"sector n={n} out of range for L={L}")
    codes = np.arange(3**L, dtype=np.int64)
    codes = codes[_code_spins(codes, L) == n]
    codes.setflags(write=False)
    return SectorBasis(L, n, codes)


def sector_dimension(L: int, n: int) -> int:
    return sector_basis(L, n).dim


@dataclass(frozen=True)
class LatticeOperator:
    sector: SectorBasis
    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.sector.dim


def _apply_bond_terms(basis: SectorBasis, bond: np.ndarray) -> sp.csr_matrix:
    """Sum of `bond` over the L periodic bonds, one vectorized pass per bond."""
    L, codes = basis.L, basis.codes
    labels = basis.digits()
    nz = {c: np.nonzero(np.abs(bond[:, c]) > 1e-15)[0] for c in range(9)}
    rows, cols, vals = [], [], []
    for j in range(L):
        jp = (j + 1) % L
        pair = 3 * labels[:, j] + labels[:, jp]
        for c in range(9):
            src = np.nonzero(pair == c)[0]
            for r in nz[c]:
                shift = (r // 3 - c // 3) * 3 ** (L - 1 - j) + (r % 3 - c % 3) * 3 ** (L - 1 - jp)
                rows.append(np.searchsorted(codes, codes[src] + shift))
                cols.append(src)
                vals.append(np.full(len(src), bond[r, c]))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
        dtype=complex,
    )


def build_hamiltonian(U: float, L: int, n: int) -> LatticeOperator:
    """H(U) restricted to the magnetization-n sector, periodic boundaries."""
    if L < 2:
        raise ValueError("need at least two sites")
    basis = sector_basis(L, n)
    return LatticeOperator(basis, _apply_bond_terms(basis, bond_hamiltonian(U)))


def _shift_targets(basis: SectorBasis) -> np.ndarray:
    """Index of the translate of every state (site k takes site k + 1's label)."""
    top = 3 ** (basis.L - 1)
    return np.searchsorted(basis.codes, basis.codes % top * 3 + basis.codes // top)


def shift_operator(L: int, n: int) -> sp.csr_matrix:
    """Translation by one site on the sector basis (site k takes site k + 1's label)."""
    basis = sector_basis(L, n)
    rows = _shift_targets(basis)
    return sp.csr_matrix(
        (np.ones(basis.dim), (rows, np.arange(basis.dim))), shape=(basis.dim, basis.dim)
    )


def _roots_of_unity(L: int) -> np.ndarray:
    """w[a] = exp(-2 pi i a / L); for even L, w[a + L/2] == -w[a] exactly.

    The exact half-turn sign keeps the U <-> -U reflection exact block by
    block: the staggered sign that maps H(U) to -H(-U) moves momentum m to
    m + n L / 2, and maps the phases of one block onto the other's bit for bit.
    """
    if L % 2:
        return np.exp(-2j * np.pi * np.arange(L) / L)
    half = np.exp(-2j * np.pi * np.arange(L // 2) / L)
    return np.concatenate([half, -half])


@lru_cache(maxsize=None)
def momentum_blocks(L: int, n: int) -> tuple[sp.csr_matrix, ...]:
    """Sector isometries V_0 .. V_{L-1} onto the translation eigenspaces.

    V_m has one column per orbit representative r (the smallest code of its
    translation orbit) whose period p admits momentum m, i.e. m p = 0 mod L,
    with entries w^{m j} / sqrt(p) on the codes T^j r, j < p.  Together the
    blocks form a unitary that block-diagonalizes every operator commuting
    with the shift.  The arrays of every V_m are read-only.
    """
    basis = sector_basis(L, n)
    D = basis.dim
    step = _shift_targets(basis)
    orbit = np.empty((L, D), dtype=np.int64)  # orbit[j, i]: index of T^j applied to state i
    orbit[0] = np.arange(D)
    for k in range(1, L):
        orbit[k] = step[orbit[k - 1]]
    reps = np.nonzero(orbit.min(axis=0) == orbit[0])[0]
    # the period is the first j > 0 that returns the representative to itself
    back = np.vstack([orbit[1:, reps] == reps, np.ones((1, len(reps)), dtype=bool)])
    period = np.argmax(back, axis=0) + 1
    w = _roots_of_unity(L)
    j = np.arange(L)[:, None]
    blocks = []
    for m in range(L):
        sel = np.nonzero(m * period % L == 0)[0]
        on_orbit = j < period[sel]  # (L, columns): T^j r with j < p
        cols = np.broadcast_to(np.arange(len(sel)), on_orbit.shape)[on_orbit]
        vals = (w[m * j % L] / np.sqrt(period[sel]))[on_orbit]
        V = sp.csr_matrix((vals, (orbit[:, reps[sel]][on_orbit], cols)), shape=(D, len(sel)))
        blocks.append(_read_only(V))
    return tuple(blocks)


def _read_only(M: sp.spmatrix) -> sp.spmatrix:
    """Mark the arrays of a cached sparse matrix read-only; returns M."""
    for a in (M.data, M.indices, M.indptr):
        a.setflags(write=False)
    return M


@lru_cache(maxsize=None)
def _block_adjoints(L: int, n: int) -> tuple[sp.csc_matrix, ...]:
    """V_mᴴ for every block V_m of `momentum_blocks`, with read-only arrays."""
    return tuple(_read_only(V.conj().T) for V in momentum_blocks(L, n))


@lru_cache(maxsize=None)
def _pt_basis(L: int, n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """A unitary W that makes PT-symmetric sector operators real, and Wᴴ.

    P is the site reflection (site k takes site L - 1 - k's label), an
    involution on the sector's states, and T is complex conjugation.  The
    columns of W are fixed by PT: e_a for a state with Pa = a, and for a pair
    a < Pa, column a is (e_a + e_Pa)/sqrt(2) and column Pa is
    i (e_a - e_Pa)/sqrt(2).  So Wᴴ H W is real whenever P H P = conj(H), as it
    is for the chain Hamiltonian.  The arrays of W and Wᴴ are read-only.
    """
    basis = sector_basis(L, n)
    idx = np.arange(basis.dim)
    mirror = np.searchsorted(basis.codes, basis.digits() @ 3 ** np.arange(L))  # reflected codes
    paired = mirror != idx
    lower = idx < mirror
    s = 1 / np.sqrt(2)
    # column a holds W[a, a] and, for a paired state, W[Pa, a]
    diag = np.where(paired, np.where(lower, s, -1j * s), 1.0)
    off = np.where(lower, s, 1j * s)[paired]
    W = sp.csr_matrix(
        (np.concatenate([diag, off]),
         (np.concatenate([idx, mirror[paired]]), np.concatenate([idx, idx[paired]]))),
        shape=(basis.dim, basis.dim),
    )
    return _read_only(W), _read_only(W.conj().T.tocsr())


def _monodromy(R4: np.ndarray, k: int) -> np.ndarray:
    """Un-traced product R_{01} ... R_{0k} as [aux_out, chain_out, aux_in, chain_in].

    Chain indices are base-3 codes with site 0 the most significant digit.
    """
    M = np.eye(3, dtype=complex).reshape(3, 1, 3, 1)
    for _ in range(k):  # append a site as the new least significant digit
        M = np.einsum("aocx,csdt->aosdxt", M, R4).reshape(3, 3 * M.shape[1], 3, -1)
    return M


def monodromy_halves(lam: CurvePoint, mu: CurvePoint, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Monodromies A of sites 0 .. L//2 - 1 and B of the rest, so that with
    hi, lo = divmod(code, 3**(L - L//2)) the L-site monodromy is
    T[a, (hi, lo), b, (hi', lo')] = sum_c A[a, hi, c, hi'] B[c, lo, b, lo'].
    """
    R4 = r_matrix(lam, mu).reshape(3, 3, 3, 3)  # [aux_out, site_out, aux_in, site_in]
    return _monodromy(R4, L // 2), _monodromy(R4, L - L // 2)


def build_transfer_matrix(lam: CurvePoint, mu: CurvePoint, L: int, n: int) -> LatticeOperator:
    """Auxiliary-space trace of R_{01} ... R_{0L}, restricted to a sector,
    assembled from the two factors of `monodromy_halves`."""
    if L < 1:
        raise ValueError("need at least one site")
    basis = sector_basis(L, n)
    A, B = monodromy_halves(lam, mu, L)
    hi, lo = np.divmod(basis.codes, 3 ** (L - L // 2))
    T = sum(A[a, :, c][hi[:, None], hi] * B[c, :, a][lo[:, None], lo]
            for a in range(3) for c in range(3))
    return LatticeOperator(basis, sp.csr_matrix(T))


@dataclass
class SpectrumReport:
    L: int
    n: int
    eigenvalues: np.ndarray  # sorted by (Re, Im)
    is_real: np.ndarray
    conjugation_defect: float
    method: str
    real_tol: float

    @property
    def lowest_real(self) -> float:
        reals = self.eigenvalues[self.is_real]
        if len(reals) == 0:
            raise ValueError("sector has no real eigenvalue within tolerance")
        return float(np.min(reals.real))


def _conjugation_defect(vals: np.ndarray, is_real: np.ndarray) -> float:
    comp = vals[~is_real]
    if len(comp) == 0:
        return 0.0
    return float(max(np.min(np.abs(np.conj(z) - comp)) for z in comp))


def _make_report(basis: SectorBasis, vals: np.ndarray, method: str, real_tol: float) -> SpectrumReport:
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    is_real = np.abs(vals.imag) <= real_tol * np.maximum(1.0, np.abs(vals.real))
    return SpectrumReport(
        basis.L, basis.n, vals, is_real, _conjugation_defect(vals, is_real), method, real_tol
    )


def _block_eigenvalues(op: LatticeOperator) -> np.ndarray:
    """Every eigenvalue of a shift-commuting operator, by dense LAPACK per momentum block."""
    basis, H = op.sector, op.matrix
    S = shift_operator(basis.L, basis.n)
    if abs(H @ S - S @ H).max() > 1e-12 * max(1.0, abs(H).max()):
        raise ValueError("dense solves need an operator that commutes with the shift")
    return np.concatenate([
        eig((Vh @ (H @ V)).toarray(), right=False)
        for V, Vh in zip(momentum_blocks(basis.L, basis.n), _block_adjoints(basis.L, basis.n))
        if V.shape[1]
    ])


def diagonalize(
    op: LatticeOperator,
    mode: str = "full",
    k: int = 6,
    real_tol: float = 1e-8,
) -> SpectrumReport:
    """Eigenvalues of a (generally non-Hermitian) sector operator.

    Dense solves run one momentum block at a time (`momentum_blocks`), so
    they raise a ValueError for an operator that does not commute with the
    shift.  mode="full" returns every eigenvalue.  mode="lowest" returns the
    k >= 1 smallest-real-part eigenvalues: from the block spectrum up to
    _DENSE_EIG_CUTOFF states, from ARPACK above, and from the block spectrum
    again ("dense-fallback") when ARPACK fails on up to DENSE_LIMIT states.
    ARPACK runs in real arithmetic on Wᴴ H W (`_pt_basis`), so above the
    cutoff mode="lowest" also needs P H P = conj(H) for the site reflection
    P, as the chain Hamiltonian has, and raises a ValueError otherwise.
    """
    if mode == "full":
        if op.dim > DENSE_LIMIT:
            raise ValueError(f"full diagonalization capped at dim {DENSE_LIMIT}, got {op.dim}")
        return _make_report(op.sector, _block_eigenvalues(op), "dense", real_tol)
    if mode != "lowest":
        raise ValueError(f"unknown mode {mode!r}")
    if k < 1:
        raise ValueError(f"lowest mode needs k >= 1, got {k}")
    method = "dense"
    if op.dim > max(_DENSE_EIG_CUTOFF, 3 * k + 2):
        try:
            return _lowest_arpack(op, k, real_tol)
        except ConvergenceFailure:
            if op.dim > DENSE_LIMIT:
                raise
            method = "dense-fallback"
    vals = _block_eigenvalues(op)
    return _make_report(op.sector, vals[np.argsort(vals.real)][:k], method, real_tol)


def _lowest_arpack(op: LatticeOperator, k: int, real_tol: float) -> SpectrumReport:
    """ARPACK's real nonsymmetric mode on Wᴴ H W (`_pt_basis`); residuals against H."""
    D, A = op.dim, op.matrix
    W, Wh = _pt_basis(op.sector.L, op.sector.n)
    B = Wh @ A @ W
    if abs(B.imag).max() > 1e-12 * max(1.0, abs(A).max()):
        raise ValueError("lowest-mode ARPACK needs an operator with P H P = conj(H)")
    B = B.real
    v0 = np.ones(D) / np.sqrt(D)
    attempts = []
    for ncv in (max(40, 4 * k), max(90, 8 * k)):
        try:
            vals, vecs = spla.eigs(B, k=k, which="SR", ncv=min(ncv, D - 1), tol=1e-12,
                                   maxiter=8000, v0=v0)
        except spla.ArpackNoConvergence as exc:
            attempts.append(f"SR ncv={ncv}: no convergence ({exc})")
            continue
        vecs = W @ vecs
        res = np.linalg.norm(A @ vecs - vecs * vals[None, :], axis=0)
        if np.all(res <= 1e-9 * max(1.0, spla.norm(A, np.inf))):
            return _make_report(op.sector, vals, f"arpack-sr(ncv={ncv})", real_tol)
        attempts.append(f"SR ncv={ncv}: residual {np.max(res):.2e}")
    raise ConvergenceFailure(
        f"lowest-eigenvalue iteration failed for dim {D}", diagnostics={"attempts": attempts}
    )


def sector_range(L: int) -> range:
    return range(-L, L + 1)


def lowest_per_sector(U: float, L: int, k: int = 6) -> dict[int, SpectrumReport]:
    """k lowest (by real part) eigenvalues per sector; mirrors n < 0 from n > 0.

    The +-n spectra coincide (checked directly at small L by the test
    suite), so only n >= 0 is diagonalized.
    """
    reports = {n: diagonalize(build_hamiltonian(U, L, n), mode="lowest", k=k)
               for n in range(L + 1)}
    return reports | {-n: reports[n] for n in range(1, L + 1)}


@lru_cache(maxsize=512)
def _lowest_levels(U: float, L: int, k: int) -> np.ndarray:
    """Sorted real parts of the k lowest levels of every sector; read-only."""
    reports = lowest_per_sector(U, L, k=k)
    vals = np.sort(np.concatenate([r.eigenvalues.real for r in reports.values()]))
    vals.setflags(write=False)
    return vals


def ground_state_energy(U: float, L: int, k: int = 6) -> float:
    """Smallest real part over all magnetization sectors."""
    return float(_lowest_levels(U, L, k)[0])


def lowest_two_energies(U: float, L: int, k: int = 8, level_tol: float = 1e-9):
    """(E0, E1): ground energy and the next distinct level across sectors."""
    vals = _lowest_levels(U, L, k)
    e0 = vals[0]
    above = vals[vals > e0 + level_tol * max(1.0, abs(e0))]
    if len(above) == 0:
        raise ConvergenceFailure("no level above the ground state found; increase k")
    return float(e0), float(above[0])


def spectrum_is_real(U: float, L: int, tol: float = 1e-8) -> bool:
    """True when every eigenvalue in every sector is real within tolerance.

    The +-n spectra coincide, as in `lowest_per_sector`, so only n >= 0 is
    diagonalized, from the small n = L sector down.
    """
    for n in range(L, -1, -1):
        rep = diagonalize(build_hamiltonian(U, L, n), mode="full", real_tol=tol)
        if not np.all(rep.is_real):
            return False
    return True


def reality_threshold(
    L: int,
    tol: float = 1e-8,
    bracket: tuple[float, float] = (2.5, 3.45),
    u_tol: float = 1e-6,
) -> float:
    """Smallest U with an entirely real spectrum, located by bisection.

    Needs the full spectrum of every sector n >= 0 per probe.  Solved per
    momentum block, a whole bisection took 1 s at L = 7, 4 s at L = 8 and
    40 s at L = 9 on one core of a 2-core machine, so it is practical for
    L <= 9.  The result is rounded to five decimal places.
    """
    lo, hi = bracket
    if not (lo < hi):
        raise BracketInvalid(f"empty bracket {bracket}")
    if spectrum_is_real(lo, L, tol) or not spectrum_is_real(hi, L, tol):
        raise BracketInvalid(f"predicate does not change sign on {bracket} for L={L}")
    while hi - lo > u_tol:
        mid = 0.5 * (lo + hi)
        if spectrum_is_real(mid, L, tol):
            hi = mid
        else:
            lo = mid
    return round(0.5 * (lo + hi), 5)


@dataclass
class SymmetryReport:
    L: int
    U: float
    spectral_distance: float
    e1_relation_defect: float
    f0_per_site: float


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d1 = max(np.min(np.abs(b - z)) for z in a)
    d2 = max(np.min(np.abs(a - z)) for z in b)
    return float(max(d1, d2))


def symmetry_check_neg_u(L: int, U: float) -> SymmetryReport:
    """Even-L relations between H(U) and H(-U).

    Reports (i) the Hausdorff distance between spec(H(U)) and -spec(H(-U))
    over all sectors, (ii) the defect of E1(U) - E1(-U) - U L / 2 for the
    lowest sector-1 levels, and (iii) the per-site sequence
    F0 = [E0(U) - E0(-U) - U L / 2] / L for the global ground states.
    """
    if L % 2:
        raise ValueError("the spectral reflection holds for even L only")
    spec_p, spec_m = {}, {}
    for n in sector_range(L):
        spec_p[n] = diagonalize(build_hamiltonian(U, L, n), mode="full").eigenvalues
        spec_m[n] = diagonalize(build_hamiltonian(-U, L, n), mode="full").eigenvalues
    all_p = np.concatenate(list(spec_p.values()))
    all_m = np.concatenate(list(spec_m.values()))
    dist = _hausdorff(all_p, -all_m)
    e1p = float(np.min(spec_p[1].real))
    e1m = float(np.min(spec_m[1].real))
    e0p = float(min(np.min(v.real) for v in spec_p.values()))
    e0m = float(min(np.min(v.real) for v in spec_m.values()))
    return SymmetryReport(
        L,
        U,
        spectral_distance=dist,
        e1_relation_defect=e1p - e1m - U * L / 2.0,
        f0_per_site=(e0p - e0m - U * L / 2.0) / L,
    )


@lru_cache(maxsize=512)
def sector_1_lowest(U: float, L: int, k: int = 6) -> float:
    """Lowest energy in the n = 1 sector (iterative for larger sizes)."""
    rep = diagonalize(build_hamiltonian(U, L, 1), mode="lowest", k=k)
    return float(rep.eigenvalues.real.min())


def f0_per_site(U: float, L: int, k: int = 8) -> float:
    """Per-site defect of the ground-state reflection relation."""
    e0p = ground_state_energy(U, L, k=k)
    e0m = ground_state_energy(-U, L, k=k)
    return (e0p - e0m - U * L / 2.0) / L
