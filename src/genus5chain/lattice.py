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
from types import SimpleNamespace

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


# the U-independent hopping part of the bond and its on-site U/2 term
_HOP = (
    (-_E_PLUS / 2) * np.kron(SP, SM)
    + (-_E_MINUS / 2) * np.kron(SM, SP)
    + (1j / 2) * np.kron(_SZSP, SM)
    + (-1j / 2) * np.kron(SM, _SZSP)
)
_ONSITE = np.kron(_ID3, SZ @ SZ)
# per bond column c, the rows r of the entries that some U makes nonzero
_BOND_ROWS = [np.nonzero((np.abs(_HOP[:, c]) > 1e-15) | (_ONSITE[:, c] != 0))[0] for c in range(9)]


def bond_hamiltonian(U: float) -> np.ndarray:
    """Two-site operator; the on-site U-term is attached to the right site."""
    return _HOP + (U / 2) * _ONSITE


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


def _bond_pattern(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and flat bond index 9 r + c of every term of the L periodic
    bonds that some U makes nonzero, bond by bond, then by bond column c and
    row r; one vectorized pass per bond."""
    L, codes = basis.L, basis.codes
    labels = basis.digits()
    rows, cols, entry = [], [], []
    for j in range(L):
        jp = (j + 1) % L
        pair = 3 * labels[:, j] + labels[:, jp]
        for c in range(9):
            src = np.nonzero(pair == c)[0]
            for r in _BOND_ROWS[c]:
                shift = (r // 3 - c // 3) * 3 ** (L - 1 - j) + (r % 3 - c % 3) * 3 ** (L - 1 - jp)
                rows.append(np.searchsorted(codes, codes[src] + shift))
                cols.append(src)
                entry.append(np.full(len(src), 9 * r + c))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(entry)


def build_hamiltonian(U: float, L: int, n: int) -> LatticeOperator:
    """H(U) restricted to the magnetization-n sector, periodic boundaries.

    The bond terms come from the sector's kept tables (`_kept_tables`) or,
    for a sector without them, are laid out anew.
    """
    if L < 2:
        raise ValueError("need at least two sites")
    basis = sector_basis(L, n)
    t = _kept_tables(basis)
    rows, cols, entry = (t.rows, t.cols, t.entry) if t else _bond_pattern(basis)
    vals = bond_hamiltonian(U).ravel()[entry]
    keep = np.abs(vals) > 1e-15
    H = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(basis.dim, basis.dim),
                      dtype=complex)
    return LatticeOperator(basis, H)


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


def _half_turn_roots(L: int) -> np.ndarray:
    """z[a] = exp(-i pi a / L), a < 2L, so z[2a] = w^a with w = exp(-2 pi i / L).

    Turns are exact, z[a + L] == -z[a] and for even L z[a + L/2] == -1j z[a],
    so the U <-> -U reflection (`_orbits`) stays exact block by block.
    """
    turns = (1, -1j, -1, 1j) if L % 2 == 0 else (1, -1)
    base = np.exp(-1j * np.pi * np.arange(2 * L // len(turns)) / L)
    return np.concatenate([base * t for t in turns])


@lru_cache(maxsize=None)
def _orbits(L: int, n: int) -> SimpleNamespace:
    """Translation orbits of a sector and the real basis of its momentum blocks.

    Orbit r (representative: its smallest code, state `states[r]`) has period
    p = `period[r]`; state s is T^l r with r = `rep[s]`, l = `shift[s]` < p.
    `column[m, r]` is r's column in block m, or -1 unless m p = 0 mod L.
    A = P conj (P the site reflection) maps |r, m> to w^(-m t) |r~, m>, where
    P r = T^t r~ and r~ = `mirror[r]`.  Row r of the unitary W_m whose columns
    A fixes holds W_m[r, r] = `own[m, r]` and W_m[r, r~] = `other[m, r]`:
    column r is z^(-m t) e_r if r = r~; for r < r~ columns r and r~ are
    (x e_r + y e_r~)/sqrt(2) and i (x e_r - y e_r~)/sqrt(2), x = z^(-m),
    y = conj(x) w^(-m t).  With that odd power of z, the staggered sign that
    maps H(U) to -H(-U) and momentum m to m + n L / 2 sends each column to
    +-1 or +-1j times the same column of the other block.  Arrays are read-only.
    """
    basis = sector_basis(L, n)
    step = _shift_targets(basis)
    orbit = np.empty((L, basis.dim), dtype=np.int64)  # orbit[j, i]: index of T^j applied to state i
    orbit[0] = np.arange(basis.dim)
    for k in range(1, L):
        orbit[k] = step[orbit[k - 1]]
    first = orbit.argmin(axis=0)  # T^first s is the representative of s
    states = np.nonzero(first == 0)[0]
    rep = np.searchsorted(states, orbit.min(axis=0))
    period = np.bincount(rep)
    shift = -first % period[rep]
    labels = basis.codes[states, None] // 3 ** np.arange(L - 1, -1, -1) % 3
    flipped = np.searchsorted(basis.codes, labels @ 3 ** np.arange(L))  # P r
    mirror, t = rep[flipped], shift[flipped]
    m, idx = np.arange(L)[:, None], np.arange(len(states))
    admitted = m * period % L == 0
    column = np.where(admitted, np.cumsum(admitted, axis=1) - 1, -1)
    z, s = _half_turn_roots(L), 1 / np.sqrt(2)
    x, y = z[-m % (2 * L)] * s, z[m * (1 - 2 * t) % (2 * L)] * s
    own = np.where(mirror == idx, z[-m * t % (2 * L)], np.where(idx < mirror, x, -1j * y))
    other = np.where(mirror == idx, 0, np.where(idx < mirror, 1j * x, y))
    for a in (step, states, period, mirror, rep, shift, column, own, other):
        a.setflags(write=False)
    return SimpleNamespace(step=step, states=states, period=period, mirror=mirror, rep=rep,
                           shift=shift, column=column, own=own, other=other)


def _pattern_tables(L: int, n: int, indptr: np.ndarray, indices: np.ndarray) -> SimpleNamespace:
    """What `_real_blocks` needs of a sector operator's canonical CSR pattern.

    `shifted[k]` is the storage index of the translate (rows and columns
    mapped by the shift) of stored entry k, or nnz where it is not stored;
    `orphans` are the entries that no translate lands on.  Entries `pos`
    lie in the columns r at the orbit representatives, rows T^l r', each
    with its factor `fac` = sqrt(p_r / p_r').  `momenta` yields, per m, the
    block order `d`, the entries `on` (of `pos`) it takes, their phases
    conj(w^(m l)), the W_m gathers `w_out` (rows, conjugated) and `w_in`
    (columns), and `flat` = i d + j, where each term lands in the block.
    """
    orb = _orbits(L, n)
    dim, nnz = len(indptr) - 1, len(indices)
    row = np.repeat(np.arange(dim), np.diff(indptr))
    key = np.append(row * dim + indices, dim * dim)  # row-major, so sorted; one sentinel
    target = orb.step[row] * dim + orb.step[indices]
    hit = np.searchsorted(key, target)
    found = key[hit] == target
    shifted = np.where(found, hit, nnz)
    orphans = np.ones(nnz, dtype=bool)
    orphans[hit[found]] = False
    slot = np.full(dim, -1)
    slot[orb.states] = np.arange(len(orb.states))
    pos = np.nonzero(slot[indices] >= 0)[0]
    r, rp, l = slot[indices[pos]], orb.rep[row[pos]], orb.shift[row[pos]]  # H[T^l r', r]
    return SimpleNamespace(indptr=indptr, indices=indices, shifted=shifted,
                           orphans=np.nonzero(orphans)[0], pos=pos,
                           fac=np.sqrt(orb.period[r] / orb.period[rp]),
                           momenta=_momentum_tables(orb, L, r, rp, l))


def _momentum_tables(orb: SimpleNamespace, L: int, r: np.ndarray, rp: np.ndarray, l: np.ndarray):
    z = _half_turn_roots(L)
    for m, (col, own, other) in enumerate(zip(orb.column, orb.own, orb.other)):
        d = np.count_nonzero(col >= 0)
        on = np.nonzero((col[r] >= 0) & (col[rp] >= 0))[0]
        rpm, rm = rp[on], r[on]
        # term (r', r) of H_m enters B[a', a] for a' in {r', r'~} and a in {r, r~}
        i = np.repeat([col[rpm], col[orb.mirror[rpm]]], 2, axis=0).ravel()
        j = np.tile([col[rm], col[orb.mirror[rm]]], (2, 1)).ravel()
        yield SimpleNamespace(d=d, on=on, phase=z[-2 * m * l[on] % (2 * L)],
                              w_out=(own[rpm].conj(), other[rpm].conj()),
                              w_in=(own[rm], other[rm]), flat=i * d + j)


@lru_cache(maxsize=None)
def _sector_tables(L: int, n: int) -> SimpleNamespace:
    """The bond-term pattern of a sector (`_bond_pattern`: `rows`, `cols`,
    `entry`) and the `_pattern_tables` of H's pattern at every U that keeps
    all those terms, with `momenta` kept as a tuple; see `_kept_tables`."""
    basis = sector_basis(L, n)
    rows, cols, entry = _bond_pattern(basis)
    pattern = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(basis.dim, basis.dim))
    t = _pattern_tables(L, n, pattern.indptr, pattern.indices)
    t.momenta = tuple(t.momenta)
    t.rows, t.cols, t.entry = rows, cols, entry
    return t


def _kept_tables(basis: SectorBasis) -> SimpleNamespace | None:
    """The sector's `_sector_tables`, built once, so that H(U) and its real
    momentum blocks are refilled, not laid out again, at each new U; None
    above _DENSE_EIG_CUTOFF states.  Those sectors are solved by ARPACK,
    mostly once per U, and keeping their tables too raised the `ed_lowest`
    benchmark's peak RSS from 88 to 141 MB."""
    return _sector_tables(basis.L, basis.n) if basis.dim <= _DENSE_EIG_CUTOFF else None


def momentum_blocks(L: int, n: int) -> tuple[sp.csr_matrix, ...]:
    """Sector isometries Q_0 .. Q_{L-1} onto the translation eigenspaces.

    Q_m = V_m W_m: V_m has one column |r, m> per orbit representative r that
    momentum m admits, with entries w^(m l) / sqrt(p) on the codes T^l r,
    l < p, and W_m (`_orbits`) makes Q_mᴴ H Q_m real for an operator with
    P H P = conj(H).  Together the blocks form a unitary that
    block-diagonalizes every operator commuting with the shift.
    """
    orb = _orbits(L, n)
    z, c = _half_turn_roots(L), orb.rep
    blocks = []
    for m, col in enumerate(orb.column):
        on = np.nonzero(col[c] >= 0)[0]
        phase = z[2 * m * orb.shift[on] % (2 * L)] / np.sqrt(orb.period[c[on]])
        vals = np.concatenate([phase * orb.own[m, c[on]], phase * orb.other[m, c[on]]])
        cols = np.concatenate([col[c[on]], col[orb.mirror[c[on]]]])
        blocks.append(sp.csr_matrix((vals, (np.tile(on, 2), cols)),
                                    shape=(len(c), np.count_nonzero(col >= 0))))
    return tuple(blocks)


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
    method: str

    @property
    def lowest_real(self) -> float:
        reals = self.eigenvalues[self.is_real]
        if len(reals) == 0:
            raise ValueError("sector has no real eigenvalue within tolerance")
        return float(np.min(reals.real))


def _make_report(basis: SectorBasis, vals: np.ndarray, method: str, real_tol: float) -> SpectrumReport:
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    is_real = np.abs(vals.imag) <= real_tol * np.maximum(1.0, np.abs(vals.real))
    return SpectrumReport(basis.L, basis.n, vals, is_real, method)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b with each real product rounded on its own; numpy's complex multiply
    may fuse them, and then a factor 1j does not commute exactly with it."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _real_blocks(op: LatticeOperator, sparse: bool = False):
    """Yield the real momentum blocks Q_mᴴ H Q_m (`momentum_blocks`), m = 0 .. L-1.

    Block m comes from H's columns at the orbit representatives alone,
    H_m[r', r] = sqrt(p_r / p_r') sum over s = T^l r' of H[s, r] conj(w^(m l)),
    made real by W_m (`_orbits`), and is summed by one bincount (dense
    arrays) or one COO sum (CSR when `sparse`).  The index tables are the
    sector's kept ones (`_kept_tables`) when H has their pattern, else
    they are derived from H's own pattern as the blocks are made.  Raises a
    ValueError unless H commutes with the shift and P H P = conj(H).
    """
    basis, H = op.sector, op.matrix
    if not H.has_canonical_format:
        H = H.copy()
        H.sum_duplicates()
    t = _kept_tables(basis)
    if t is None or not (np.array_equal(t.indptr, H.indptr) and np.array_equal(t.indices, H.indices)):
        t = _pattern_tables(basis.L, basis.n, H.indptr, H.indices)
    # max |H S - S H| over the entries and their translates (S the shift)
    tol = 1e-12 * max(1.0, np.abs(H.data).max(initial=0.0))
    data = np.append(H.data, 0)
    defect = max(np.abs(data[t.shifted] - H.data).max(initial=0.0),
                 np.abs(H.data[t.orphans]).max(initial=0.0))
    if defect > tol:
        raise ValueError("momentum blocks need an operator that commutes with the shift")
    h = H.data[t.pos] * t.fac
    for mt in t.momenta:
        d, v = mt.d, h[mt.on] * mt.phase
        uv = [_cmul(w, v) for w in mt.w_out]
        b = np.concatenate([_cmul(u, x) for u in uv for x in mt.w_in])
        if sparse:
            B = sp.csr_matrix((b, np.divmod(mt.flat, d)), shape=(d, d))
            imag, B = B.data.imag, B.real
        else:
            imag = np.bincount(mt.flat, b.imag, d * d)
            B = np.bincount(mt.flat, b.real, d * d).reshape(d, d).astype(float, copy=False)
        if len(imag) and abs(imag).max() > tol:
            raise ValueError("real momentum blocks need an operator with P H P = conj(H)")
        yield B


def diagonalize(
    op: LatticeOperator,
    mode: str = "full",
    k: int = 6,
    real_tol: float = 1e-8,
) -> SpectrumReport:
    """Eigenvalues of a (generally non-Hermitian) sector operator.

    Every solve runs on the real momentum blocks (`momentum_blocks`), so the
    operator must commute with the shift and have P H P = conj(H) for the
    site reflection P, as the chain Hamiltonian has (else ValueError).
    mode="full" returns every eigenvalue, by dense LAPACK per block.
    mode="lowest" returns the k >= 1 smallest-real-part eigenvalues: from the
    block spectrum up to _DENSE_EIG_CUTOFF states, from ARPACK on the direct
    sum of the blocks above, and from the block spectrum again
    ("dense-fallback") when ARPACK fails on up to DENSE_LIMIT states.
    """
    if mode == "full" and op.dim > DENSE_LIMIT:
        raise ValueError(f"full diagonalization capped at dim {DENSE_LIMIT}, got {op.dim}")
    if mode not in ("full", "lowest"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "lowest" and k < 1:
        raise ValueError(f"lowest mode needs k >= 1, got {k}")
    method = "dense"
    if mode == "lowest" and op.dim > max(_DENSE_EIG_CUTOFF, 3 * k + 2):
        try:
            return _lowest_arpack(op, k, real_tol)
        except ConvergenceFailure:
            if op.dim > DENSE_LIMIT:
                raise
            method = "dense-fallback"
    vals = np.concatenate([eig(B, right=False) for B in _real_blocks(op) if len(B)])
    if mode == "lowest":
        vals = vals[np.argsort(vals.real)][:k]
    return _make_report(op.sector, vals, method, real_tol)


def _lowest_arpack(op: LatticeOperator, k: int, real_tol: float) -> SpectrumReport:
    """ARPACK's real nonsymmetric mode on the direct sum of the real momentum
    blocks, assembled sparse; eigenvectors mapped back by Q_m, residuals against H."""
    D, A = op.dim, op.matrix
    B = sp.block_diag(list(_real_blocks(op, sparse=True)), format="csr")
    v0 = np.ones(D) / np.sqrt(D)
    attempts = []
    for ncv in (max(40, 4 * k), max(90, 8 * k)):
        try:
            vals, vecs = spla.eigs(B, k=k, which="SR", ncv=min(ncv, D - 1), tol=1e-12,
                                   maxiter=8000, v0=v0)
        except spla.ArpackNoConvergence as exc:
            attempts.append(f"SR ncv={ncv}: no convergence ({exc})")
            continue
        Q = momentum_blocks(op.sector.L, op.sector.n)
        parts = np.split(vecs, np.cumsum([Qm.shape[1] for Qm in Q])[:-1])
        vecs = sum(Qm @ y for Qm, y in zip(Q, parts))
        res = np.linalg.norm(A @ vecs - vecs * vals[None, :], axis=0)
        if np.all(res <= 1e-9 * max(1.0, spla.norm(A, np.inf))):
            return _make_report(op.sector, vals, f"arpack-sr(ncv={ncv})", real_tol)
        attempts.append(f"SR ncv={ncv}: residual {np.max(res):.2e}")
    raise ConvergenceFailure(
        f"lowest-eigenvalue iteration failed for dim {D}", diagnostics={"attempts": attempts}
    )


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


def lowest_two_energies(U: float, L: int):
    """(E0, E1): ground energy and the next level across sectors that lies
    more than 1e-9 (relative) above it, from the 8 lowest of each sector."""
    vals = _lowest_levels(U, L, 8)
    e0 = vals[0]
    above = vals[vals > e0 + 1e-9 * max(1.0, abs(e0))]
    if len(above) == 0:
        raise ConvergenceFailure("no level above the ground state among the 8 lowest per sector")
    return float(e0), float(above[0])


def spectrum_is_real(U: float, L: int, tol: float = 1e-8) -> bool:
    """True when every eigenvalue in every sector is real within tolerance.

    The +-n spectra coincide, as in `lowest_per_sector`, so only n >= 0 is
    diagonalized, from the small n = L sector down.
    """
    return all(np.all(diagonalize(build_hamiltonian(U, L, n), mode="full", real_tol=tol).is_real)
               for n in range(L, -1, -1))


def reality_threshold(
    L: int,
    tol: float = 1e-8,
    bracket: tuple[float, float] = (2.5, 3.45),
) -> float:
    """Smallest U with an entirely real spectrum, located by bisection to 1e-6.

    Needs the full spectrum of every sector n >= 0 per probe.  Solved per
    real momentum block, with the tables of every sector of at most
    _DENSE_EIG_CUTOFF states kept across probes (`_kept_tables`), a whole
    bisection took 0.49 s at L = 7, 2.2-2.4 s at L = 8 and 17-18 s at L = 9
    on one core of a 2-core machine (0.86-0.94, 2.4-2.6 and 18.5 s with the
    tables laid out anew at every probe), so it is practical for L <= 9.
    The result is rounded to five decimal places.
    """
    lo, hi = bracket
    if not (lo < hi):
        raise BracketInvalid(f"empty bracket {bracket}")
    if spectrum_is_real(lo, L, tol) or not spectrum_is_real(hi, L, tol):
        raise BracketInvalid(f"predicate does not change sign on {bracket} for L={L}")
    while hi - lo > 1e-6:
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
    spec_p, spec_m = ({n: diagonalize(build_hamiltonian(u, L, n), mode="full").eigenvalues
                       for n in range(-L, L + 1)} for u in (U, -U))
    all_p, all_m = np.concatenate(list(spec_p.values())), np.concatenate(list(spec_m.values()))
    e1p, e1m = float(np.min(spec_p[1].real)), float(np.min(spec_m[1].real))
    e0p, e0m = float(np.min(all_p.real)), float(np.min(all_m.real))
    return SymmetryReport(L, U, spectral_distance=_hausdorff(all_p, -all_m),
                          e1_relation_defect=e1p - e1m - U * L / 2.0,
                          f0_per_site=(e0p - e0m - U * L / 2.0) / L)


@lru_cache(maxsize=512)
def sector_1_lowest(U: float, L: int) -> float:
    """Lowest energy in the n = 1 sector (iterative for larger sizes)."""
    rep = diagonalize(build_hamiltonian(U, L, 1), mode="lowest", k=6)
    return float(rep.eigenvalues.real.min())


def f0_per_site(U: float, L: int) -> float:
    """Per-site defect of the ground-state reflection relation."""
    e0p = ground_state_energy(U, L, k=8)
    e0m = ground_state_energy(-U, L, k=8)
    return (e0p - e0m - U * L / 2.0) / L
