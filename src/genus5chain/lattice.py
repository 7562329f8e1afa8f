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
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eig

from .curve import SQRT_EPS, CurvePoint
from .errors import BracketInvalid, ConvergenceFailure
from .rmatrix import r_matrix

SP = np.sqrt(2.0) * np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
SM = np.sqrt(2.0) * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
_ID3 = np.eye(3, dtype=complex)

# (Sz S+): apply S+ first, then Sz; raises only on the 0 -> +1 rung
_SZSP = SZ @ SP

DENSE_LIMIT = 20000
_DENSE_EIG_CUTOFF = 900  # dims above this use ARPACK in "lowest" mode
_REAL_TOL = 1e-8  # |Im E| <= _REAL_TOL max(1, |Re E|) marks a reported level real
_LEVELS = 8  # levels solved in each sector that holds E0, to find the first excitation E1


# the U-independent hopping part of the bond and its on-site U/2 term
_HOP = (
    (-SQRT_EPS / 2) * np.kron(SP, SM)
    + (-SQRT_EPS.conjugate() / 2) * np.kron(SM, SP)
    + (1j / 2) * np.kron(_SZSP, SM)
    + (-1j / 2) * np.kron(SM, _SZSP)
)
_ONSITE = np.kron(_ID3, SZ @ SZ)
# per bond column c, the rows r of the entries that some U makes nonzero
_BOND_ROWS = [np.nonzero((np.abs(_HOP[:, c]) > 1e-15) | (_ONSITE[:, c] != 0))[0] for c in range(9)]
# per bond column c, the rows r of the entries of the hopping part
_HOP_ROWS = [np.nonzero(np.abs(_HOP[:, c]) > 1e-15)[0] for c in range(9)]


def bond_hamiltonian(U: float) -> np.ndarray:
    """Two-site operator; the on-site U-term is attached to the right site."""
    return _HOP + (U / 2) * _ONSITE


@dataclass(frozen=True)
class SectorBasis:
    """Configurations of {+1, 0, -1}^L with total spin n, as sorted base-3 codes,
    and everything the solvers keep of the sector.

    Site labels 0, 1, 2 carry spins +1, 0, -1.  A configuration's code is
    its label string read as a base-3 integer, site 0 the most significant
    digit, so the code equals the configuration's index in the full 3^L
    space (`aba` relies on this) and ascending codes list the states in
    lexicographic order of their label strings.  `codes` is read-only and
    fixed by (L, n); it is generated site by site (`_sector_codes`), never
    by filtering the 3^L codes, and `rank` maps codes back to indices by
    binary search.

    The rest is built on first use and lives as long as the sector: its
    translation orbits (`orbits`), its real blocks at U = 0 as one CSR
    direct sum (`kept`) and the index arrays of its bond terms
    (`bond_terms`, `row_moduli`).  `sector_basis` hands out one object per
    (L, n) and holds the sectors of one L only, so a caller that walks L
    upward releases each L before it builds the next.
    """

    L: int
    n: int
    codes: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.codes)

    def digits(self) -> np.ndarray:
        """(dim, L) site labels of every state."""
        return _digits(self.codes, self.L)

    def rank(self, codes: np.ndarray) -> np.ndarray:
        """Index of each code of this sector, by binary search of `codes`
        (codes outside the sector give garbage)."""
        return np.searchsorted(self.codes, codes)

    @cached_property
    def orbits(self) -> SimpleNamespace:
        """Translation orbits and the real basis of the momentum blocks (`_orbit_tables`)."""
        return _orbit_tables(self)

    @cached_property
    def kept(self) -> _KeptBlocks:
        """The direct sum of the real blocks of H(0) and the on-site counts
        (`_kept_blocks`), for the chain Hamiltonian only."""
        return _kept_blocks(self)

    @cached_property
    def bond_terms(self) -> tuple[tuple[np.ndarray, np.ndarray, int], ...]:
        """Every term of the L periodic bonds that some U makes nonzero as
        (rows, cols, e): bond entry e = 9 r + c takes the states `cols` to the
        states `rows`, one to one, as int32 indices found once through `rank`.
        Bond by bond, then by bond column c and row r.  The terms of one
        (bond, c) share `cols`, and an on-site term (r = c) has rows = cols;
        the sector n = 0 of L = 10 keeps 0.9 MB of them."""
        terms = []
        for src, target, r, c in _bond_walk(self.codes, self.L, _BOND_ROWS):
            terms.append((src if r == c else self.rank(target).astype(np.int32), src, 9 * r + c))
        return tuple(terms)

    @cached_property
    def row_moduli(self) -> tuple[np.ndarray, np.ndarray]:
        """Per state, the sum of the moduli of the hopping terms that reach
        it and its number of on-site terms, the `bond_terms` whose rows are
        their cols."""
        hop, onsite = np.zeros(self.dim), np.zeros(self.dim)
        for rows, cols, e in self.bond_terms:
            if rows is cols:
                onsite[rows] += 1
            else:
                hop[rows] += abs(_HOP.flat[e])
        return hop, onsite


def _digits(codes: np.ndarray, L: int) -> np.ndarray:
    """(len(codes), L) site labels of L-site codes, site 0 first."""
    return codes[:, None] // 3 ** np.arange(L - 1, -1, -1) % 3


def _code_spins(codes: np.ndarray, L: int) -> np.ndarray:
    """Total spin of each L-site base-3 code."""
    spin, rest = np.zeros_like(codes), codes
    for _ in range(L):
        rest, label = np.divmod(rest, 3)
        spin += 1 - label
    return spin


def _sector_codes(L: int, n: int) -> np.ndarray:
    """The sorted codes of total spin n, built from the last site forward:
    the codes of k trailing sites and spin s are label d's codes at site
    L - k, d = 0, 1, 2 in turn, each followed by the codes of k - 1 sites
    and spin s - 1 + d, so they come out sorted.  Only the spins that
    the remaining L - k sites can still complete to n are kept."""
    level = {0: np.zeros(1, dtype=np.int64)}
    for k in range(1, L + 1):
        power = 3 ** (k - 1)
        level = {s: np.concatenate([d * power + level[s - 1 + d] for d in range(3)
                                    if s - 1 + d in level])
                 for s in range(max(-k, n - L + k), min(k, n + L - k) + 1)}
    return level[n]


def _bond_walk(codes: np.ndarray, L: int, rows):
    """Yield (src, targets, r, c) for every term of the L periodic bonds
    whose bond entry 9 r + c has r in rows[c]: the codes codes[src] carry
    labels c at the bond's two sites, and the term takes them to the codes
    `targets`.  Bond by bond, then by c and r; src is int32 and shared by
    the terms of one (bond, c)."""
    for j in range(L):
        left, right = 3 ** (L - 1 - j), 3 ** (L - 1 - (j + 1) % L)
        pair = 3 * (codes // left % 3) + codes // right % 3
        for c in range(9):
            src = np.flatnonzero(pair == c).astype(np.int32)
            for r in rows[c]:
                yield src, codes[src] + (r // 3 - c // 3) * left + (r % 3 - c % 3) * right, r, c


_sectors: dict[tuple[int, int], SectorBasis] = {}  # by (L, n), all of one L (`sector_basis`)


def sector_basis(L: int, n: int) -> SectorBasis:
    """The magnetization-n sector of L sites, one object per (L, n).

    Only the sectors of the last L asked for are held: asking for another
    L releases them, with their orbits, blocks and bond indices, and
    `sector_basis.cache_clear()` releases them all.
    """
    if (L, n) not in _sectors:
        if not (-L <= n <= L):
            raise ValueError(f"sector n={n} out of range for L={L}")
        if any(held != L for held, _ in _sectors):
            _sectors.clear()
        codes = _sector_codes(L, n)
        codes.setflags(write=False)
        _sectors[L, n] = SectorBasis(L, n, codes)
    return _sectors[L, n]


sector_basis.cache_clear = _sectors.clear


def sector_dimension(L: int, n: int) -> int:
    return sector_basis(L, n).dim


class LatticeOperator:
    """An operator on one magnetization sector, held as a CSR `matrix`, such
    as the transfer matrix (`build_transfer_matrix`).  Only the subclass of
    the chain Hamiltonian is solved (`diagonalize`)."""

    def __init__(self, sector: SectorBasis, matrix: sp.csr_matrix):
        self.sector, self.matrix = sector, matrix

    @property
    def dim(self) -> int:
        return self.sector.dim


class _ChainHamiltonian(LatticeOperator):
    """H(U) on one sector (`build_hamiltonian`), the one operator `diagonalize`
    solves; the CSR `matrix` is built on first read, and no solve reads it.

    The blocks come from one place, the sector's kept B_m(0) and on-site
    counts C_m (`SectorBasis.kept`): block m of H(U) is B_m(0) + (U/2) diag(C_m),
    in every sector kept as one CSR direct sum.  That sum is ARPACK's
    operator, and the dense blocks of `real_blocks` are filled from its
    rows.  The ARPACK residuals apply H(U) bond by bond on the codes
    (`_apply_bonds`), through the sector's kept int32 term indices, so no
    solve ranks codes.
    """

    def __init__(self, U: float, sector: SectorBasis):
        self.U, self.sector = U, sector

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        rows, cols, entry = _bond_pattern(self.sector)
        vals = bond_hamiltonian(self.U).ravel()[entry]
        keep = np.abs(vals) > 1e-15
        return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(self.dim, self.dim),
                             dtype=complex)

    def real_blocks(self):
        """The dense real momentum blocks Q_mᴴ H Q_m, m = 0 .. L-1."""
        return self.sector.kept.blocks(self.U)


def _bond_pattern(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and flat bond index of every bond term (`SectorBasis.bond_terms`)."""
    rows, cols, entry = zip(*((t, s, np.full(len(s), e)) for t, s, e in basis.bond_terms))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(entry)


def _apply_bonds(U: float, basis: SectorBasis, V: np.ndarray) -> tuple[np.ndarray, float]:
    """H(U) V and the row-sum norm of H(U), bond term by bond term on the
    codes, without a CSR H.  Terms of at most 1e-15 are left out, as in
    `matrix`.  For L >= 3 only the on-site terms, which share a sign, meet
    on one entry of H, so a row sum of |H| is the state's sum of hopping
    moduli plus |U|/2 per on-site term (`SectorBasis.row_moduli`).
    """
    bond = bond_hamiltonian(U).ravel()
    out = np.zeros(V.shape, dtype=complex)
    for rows, cols, e in basis.bond_terms:
        if abs(bond[e]) > 1e-15:
            out[rows] += bond[e] * V[cols]
    hop, onsite = basis.row_moduli
    u = abs(U / 2) if abs(U / 2) > 1e-15 else 0.0
    return out, float((hop + u * onsite).max(initial=0.0))


def build_hamiltonian(U: float, L: int, n: int) -> _ChainHamiltonian:
    """H(U) restricted to the magnetization-n sector, periodic boundaries.

    Nothing is built here beyond the sector basis: the CSR matrix is built
    when `matrix` is first read, which no solve needs (`_ChainHamiltonian`).
    """
    if L < 2:
        raise ValueError("need at least two sites")
    return _ChainHamiltonian(U, sector_basis(L, n))


def shift_operator(L: int, n: int) -> sp.csr_matrix:
    """Translation by one site on the sector basis (site k takes site k + 1's label)."""
    basis, top = sector_basis(L, n), 3 ** (L - 1)
    rows = basis.rank(basis.codes % top * 3 + basis.codes // top)
    return sp.csr_matrix(
        (np.ones(basis.dim), (rows, np.arange(basis.dim))), shape=(basis.dim, basis.dim)
    )


def _half_turn_roots(L: int) -> np.ndarray:
    """z[a] = exp(-i pi a / L), a < 2L, so z[2a] = w^a with w = exp(-2 pi i / L).

    Turns are exact, z[a + L] == -z[a] and for even L z[a + L/2] == -1j z[a],
    so the U <-> -U reflection (`_orbit_tables`) stays exact block by block.
    """
    turns = (1, -1j, -1, 1j) if L % 2 == 0 else (1, -1)
    base = np.exp(-1j * np.pi * np.arange(2 * L // len(turns)) / L)
    return np.concatenate([base * t for t in turns])


def _orbit_tables(basis: SectorBasis) -> SimpleNamespace:
    """Translation orbits of a sector and the real basis of its momentum blocks.

    Orbit r (representative: its smallest code, state `states[r]`) has period
    p = `period[r]`; state s is T^l r with r = `rep[s]`, l = `shift[s]` < p.
    `column[m, r]` is r's column in block m, or -1 unless m p = 0 mod L, and
    block m has `widths[m]` columns.
    A = P conj (P the site reflection) maps |r, m> to w^(-m t) |r~, m>, where
    P r = T^t r~ and r~ = `mirror[r]`.  Row r of the unitary W_m whose columns
    A fixes holds W_m[r, r] = `own[m, r]` and W_m[r, r~] = `other[m, r]`:
    column r is z^(-m t) e_r if r = r~; for r < r~ columns r and r~ are
    (x e_r + y e_r~)/sqrt(2) and i (x e_r - y e_r~)/sqrt(2), x = z^(-m),
    y = conj(x) w^(-m t).  With that odd power of z, the staggered sign that
    maps H(U) to -H(-U) and momentum m to m + n L / 2 sends each column to
    +-1 or +-1j times the same column of the other block.  Each state's
    representative is the least of its L rotated codes, found in L passes
    over the codes.  Arrays are read-only.
    """
    L, codes = basis.L, basis.codes
    top = 3 ** (L - 1)
    least, first, code = codes, np.zeros(basis.dim, dtype=np.int64), codes
    for k in range(1, L):  # code: T^k applied to every state
        code = code % top * 3 + code // top
        lower = code < least
        least = np.where(lower, code, least)
        first[lower] = k
    states = np.nonzero(first == 0)[0]
    rep = np.searchsorted(states, basis.rank(least))
    period = np.bincount(rep)
    shift = -first % period[rep]
    flipped = basis.rank(_digits(codes[states], L) @ 3 ** np.arange(L))  # P r
    mirror, t = rep[flipped], shift[flipped]
    m, idx = np.arange(L)[:, None], np.arange(len(states))
    admitted = m * period % L == 0
    column = np.where(admitted, np.cumsum(admitted, axis=1, dtype=np.int32) - 1, -1)
    widths = np.count_nonzero(admitted, axis=1)
    z, s = _half_turn_roots(L), 1 / np.sqrt(2)
    x, y = z[-m % (2 * L)] * s, z[m * (1 - 2 * t) % (2 * L)] * s
    own = np.where(mirror == idx, z[-m * t % (2 * L)], np.where(idx < mirror, x, -1j * y))
    other = np.where(mirror == idx, 0, np.where(idx < mirror, 1j * x, y))
    for a in (states, period, mirror, rep, shift, column, widths, own, other):
        a.setflags(write=False)
    return SimpleNamespace(states=states, period=period, mirror=mirror, rep=rep, shift=shift,
                           column=column, widths=widths, own=own, other=other)


@dataclass(frozen=True, eq=False)
class _KeptBlocks:
    """A sector's real momentum blocks B_m(0) of H(0) and the diagonals C_m
    of its on-site term (`_kept_blocks`), so that H(U)'s block m is
    B_m(0) + (U/2) diag(C_m).

    The blocks are kept as their direct sum, one real CSR matrix (`whole`)
    that stores every diagonal slot, at `diag` in its data.  H(U)'s sum is
    one copy of the data with a diagonal add, and its dense blocks are
    filled from the rows of that sum.
    """

    counts: tuple[np.ndarray, ...]
    whole: sp.csr_matrix
    diag: np.ndarray

    def _data(self, U: float) -> np.ndarray:
        """The data of H(U)'s sum: one copy of `whole.data` with the diagonal add."""
        data = self.whole.data.copy()
        data[self.diag] += (U / 2) * np.concatenate(self.counts)
        return data

    def blocks(self, U: float):
        """Dense blocks of H(U), m = 0 .. L-1."""
        data, cols, ptr = self._data(U), self.whole.indices, self.whole.indptr
        rows, start = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)), 0
        for c in self.counts:
            end = start + len(c)
            a, b = ptr[start], ptr[end]
            B = np.zeros((len(c), len(c)))
            B[rows[a:b] - start, cols[a:b] - start] = data[a:b]
            yield B
            start = end

    def real_sum(self, U: float) -> sp.csr_matrix:
        """The direct sum of H(U)'s blocks as one CSR matrix."""
        return sp.csr_matrix((self._data(U), self.whole.indices, self.whole.indptr),
                             shape=self.whole.shape)


def _kept_blocks(basis: SectorBasis) -> _KeptBlocks:
    """B_m(0) and C_m of a sector of the chain Hamiltonian, folded from the
    hopping terms of H(0) applied to the orbit representatives alone;
    arrays are read-only.  Only the chain is folded: its P H P = conj(H)
    is what makes the blocks real, and `_summed` checks it.

    Each term takes a representative r to a state s = T^l r' (`_fold`).
    The terms are summed in the order of H(0)'s CSR columns at the
    representatives, by state s and then by r, which fixes every block's
    rounding in every sector.  No CSR H(0) or whole-sector label table is
    built.  Each block is summed slot by slot in that order (`_summed`) into
    CSR arrays with its diagonal slots stored, and the blocks are joined by
    concatenating their arrays.

    sum_j (Sz_j)^2 counts a state's spins +-1: it is diagonal on the codes
    and commutes with the shift and the site reflection, so in the real
    block basis it is diag(C_m), the counts at the orbit representatives
    that momentum m admits, in column order.
    """
    orb, L = basis.orbits, basis.L
    reps = basis.codes[orb.states]
    r, target, hop = zip(*((src, t, np.full(len(src), _HOP[row, c]))
                           for src, t, row, c in _bond_walk(reps, L, _HOP_ROWS)))
    r, s, hop = np.concatenate(r), basis.rank(np.concatenate(target)), np.concatenate(hop)
    order = np.lexsort((r, s))  # by state s, then by representative r
    r, s, hop = r[order], s[order], hop[order]
    rp = orb.rep[s]
    h = hop * np.sqrt(orb.period[r] / orb.period[rp])
    tol = 1e-12 * max(1.0, np.abs(hop).max(initial=0.0))
    spins = np.count_nonzero(_digits(reps, L) != 1, axis=1).astype(float)
    counts = tuple(spins[col >= 0] for col in orb.column)
    for c in counts:
        c.setflags(write=False)
    data, cols, per_row = zip(*(_summed(d, i, j, b, tol)
                                for d, i, j, b in _fold(orb, L, r, rp, orb.shift[s], h)))
    starts = (np.cumsum(orb.widths) - orb.widths).tolist()
    D = basis.dim
    whole = sp.csr_matrix((np.concatenate(data), np.concatenate([c + a for c, a in zip(cols, starts)]),
                           np.concatenate([[0], np.cumsum(np.concatenate(per_row))])), shape=(D, D))
    diag = np.flatnonzero(whole.indices == np.repeat(np.arange(D), np.diff(whole.indptr)))
    for a in (whole.data, whole.indices, whole.indptr, diag):
        a.setflags(write=False)
    return _KeptBlocks(counts, whole, diag)


def momentum_blocks(L: int, n: int) -> tuple[sp.csr_matrix, ...]:
    """Sector isometries Q_0 .. Q_{L-1} onto the translation eigenspaces.

    Q_m = V_m W_m: V_m has one column |r, m> per orbit representative r that
    momentum m admits, with entries w^(m l) / sqrt(p) on the codes T^l r,
    l < p, and W_m (`_orbit_tables`) makes Q_mᴴ H Q_m real for an operator
    with P H P = conj(H).  Together the blocks form a unitary that
    block-diagonalizes every operator commuting with the shift.  The
    solvers use the same entries without forming Q_m (`_map_back`).
    """
    basis = sector_basis(L, n)
    orb = basis.orbits
    blocks = []
    for m, (col, d) in enumerate(zip(orb.column, orb.widths)):
        on = np.nonzero(col[orb.rep] >= 0)[0]  # the states s whose orbit r momentum m admits
        r = orb.rep[on]
        phase = _half_turn_roots(L)[2 * m * orb.shift[on] % (2 * L)] / np.sqrt(orb.period[r])
        rows, cols = np.tile(on, 2), np.concatenate([col[r], col[orb.mirror[r]]])
        vals = np.concatenate([phase * orb.own[m, r], phase * orb.other[m, r]])
        blocks.append(sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim, d)))
    return tuple(blocks)


def _map_back(L: int, n: int, Y: np.ndarray) -> np.ndarray:
    """sum_m Q_m Y_m for the columns of Y, Y_m the rows of block m in the
    direct sum of the real blocks, without forming Q_m.

    With g[m, r] = W_m[r, r] Y_m[col r] + W_m[r, r~] Y_m[col r~] (zero
    unless momentum m admits r), state s = T^l r takes
    sum_m w^(m l) g[m, r] / sqrt(p_r): one FFT over m, then a gather.
    """
    orb = sector_basis(L, n).orbits
    g = np.zeros((L, len(orb.states), Y.shape[1]), dtype=complex)
    start = 0
    for m, (col, d) in enumerate(zip(orb.column, orb.widths)):
        on = np.nonzero(col >= 0)[0]
        g[m, on] = (orb.own[m, on, None] * Y[start + col[on]]
                    + orb.other[m, on, None] * Y[start + col[orb.mirror[on]]])
        start += d
    G = np.fft.fft(g, axis=0)  # G[l] = sum_m g[m] w^(m l), w = exp(-2 pi i / L)
    return G[orb.shift, orb.rep] / np.sqrt(orb.period[orb.rep])[:, None]


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
    assembled from the two factors of `monodromy_halves`: each factor's
    (hi, hi') and (lo, lo') entries are gathered by one flat index each."""
    if L < 1:
        raise ValueError("need at least one site")
    basis = sector_basis(L, n)
    A, B = monodromy_halves(lam, mu, L)
    hi, lo = np.divmod(basis.codes, 3 ** (L - L // 2))
    at_a = hi[:, None] * 3 ** (L // 2) + hi
    at_b = lo[:, None] * 3 ** (L - L // 2) + lo
    T = sum(A[a, :, c].ravel().take(at_a) * B[c, :, a].ravel().take(at_b)
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


def _make_report(basis: SectorBasis, vals: np.ndarray, method: str) -> SpectrumReport:
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    return SpectrumReport(basis.L, basis.n, vals, _is_real(vals, _REAL_TOL), method)


def _is_real(vals: np.ndarray, real_tol: float) -> np.ndarray:
    return np.abs(vals.imag) <= real_tol * np.maximum(1.0, np.abs(vals.real))


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b with each real product rounded on its own; numpy's complex multiply
    may fuse them, and then a factor 1j does not commute exactly with it."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _fold(orb: SimpleNamespace, L: int, r, rp, l, h):
    """Yield, for m = 0 .. L-1, the width d of real block m and its entries
    (i, j, b) before summation, from the terms h of H[T^l r', r] scaled by
    sqrt(p_r / p_r') (arrays r, rp = r', l, h):
    H_m[r', r] = sum of h conj(w^(m l)) over the terms, made real by W_m
    (`_orbit_tables`)."""
    z = _half_turn_roots(L)
    for m, (col, own, other) in enumerate(zip(orb.column, orb.own, orb.other)):
        on = np.nonzero((col[r] >= 0) & (col[rp] >= 0))[0]
        v = h[on] * z[-2 * m * l[on] % (2 * L)]
        rpm, rm = rp[on], r[on]
        # term (r', r) of H_m enters B[a', a] for a' in {r', r'~} and a in {r, r~}
        uv = (_cmul(own[rpm].conj(), v), _cmul(other[rpm].conj(), v))
        b = np.concatenate([_cmul(u, x) for u in uv for x in (own[rm], other[rm])])
        i = np.repeat([col[rpm], col[orb.mirror[rpm]]], 2, axis=0).ravel()
        j = np.tile([col[rm], col[orb.mirror[rm]]], (2, 1)).ravel()
        yield orb.widths[m], i, j, b


def _summed(d: int, i: np.ndarray, j: np.ndarray, b: np.ndarray, tol: float):
    """The real d x d block of the chain Hamiltonian with entries b summed at
    (i, j), as the CSR arrays (data, int32 column indices, entries per row)
    with every diagonal slot stored.  The entries are added at their slots
    in the order given, so the order of the terms fixes the block's
    rounding.  Raises a ValueError if an imaginary part above tol is left,
    as it is when the folded terms break P H P = conj(H)."""
    slots, at = np.unique(np.concatenate([i.astype(np.int64) * d + j, np.arange(d) * (d + 1)]),
                          return_inverse=True)
    at = at[:len(b)]
    imag = np.bincount(at, b.imag, len(slots))
    if len(imag) and abs(imag).max() > tol:
        raise ValueError("real momentum blocks need an operator with P H P = conj(H)")
    rows, cols = np.divmod(slots, d)
    return (np.bincount(at, b.real, len(slots)).astype(float, copy=False), cols.astype(np.int32),
            np.bincount(rows, minlength=d))


def diagonalize(op: _ChainHamiltonian, mode: str = "full", k: int = 6) -> SpectrumReport:
    """Eigenvalues of the (non-Hermitian) chain Hamiltonian on one sector,
    as `build_hamiltonian` gives it.

    Every solve runs on the sector's real momentum blocks (`SectorBasis.kept`):
    H commutes with the shift and has P H P = conj(H) for the site
    reflection P, so each block Q_mᴴ H Q_m (`momentum_blocks`) is real.
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
            return _lowest_arpack(op, k)
        except ConvergenceFailure:
            if op.dim > DENSE_LIMIT:
                raise
            method = "dense-fallback"
    vals = np.concatenate([eig(B, right=False) for B in op.real_blocks() if len(B)])
    if mode == "lowest":
        vals = vals[np.argsort(vals.real)][:k]
    return _make_report(op.sector, vals, method)


def _lowest_arpack(op: _ChainHamiltonian, k: int) -> SpectrumReport:
    """ARPACK's real nonsymmetric mode on the direct sum of the chain
    Hamiltonian's real momentum blocks; eigenvectors mapped back through the
    Q_m (`_map_back`), and each residual checked against H applied bond by
    bond (`_apply_bonds`)."""
    D, B = op.dim, op.sector.kept.real_sum(op.U)
    v0 = np.ones(D) / np.sqrt(D)
    attempts = []
    for ncv in (max(40, 4 * k), max(90, 8 * k)):
        try:
            vals, vecs = spla.eigs(B, k=k, which="SR", ncv=min(ncv, D - 1), tol=1e-12,
                                   maxiter=8000, v0=v0)
        except spla.ArpackNoConvergence as exc:
            attempts.append(f"SR ncv={ncv}: no convergence ({exc})")
            continue
        vecs = _map_back(op.sector.L, op.sector.n, vecs)
        Hv, norm = _apply_bonds(op.U, op.sector, vecs)
        res = np.linalg.norm(Hv - vecs * vals[None, :], axis=0)
        if np.all(res <= 1e-9 * max(1.0, norm)):
            return _make_report(op.sector, vals, f"arpack-sr(ncv={ncv})")
        attempts.append(f"SR ncv={ncv}: residual {np.max(res):.2e}")
    raise ConvergenceFailure(
        f"lowest-eigenvalue iteration failed for dim {D}", diagnostics={"attempts": attempts}
    )


@lru_cache(maxsize=4096)
def _sector_lowest(U: float, L: int, n: int) -> float:
    """Lowest real part of sector n, its only level solved: ARPACK converges
    its wanted levels together, so each extra level costs restarts."""
    return float(diagonalize(build_hamiltonian(U, L, n), mode="lowest", k=1)
                 .eigenvalues.real.min())


def lowest_per_sector(U: float, L: int) -> np.ndarray:
    """Lowest real part of each sector n = 0 .. L, indexed by n (`_sector_lowest`).

    The +-n spectra coincide (checked directly at small L by the test
    suite), so only n >= 0 is diagonalized.
    """
    return np.array([_sector_lowest(U, L, n) for n in range(L + 1)])


def ground_state_energy(U: float, L: int) -> float:
    """E0, the smallest real part over all magnetization sectors (tables 4 and
    5), from each sector's lowest level alone."""
    return float(lowest_per_sector(U, L).min())


def lowest_two_energies(U: float, L: int):
    """(E0, E1): ground energy and the next level across sectors that lies
    more than 1e-9 (relative) above it (table 4).

    E0 and every sector's lowest level come from `lowest_per_sector`; only the
    sectors whose lowest level lies within the window of E0 are solved again
    for their _LEVELS lowest.  A sector's other levels lie at or above its
    lowest, so E1 is the smallest level above the window among those levels
    and the other sectors' lowest levels.
    """
    lows = lowest_per_sector(U, L)
    e0 = lows.min()
    top = e0 + 1e-9 * max(1.0, abs(e0))
    vals = np.concatenate([lows] + [
        diagonalize(build_hamiltonian(U, L, int(n)), mode="lowest", k=_LEVELS).eigenvalues.real
        for n in np.nonzero(lows <= top)[0]])
    above = vals[vals > top]
    if len(above) == 0:
        raise ConvergenceFailure(
            f"no level above the ground state among the {_LEVELS} lowest per sector")
    return float(e0), float(above.min())


def spectrum_is_real(U: float, L: int, tol: float = _REAL_TOL) -> bool:
    """True when every eigenvalue in every sector is real within tolerance.

    Decided one real momentum block at a time, on the blocks and with the
    test of `diagonalize`, from n = 0 up, stopping at the first block with
    a complex level: below the threshold the surviving complex pairs sit in
    n = 0.  The +-n spectra coincide, as in `lowest_per_sector`, so only
    n >= 0 is solved.
    """
    return all(np.all(_is_real(eig(B, right=False), tol))
               for n in range(L + 1) for B in build_hamiltonian(U, L, n).real_blocks() if len(B))


def reality_threshold(
    L: int,
    tol: float = _REAL_TOL,
    bracket: tuple[float, float] = (2.5, 3.45),
) -> float:
    """Smallest U with an entirely real spectrum, located by bisection to 1e-6,
    or until both ends of the bracket round to the same five decimal places.

    A probe above the threshold needs the full spectrum of every sector
    n >= 0; one below stops at its first complex level (`spectrum_is_real`).
    Every sector's blocks are kept across probes (`SectorBasis.kept`), so a
    probe at a new U costs one diagonal add per block and the block `eig`s.
    Full spectra keep it practical to L <= 9 only.  The result is rounded
    to five decimal places; once both ends round alike, every later midpoint
    lies between them and rounds alike too, so further probes cannot change it.
    """
    lo, hi = bracket
    if not (lo < hi):
        raise BracketInvalid(f"empty bracket {bracket}")
    if spectrum_is_real(lo, L, tol) or not spectrum_is_real(hi, L, tol):
        raise BracketInvalid(f"predicate does not change sign on {bracket} for L={L}")
    while hi - lo > 1e-6 and round(lo, 5) != round(hi, 5):
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


def sector_1_lowest(U: float, L: int) -> float:
    """Lowest energy in the n = 1 sector (the E1 relation), the level
    `lowest_per_sector` reads there."""
    return _sector_lowest(U, L, 1)


def f0_per_site(U: float, L: int) -> float:
    """Per-site defect of the ground-state reflection relation."""
    e0p = ground_state_energy(U, L)
    e0m = ground_state_energy(-U, L)
    return (e0p - e0m - U * L / 2.0) / L
