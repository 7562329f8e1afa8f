"""Spin-1 chain and transfer matrix on L periodic sites, per magnetization sector.

The chain Hamiltonian is the log derivative of the transfer matrix
T(lam, mu), the auxiliary-space trace of R_{01}(lam, mu) ... R_{0L}(lam, mu)
(`build_transfer_matrix`), at the regular point p0 = (x, y) = (1, 0) of the
curve's eps = exp(+i pi/3) branch:

    H(U) = -T(p0, p0)^-1 dT(lam, p0)/dt |_{lam = p0} + L U/4,

with t = sqrt(eps) y the local parameter on the curve through p0.  Since
R(p0, p0) is the swap of the two spaces, T(p0, p0) is the shift and H is a
sum of one two-site density per bond, `rmatrix.bond_density`, so the
operator order and the chain orientation follow from R.  The density's
U-part (U/4)(Sz_j^2 + Sz_{j+1}^2) telescopes on the ring, and each bond
carries the density at U = 0 with U/2 (Sz)^2 on its right site
(`bond_hamiltonian`).  In spin-1 ladder operators, with (Sz S+) applying S+
first,

    H(U) = sum_j { -exp(+i pi/6)/2 S+_j S-_{j+1} - exp(-i pi/6)/2 S-_j S+_{j+1}
                   + i/2 (Sz S+)_j S-_{j+1} - i/2 S-_j (Sz S+)_{j+1}
                   + U/2 (Sz_j)^2 },

and on the Bethe states it takes the value -sum 2 cos(k_j + pi/6) + n U/2
(`bethe.energy`), the same log derivative of the transfer-matrix eigenvalue.

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

from .curve import CurveParams, CurvePoint
from .errors import NoConvergence
from .rmatrix import bond_density, r_matrix

DENSE_LIMIT = 20000
_DENSE_EIG_CUTOFF = 900  # dims above this use ARPACK in "lowest" mode
_REAL_TOL = 1e-8  # |Im E| <= _REAL_TOL max(1, |Re E|) marks a reported level real
_LEVELS = 8  # most levels solved in a sector that holds E0, to find the first excitation E1
# lowest mode's largest k: ARPACK's second basis at L = 14, n = 0 (616,227 x 8k) stays under 1 GB
_MAX_LOWEST_K = 24


# the U-independent hopping part of the bond: the R-matrix's bond density at U = 0
_HOP = bond_density(CurveParams(0.0))
# the on-site U/2 term's count of spins +-1 (label != 1) on the bond's right site
_ONSITE = np.diag((np.arange(9) % 3 != 1).astype(float))
# per bond column c, the rows r of the entries that some U makes nonzero
_BOND_ROWS = [np.flatnonzero((_HOP[:, c] != 0) | (_ONSITE[:, c] != 0)) for c in range(9)]
# per bond column c, the rows r of the entries of the hopping part
_HOP_ROWS = [np.flatnonzero(_HOP[:, c]) for c in range(9)]


def bond_hamiltonian(U: float) -> np.ndarray:
    """Two-site operator of bond (j, j + 1): the R-matrix's bond density with
    its U-part (U/4)(Sz_j^2 + Sz_{j+1}^2) telescoped onto the right site,

        bond_density(U) = bond_hamiltonian(U) + (U/4)(Sz_j^2 - Sz_{j+1}^2),

    so the bonds of a ring sum to the same H(U)."""
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
    translation orbits (`orbits`) and its real blocks at U = 0 as one CSR
    direct sum (`kept`), and nothing else.  `sector_basis` hands out one
    object per (L, n) and holds the sectors of one L only, so a caller that
    walks L upward releases each L before it builds the next.
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


def _bond_walk(codes: np.ndarray, L: int, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, targets, entry) of every term of the L periodic bonds whose bond
    entry 9 r + c has r in rows[c]: the code codes[src] carries labels c at
    the bond's two sites, and the term takes it to the code in `targets`
    with bond entry `entry` = 9 r + c.  All bonds are walked at once, and the
    terms come bond by bond, then by c, r and src."""
    bond = np.arange(L)[:, None]
    left, right = 3 ** (L - 1 - bond), 3 ** (L - 1 - (bond + 1) % L)
    pair = 3 * (codes // left % 3) + codes // right % 3  # labels c of every bond and code
    table = np.full((9, max(map(len, rows))), -1)
    for c, rs in enumerate(rows):
        table[c, :len(rs)] = rs
    j, src, k = np.nonzero(table[pair] >= 0)  # by bond, then src, then r
    c = pair[j, src]
    r = table[c, k]
    order = np.argsort((9 * j + c) * 9 + r, kind="stable")
    j, src, c, r = j[order], src[order], c[order], r[order]
    targets = codes[src] + (r // 3 - c // 3) * left[j, 0] + (r % 3 - c % 3) * right[j, 0]
    return src, targets, 9 * r + c


_sectors: dict[tuple[int, int], SectorBasis] = {}  # by (L, n), all of one L (`sector_basis`)


def sector_basis(L: int, n: int) -> SectorBasis:
    """The magnetization-n sector of L sites, one object per (L, n).

    Only the sectors of the last L asked for are held: asking for another
    L releases them, with their orbits and blocks, and
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
    operator and the one its residuals are checked on, and the dense blocks
    of `real_blocks` are filled from its rows.
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
    """Row, column and flat bond index 9 r + c of every term of the L periodic
    bonds that some U makes nonzero (`_bond_walk`), the pattern of `matrix`."""
    src, target, entry = _bond_walk(basis.codes, basis.L, _BOND_ROWS)
    return basis.rank(target), src, entry


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
    one copy of the data with a diagonal add, and each dense block is
    filled from its own rows of the sum (`block`).
    """

    counts: tuple[np.ndarray, ...]
    whole: sp.csr_matrix
    diag: np.ndarray

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The first row of every block, and the row of every stored entry."""
        starts = np.cumsum([0] + [len(c) for c in self.counts])
        ptr = self.whole.indptr
        return starts, np.repeat(np.arange(len(ptr) - 1, dtype=np.int32), np.diff(ptr))

    def block(self, U: float, m: int) -> np.ndarray:
        """Dense block m of H(U), from its own rows of the sum alone."""
        starts, rows = self._rows
        start, end = starts[m], starts[m + 1]
        a, b = self.whole.indptr[start], self.whole.indptr[end]
        data = self.whole.data[a:b].copy()
        data[self.diag[start:end] - a] += (U / 2) * self.counts[m]
        B = np.zeros((end - start, end - start))
        B[rows[a:b] - start, self.whole.indices[a:b] - start] = data
        return B

    def blocks(self, U: float):
        """Dense blocks of H(U), m = 0 .. L-1."""
        return (self.block(U, m) for m in range(len(self.counts)))

    def real_sum(self, U: float) -> sp.csr_matrix:
        """The direct sum of H(U)'s blocks as one CSR matrix: one copy of
        `whole.data` with the diagonal add."""
        data = self.whole.data.copy()
        data[self.diag] += (U / 2) * np.concatenate(self.counts)
        return sp.csr_matrix((data, self.whole.indices, self.whole.indptr), shape=self.whole.shape)


def _kept_blocks(basis: SectorBasis) -> _KeptBlocks:
    """B_m(0) and C_m of a sector of the chain Hamiltonian, folded from the
    hopping terms of H(0) applied to the orbit representatives alone;
    arrays are read-only.  Only the chain is folded: its P H P = conj(H)
    is what makes the blocks real, and the fold checks it.

    Each term takes a representative r to a state s = T^l r' and enters
    block m as the four entries (a', a), a' in {r', r'~} and a in {r, r~}
    (`_orbit_tables`), with the value H_m[r', r] = h conj(w^(m l)) made real
    by W_m.  The terms are summed in the order of H(0)'s CSR columns at the
    representatives, by state s and then by r, which fixes every block's
    rounding in every sector.  No CSR H(0) or whole-sector label table is
    built.

    The entries are grouped by their representative pair (a', a) once per
    sector.  A block's columns follow the representatives it admits in
    their order, so the pairs in their order are every block's slots in
    CSR order; a block that skips short orbits takes the subset of pairs
    it admits, renumbered.  Per momentum, only the values are computed and
    summed slot by slot in term order, straight into the direct sum's
    preallocated CSR arrays, with every diagonal slot (a, a) stored.

    sum_j (Sz_j)^2 counts a state's spins +-1: it is diagonal on the codes
    and commutes with the shift and the site reflection, so in the real
    block basis it is diag(C_m), the counts at the orbit representatives
    that momentum m admits, in column order.
    """
    orb, L = basis.orbits, basis.L
    reps = basis.codes[orb.states]
    r, target, entry = _bond_walk(reps, L, _HOP_ROWS)
    hop = _HOP.ravel()[entry]
    s = basis.rank(target)
    order = np.lexsort((r, s))  # by state s, then by representative r
    r, s, hop = r[order], s[order], hop[order]
    rp, l = orb.rep[s], orb.shift[s]
    h = hop * np.sqrt(orb.period[r] / orb.period[rp])
    tol = 1e-12 * max(1.0, np.abs(hop).max(initial=0.0))
    spins = np.count_nonzero(_digits(reps, L) != 1, axis=1).astype(float)
    counts = tuple(spins[col >= 0] for col in orb.column)
    for c in counts:
        c.setflags(write=False)
    # the entries (a', a) of every term, in the order of `b` below, then every (a, a)
    R, mr, mrp = len(reps), orb.mirror[r], orb.mirror[rp]
    pairs, slot = np.unique(np.concatenate([rp * R + r, rp * R + mr, mrp * R + r, mrp * R + mr,
                                            np.arange(R) * (R + 1)]), return_inverse=True)
    slot = slot[:4 * len(r)].reshape(4, -1)
    ap, a = np.divmod(pairs, R)
    # momentum m admits a pair when m g = 0 mod L, as it admits an orbit of period p when m p = 0
    g = np.gcd(orb.period[ap], orb.period[a])
    per_g = np.bincount(g, minlength=L + 1)
    steps = [L // np.gcd(m, L) for m in range(L)]  # m admits g when steps[m] divides g
    sizes = [int(per_g[::q].sum()) for q in steps]
    D, nnz = basis.dim, sum(sizes)
    data, indices = np.empty(nnz), np.empty(nnz, dtype=np.int32)
    per_row, diag = np.zeros(D, dtype=np.int64), []
    z, start, off = _half_turn_roots(L), 0, 0
    for m, (col, own, other, q, size) in enumerate(zip(orb.column, orb.own, orb.other,
                                                       steps, sizes)):
        if size == len(pairs):  # m admits every orbit, so every term and pair
            on, keep, at = np.arange(len(r)), slice(None), slot.ravel()
        else:
            on = np.nonzero((col[r] >= 0) & (col[rp] >= 0))[0]
            keep = g % q == 0
            at = (np.cumsum(keep) - 1)[slot[:, on].ravel()]
        # h[on] is a copy: numpy may reuse a temporary operand of a large
        # product as its output, and reusing z's would swap the operands of
        # the complex multiply, which rounds the imaginary parts differently
        v = h[on] * z[-2 * m * l[on] % (2 * L)]
        rpm, rm = rp[on], r[on]
        # term (r', r) of H_m enters B[a', a] for a' in {r', r'~} and a in {r, r~}
        uv = _cmul(np.stack([own[rpm], other[rpm]]).conj(), v)
        b = _cmul(uv[:, None], np.stack([own[rm], other[rm]])).ravel()
        d = orb.widths[m]
        imag = np.bincount(at, b.imag, size)
        if size and abs(imag).max() > tol:
            raise ValueError("real momentum blocks need an operator with P H P = conj(H)")
        data[off:off + size] = np.bincount(at, b.real, size)
        indices[off:off + size] = col[a[keep]] + start
        per_row[start:start + d] = np.bincount(col[ap[keep]], minlength=d)
        diag.append(off + np.flatnonzero(ap[keep] == a[keep]))
        start, off = start + d, off + size
    whole = sp.csr_matrix((data, indices, np.concatenate([[0], np.cumsum(per_row)])), shape=(D, D))
    diag = np.concatenate(diag)
    for x in (whole.data, whole.indices, whole.indptr, diag):
        x.setflags(write=False)
    return _KeptBlocks(counts, whole, diag)


def momentum_blocks(L: int, n: int) -> tuple[sp.csr_matrix, ...]:
    """Sector isometries Q_0 .. Q_{L-1} onto the translation eigenspaces.

    Q_m = V_m W_m: V_m has one column |r, m> per orbit representative r that
    momentum m admits, with entries w^(m l) / sqrt(p) on the codes T^l r,
    l < p, and W_m (`_orbit_tables`) makes Q_mᴴ H Q_m real for an operator
    with P H P = conj(H).  Together the blocks form a unitary that
    block-diagonalizes every operator commuting with the shift.  No solver
    forms Q_m: the tests use them as the reference that joins the blocks
    to the whole sector.
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
    assembled from the two factors of `monodromy_halves` by spin blocks.

    The states whose first L//2 sites carry spin s are the full product of
    the hi codes H_s of those sites and the lo codes Lo_s of the rest (spin
    n - s), in Kronecker order.  R conserves spin, so A[a, :, c] takes hi
    spin s' to s, and B[c, :, a] lo spin n - s' to n - s, only for
    s' - s = c - a.  Block (s, s') of T is the sum of
    kron(A[a, :, c][H_s, H_s'], B[c, :, a][Lo_s, Lo_s']) over those (a, c), in
    the order of the full sum over a and c, whose other products are exact
    zeros and leave every entry's bits as they are.
    """
    if L < 1:
        raise ValueError("need at least one site")
    basis = sector_basis(L, n)
    A, B = monodromy_halves(lam, mu, L)
    half = L // 2
    spins = _code_spins(basis.codes // 3 ** (L - half), half)
    groups = [(s, np.flatnonzero(spins == s), _sector_codes(half, s),
               _sector_codes(L - half, n - s)) for s in np.unique(spins).tolist()]
    T = np.zeros((basis.dim, basis.dim), dtype=complex)
    for s, rows, hi, lo in groups:
        for s2, cols, hi2, lo2 in groups:
            pairs = [(a, a + s2 - s) for a in range(3) if 0 <= a + s2 - s < 3]
            if pairs:
                T[np.ix_(rows, cols)] = sum(np.kron(A[a, :, c][np.ix_(hi, hi2)],
                                                    B[c, :, a][np.ix_(lo, lo2)]) for a, c in pairs)
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


def diagonalize(op: _ChainHamiltonian, mode: str = "full", k: int = 6) -> SpectrumReport:
    """Eigenvalues of the (non-Hermitian) chain Hamiltonian on one sector,
    as `build_hamiltonian` gives it.

    Every solve runs on the sector's real momentum blocks (`SectorBasis.kept`):
    H commutes with the shift and has P H P = conj(H) for the site
    reflection P, so each block Q_mᴴ H Q_m (`momentum_blocks`) is real.
    mode="full" returns every eigenvalue, by dense LAPACK per block.
    mode="lowest" returns the 1 <= k <= 24 smallest-real-part eigenvalues: from the
    block spectrum up to _DENSE_EIG_CUTOFF states, from ARPACK on the direct
    sum of the blocks above, its residuals checked on that sum
    (`_lowest_arpack`), and from the block spectrum again ("dense-fallback")
    when ARPACK fails on up to DENSE_LIMIT states.  No solve builds the CSR H
    or a Q_m.
    """
    if mode == "full" and op.dim > DENSE_LIMIT:
        raise ValueError(f"full diagonalization capped at dim {DENSE_LIMIT}, got {op.dim}")
    if mode not in ("full", "lowest"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "lowest" and k < 1:
        raise ValueError(f"lowest mode needs k >= 1, got {k}")
    if mode == "lowest" and k > _MAX_LOWEST_K:
        raise ValueError(f"lowest mode needs k <= {_MAX_LOWEST_K}, got {k}")
    method = "dense"
    if mode == "lowest" and op.dim > _DENSE_EIG_CUTOFF:
        try:
            return _lowest_arpack(op, k)
        except NoConvergence:
            if op.dim > DENSE_LIMIT:
                raise
            method = "dense-fallback"
    vals = np.concatenate([eig(B, right=False) for B in op.real_blocks() if len(B)])
    if mode == "lowest":
        vals = vals[np.argsort(vals.real)][:k]
    return _make_report(op.sector, vals, method)


def _krylov_sizes(k: int) -> tuple[int, int]:
    """ARPACK's Krylov sizes ncv for k levels, first and second attempt: scipy's
    default max(20, 2k + 1), which is 20 for every k <= 9, then max(90, 8k).
    With k <= _MAX_LOWEST_K = 24 neither exceeds 192, below every sector
    that ARPACK solves (more than _DENSE_EIG_CUTOFF = 900 states)."""
    return max(20, 2 * k + 1), max(90, 8 * k)


def _lowest_arpack(op: _ChainHamiltonian, k: int) -> SpectrumReport:
    """ARPACK's real nonsymmetric mode on the direct sum B(U) of the chain
    Hamiltonian's real momentum blocks, each Ritz pair (lam, y) accepted when
    |B y - lam y| <= 1e-9 max(1, |B|_inf).  The blocks come from a unitary
    Q = [Q_0 .. Q_{L-1}] (`momentum_blocks`) with H Q = Q B, so this is the
    residual of the eigenvector Q y of H itself."""
    D, B = op.dim, op.sector.kept.real_sum(op.U)
    bound = 1e-9 * max(1.0, spla.norm(B, np.inf))
    v0 = np.ones(D) / np.sqrt(D)
    attempts = []
    for ncv in _krylov_sizes(k):
        try:
            vals, vecs = spla.eigs(B, k=k, which="SR", ncv=ncv, tol=1e-12,
                                   maxiter=8000, v0=v0)
        except spla.ArpackNoConvergence as exc:
            attempts.append(f"SR ncv={ncv}: no convergence ({exc})")
            continue
        res = np.linalg.norm(B @ vecs - vecs * vals[None, :], axis=0)
        if np.all(res <= bound):
            return _make_report(op.sector, vals, f"arpack-sr(ncv={ncv})")
        attempts.append(f"SR ncv={ncv}: residual {np.max(res):.2e}")
    raise NoConvergence(f"lowest-eigenvalue iteration failed for dim {D}",
                        diagnostics={"attempts": attempts})


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
    (`_levels_reaching`).  A sector's other levels lie at or above its
    lowest, so E1 is the smallest level above the window among those levels
    and the other sectors' lowest levels.
    """
    lows = lowest_per_sector(U, L)
    e0 = lows.min()
    top = e0 + 1e-9 * max(1.0, abs(e0))
    vals = np.concatenate([lows] + [_levels_reaching(U, L, int(n), top)
                                    for n in np.nonzero(lows <= top)[0]])
    above = vals[vals > top]
    if len(above) == 0:
        raise NoConvergence(
            f"no level above the ground state among the {_LEVELS} lowest per sector")
    return float(e0), float(above.min())


def _levels_reaching(U: float, L: int, n: int, top: float) -> np.ndarray:
    """Real parts of sector n's k lowest levels, for k = 2, 4, .. _LEVELS, the
    first k with a level above `top`: the smallest level above `top` is then
    among them.  A sector with fewer than k levels has them all."""
    k = 2
    while True:
        vals = diagonalize(build_hamiltonian(U, L, n), mode="lowest", k=k).eigenvalues.real
        if k >= _LEVELS or len(vals) < k or np.any(vals > top):
            return vals
        k *= 2


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

    The bisection assumes that the spectrum, once real, stays real as U
    grows, and the search assumes the same of every real momentum block
    (n, m), n >= 0.  A probe solves the blocks that may still hold a complex
    level (`_pending_real`), from n = L down, and stops at the first complex
    one.  That probe becomes the new lower end, below every later probe, so
    the blocks it found real are not solved again.  Near the end only the
    few n = 0 blocks that hold the last complex pairs are solved.  Every
    sector's blocks are kept across probes (`SectorBasis.kept`), so a block
    at a new U costs one diagonal add and its `eig`.

    The upper end found is confirmed on every block (`spectrum_is_real`).
    Should a block's reality not be monotone in U and the confirmation
    fail, the plain bisection over every block runs on the given bracket,
    so the result is always a verified sign change.  Full spectra keep the
    search practical to L <= 9 only.  The result is rounded to five decimal
    places; once both ends round alike, every later midpoint lies between
    them and rounds alike too, so further probes cannot change it.
    """
    lo, hi = bracket
    if not (lo < hi):
        raise ValueError(f"empty bracket {bracket}")
    if spectrum_is_real(lo, L, tol) or not spectrum_is_real(hi, L, tol):
        raise ValueError(f"predicate does not change sign on {bracket} for L={L}")
    pending = [(n, m) for n in range(L, -1, -1) for m in range(L)]
    lo, hi = _bisect(lo, hi, lambda U: _pending_real(U, L, tol, pending))
    if not spectrum_is_real(hi, L, tol):
        lo, hi = _bisect(*bracket, lambda U: spectrum_is_real(U, L, tol))
    return round(0.5 * (lo + hi), 5)


def _bisect(lo: float, hi: float, real) -> tuple[float, float]:
    """The bracket (lo, hi) narrowed by bisection on the predicate `real` of U
    to 1e-6, or until both ends round to the same five decimal places."""
    while hi - lo > 1e-6 and round(lo, 5) != round(hi, 5):
        mid = 0.5 * (lo + hi)
        if real(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _pending_real(U: float, L: int, tol: float, pending: list) -> bool:
    """True when every block (n, m) in `pending` is real at U, solved in
    list order.  At the first complex block, the blocks found real before
    it are dropped from the list and it moves to the end."""
    op = None
    for i, (n, m) in enumerate(pending):
        if op is None or op.sector.n != n:
            op = build_hamiltonian(U, L, n)
        if not _block_is_real(op, m, tol):
            pending[:] = pending[i + 1:] + pending[i:i + 1]
            return False
    return True


def _block_is_real(op: _ChainHamiltonian, m: int, tol: float) -> bool:
    """Whether real momentum block m of H(U) has only real levels, as
    `spectrum_is_real` decides it."""
    B = op.sector.kept.block(op.U, m)
    return not len(B) or bool(np.all(_is_real(eig(B, right=False), tol)))


@dataclass
class SymmetryReport:
    L: int
    U: float
    spectral_distance: float
    e1_relation_defect: float
    f0_per_site: float


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    return float(max(_farthest(a, b), _farthest(b, a)))


def _farthest(a: np.ndarray, b: np.ndarray) -> float:
    """The largest distance from a point of a to its nearest point of b, from
    one table |b - z| per block of rows z of a, at most 2^16 entries (1 MB):
    larger tables were no faster and raised the peak RSS of the L = 6
    symmetry check."""
    step = max(1, 2**16 // len(b))
    return max(np.abs(b - a[i:i + step, None]).min(axis=1).max() for i in range(0, len(a), step))


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
