import re
from itertools import product

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from genus5chain import lattice, refdata
from genus5chain.curve import CurveParams, CurvePoint, sample_points
from genus5chain.errors import BracketInvalid
from genus5chain.lattice import (
    build_hamiltonian,
    build_transfer_matrix,
    diagonalize,
    sector_basis,
    sector_dimension,
    shift_operator,
)


def _trinomial(L, n):
    # number of {+1,0,-1}^L strings with fixed sum, by direct convolution
    from math import comb

    total = 0
    for zeros in range(L + 1):
        rest = L - zeros
        plus = (rest + n) / 2
        if plus.is_integer() and 0 <= plus <= rest:
            total += comb(L, zeros) * comb(rest, int(plus))
    return total


def _labels(code, L):
    """Site labels of a base-3 code, site 0 first."""
    return tuple(int(ch) for ch in np.base_repr(int(code), 3).rjust(L, "0"))


def _tuple_states(L, n):
    return [s for s in product(range(3), repeat=L) if sum(1 - v for v in s) == n]


def _reference_hamiltonian(U, L, n):
    """Loop build of H over label tuples with a dict index, as before integer codes."""
    states = _tuple_states(L, n)
    index = {s: i for i, s in enumerate(states)}
    bond = lattice.bond_hamiltonian(U)
    nz = {c: np.nonzero(np.abs(bond[:, c]) > 1e-15)[0] for c in range(9)}
    rows, cols, vals = [], [], []
    for i, s in enumerate(states):
        for j in range(L):
            jp = (j + 1) % L
            col = 3 * s[j] + s[jp]
            for r in nz[col]:
                t = list(s)
                t[j], t[jp] = divmod(int(r), 3)
                rows.append(index[tuple(t)])
                cols.append(i)
                vals.append(bond[r, col])
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(states), len(states)), dtype=complex)


def test_sector_dimensions_and_completeness():
    for L in (3, 5, 6):
        dims = [sector_dimension(L, n) for n in range(-L, L + 1)]
        assert sum(dims) == 3**L
        for n in range(-L, L + 1):
            assert sector_dimension(L, n) == _trinomial(L, n)


def test_basis_is_lexicographic():
    b = sector_basis(4, 1)
    assert [_labels(c, 4) for c in b.codes] == sorted(_tuple_states(4, 1))


@pytest.mark.parametrize("U", [1.3, -2.7, 2 * np.sqrt(3)])
def test_hamiltonian_matches_tuple_reference(U):
    for L in range(2, 8):
        for n in range(-L, L + 1):
            H = build_hamiltonian(U, L, n).matrix
            H_ref = _reference_hamiltonian(U, L, n)
            assert H.shape == H_ref.shape
            assert (H != H_ref).nnz == 0


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 7), data=st.data(), U=st.floats(-6.0, 6.0))
def test_sector_codes_properties(L, data, U):
    n = data.draw(st.integers(-L, L), label="n")
    codes = sector_basis(L, n).codes
    assert np.all(np.diff(codes) > 0)
    assert all(sum(1 - v for v in _labels(c, L)) == n for c in codes)
    union = np.sort(np.concatenate([sector_basis(L, m).codes for m in range(-L, L + 1)]))
    assert np.array_equal(union, np.arange(3**L))
    H = build_hamiltonian(U, L, n).matrix
    T = shift_operator(L, n)
    assert abs(H @ T - T @ H).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 8), data=st.data(), U=st.floats(-6.0, 6.0))
def test_reflection_conjugates_hamiltonian(L, data, U):
    # P H P = conj(H) for the site reflection P, so every momentum block has a real form
    n = data.draw(st.integers(-L, L), label="n")
    states = _tuple_states(L, n)
    index = {s: i for i, s in enumerate(states)}
    R = [index[s[::-1]] for s in states]
    H = build_hamiltonian(U, L, n).matrix
    assert np.array_equal(H[R][:, R].toarray(), H.conj().toarray())


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 8), data=st.data(), U=st.floats(-6.0, 6.0))
def test_real_blocks_are_isometry_products(L, data, U):
    n = data.draw(st.integers(-L, L), label="n")
    op = build_hamiltonian(U, L, n)
    blocks = list(lattice._real_blocks(op))
    Q = lattice.momentum_blocks(L, n)
    assert len(blocks) == len(Q) == L
    for B, Qm in zip(blocks, Q):
        assert B.dtype == np.float64 and B.shape == (Qm.shape[1],) * 2
        gram = (Qm.conj().T @ Qm).toarray()
        assert np.max(np.abs(gram - np.eye(Qm.shape[1])), initial=0.0) < 1e-14
        assert np.max(np.abs((Qm.conj().T @ op.matrix @ Qm).toarray() - B), initial=0.0) < 1e-13


@settings(max_examples=30, deadline=None)
@given(L=st.sampled_from([2, 4, 6, 8]), data=st.data(), U=st.floats(-6.0, 6.0))
def test_staggered_sign_maps_real_blocks_bit_for_bit(L, data, U):
    # G = (-1)^(sum_j j Sz_j) gives G H(U) G = -H(-U) and G Q_m = Q_m' diag(kappa)
    # with m' = m + n L / 2 and kappa in {+-1, +-1j}, so block m' at -U is
    # -kappa B kappa^* of block m at U, which real arithmetic must keep exact
    n = data.draw(st.integers(-L, L), label="n")
    g = (-1.0) ** ((1 - sector_basis(L, n).digits()) @ np.arange(L))
    plus = list(lattice._real_blocks(build_hamiltonian(U, L, n)))
    minus = list(lattice._real_blocks(build_hamiltonian(-U, L, n)))
    Q = lattice.momentum_blocks(L, n)
    for m in range(L):
        mp = (m + n * L // 2) % L
        S = (Q[mp].conj().T @ (g[:, None] * Q[m].toarray()))
        kappa = np.round(np.diag(S))
        assert np.max(np.abs(S - np.diag(kappa)), initial=0.0) < 1e-12
        assert np.all(np.isin(kappa, [1, -1, 1j, -1j]))
        sign = (kappa[:, None] * kappa.conj()[None, :]).real
        assert np.array_equal(minus[mp], -sign * plus[m])


def _reference_real_blocks(op, sparse=False):
    """The real momentum blocks laid out anew from H on every call: the shift
    check by sparse products, H's columns at the representatives by slicing."""
    basis, H, L = op.sector, op.matrix, op.sector.L
    S = shift_operator(L, basis.n)
    tol = 1e-12 * max(1.0, abs(H).max())
    if abs(H @ S - S @ H).max() > tol:
        raise ValueError("momentum blocks need an operator that commutes with the shift")
    orb = lattice._orbits(L, basis.n)
    cols = H[:, orb.states].tocoo()
    r, rp, l = cols.col, orb.rep[cols.row], orb.shift[cols.row]
    h, z = cols.data * np.sqrt(orb.period[r] / orb.period[rp]), lattice._half_turn_roots(L)
    for m, (col, own, other) in enumerate(zip(orb.column, orb.own, orb.other)):
        d = np.count_nonzero(col >= 0)
        on = np.nonzero((col[r] >= 0) & (col[rp] >= 0))[0]
        v = h[on] * z[-2 * m * l[on] % (2 * L)]
        rpm, rm = rp[on], r[on]
        uv = (lattice._cmul(own[rpm].conj(), v), lattice._cmul(other[rpm].conj(), v))
        b = np.concatenate([lattice._cmul(u, x) for u in uv for x in (own[rm], other[rm])])
        i = np.repeat([col[rpm], col[orb.mirror[rpm]]], 2, axis=0).ravel()
        j = np.tile([col[rm], col[orb.mirror[rm]]], (2, 1)).ravel()
        if sparse:
            B = sp.csr_matrix((b, (i, j)), shape=(d, d))
            imag, B = B.data.imag, B.real
        else:
            flat = i * d + j
            imag = np.bincount(flat, b.imag, d * d)
            B = np.bincount(flat, b.real, d * d).reshape(d, d).astype(float, copy=False)
        if len(imag) and abs(imag).max() > tol:
            raise ValueError("real momentum blocks need an operator with P H P = conj(H)")
        yield B


def _bits(M):
    """Dtype, shape and bytes of a dense array or of a CSR matrix's arrays."""
    arrays = (M.indptr, M.indices, M.data) if sp.issparse(M) else (M,)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("sparse", [False, True])
def test_kept_tables_refill_bit_for_bit(sparse):
    # U = 0 drops the diagonal, so its pattern is not the kept one and is streamed
    L, n, couplings = 7, 1, (1.0, 0.0, -2.3)  # dim 357: tables kept
    lattice._sector_tables.cache_clear()
    warm = [build_hamiltonian(U, L, n) for U in couplings]
    warm = [(op.matrix, list(lattice._real_blocks(op, sparse))) for op in warm]
    assert lattice._sector_tables.cache_info().currsize == 1
    for U, (H, blocks) in zip(couplings, warm):
        lattice._sector_tables.cache_clear()
        op = build_hamiltonian(U, L, n)
        assert _bits(H) == _bits(op.matrix)
        cold = list(lattice._real_blocks(op, sparse))
        ref = list(_reference_real_blocks(op, sparse))
        assert [_bits(B) for B in blocks] == [_bits(B) for B in cold] == [_bits(B) for B in ref]


def test_foreign_pattern_streams_its_own_tables(monkeypatch):
    op = build_hamiltonian(2.0, 6, 0)  # dim 141: tables kept
    list(lattice._real_blocks(op))
    streamed = []
    pattern_tables = lattice._pattern_tables

    def spy(L, n, indptr, indices):
        streamed.append(indptr)
        return pattern_tables(L, n, indptr, indices)

    monkeypatch.setattr(lattice, "_pattern_tables", spy)
    list(lattice._real_blocks(build_hamiltonian(-1.5, 6, 0)))
    assert streamed == []
    eye = sp.identity(op.dim, dtype=complex, format="csr")
    shifted = op.matrix + 0.1j * eye
    stray = eye.tolil()
    stray[0, 5] = 1.0
    zero = sp.csr_matrix(stray)
    zero.data[zero.indices == 5] = 0.0  # stored zero: its translate is not stored
    # two stored translates, 1.5e-12 then 0.9e-12, between unstored ends:
    # only the step from the unstored entry before them exceeds 1e-12
    step = lattice._orbits(6, 0).step
    chain = eye.tolil()
    chain[0, 5], chain[step[0], step[5]] = 1.5e-12, 0.9e-12
    for M in (eye, shifted, zero, sp.csr_matrix(stray), sp.csr_matrix(chain)):
        foreign = lattice.LatticeOperator(op.sector, M)
        for sparse in (False, True):
            streamed.clear()
            try:
                ref = [_bits(B) for B in _reference_real_blocks(foreign, sparse)]
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    list(lattice._real_blocks(foreign, sparse))
            else:
                assert [_bits(B) for B in lattice._real_blocks(foreign, sparse)] == ref
            assert len(streamed) == 1 and streamed[0] is M.indptr
    # duplicate entries are summed before the pattern is read
    halves = sp.csr_matrix((np.full(2 * op.dim, 0.5 + 0j), np.repeat(np.arange(op.dim), 2),
                            np.arange(0, 2 * op.dim + 1, 2)), shape=eye.shape)
    assert not halves.has_canonical_format
    blocks = [lattice._real_blocks(lattice.LatticeOperator(op.sector, M)) for M in (halves, eye)]
    assert [_bits(B) for B in blocks[0]] == [_bits(B) for B in blocks[1]]


def test_tables_kept_for_dense_sectors_only():
    # the benchmark empties every lru_cache it finds among module attributes
    assert hasattr(vars(lattice)["_sector_tables"], "cache_clear")
    L = 9
    lattice._sector_tables.cache_clear()
    for n in range(L + 1):
        diagonalize(build_hamiltonian(1.0, L, n), mode="lowest", k=6)
    small = [n for n in range(L + 1) if sector_dimension(L, n) <= lattice._DENSE_EIG_CUTOFF]
    assert 0 < len(small) < L + 1
    info = lattice._sector_tables.cache_info()
    assert info.currsize == len(small)
    for n in small:
        lattice._sector_tables(L, n)
    after = lattice._sector_tables.cache_info()
    assert after.currsize == len(small) and after.hits == info.hits + len(small)


def test_vacuum_sector():
    rep = diagonalize(build_hamiltonian(3.7, 5, 5), mode="full")
    assert rep.eigenvalues.shape == (1,)
    assert abs(rep.eigenvalues[0] - 5 * 3.7 / 2) < 1e-12


def test_one_magnon_energies():
    U, L = 4.0, 4
    rep = diagonalize(build_hamiltonian(U, L, L - 1), mode="full")
    expect = sorted(-2 * np.cos(2 * np.pi * m / L + np.pi / 6) + (L - 1) * U / 2 for m in range(L))
    assert np.allclose(sorted(rep.eigenvalues.real), expect, atol=1e-12)
    assert np.max(np.abs(rep.eigenvalues.imag)) < 1e-12


def test_ground_state_energy_reference_l8():
    e0 = lattice.ground_state_energy(4.0, 8)
    assert abs(e0 / 8 - refdata.TABLE2_ENERGY["4"][8]) < 1e-11


def test_table_energies_share_one_sector_solve(monkeypatch):
    for fn in vars(lattice).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    calls = []
    solve = lattice.lowest_per_sector

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lattice, "lowest_per_sector", counted)
    e0, _ = lattice.lowest_two_energies(1.0, 4)
    assert lattice.ground_state_energy(1.0, 4, k=8) == e0
    assert len(calls) == 1


def test_magnetization_conserved_by_bond_terms():
    bond = lattice.bond_hamiltonian(1.3)
    spin = {0: 1, 1: 0, 2: -1}
    for r in range(9):
        for c in range(9):
            if abs(bond[r, c]) > 1e-15:
                assert spin[r // 3] + spin[r % 3] == spin[c // 3] + spin[c % 3]


def test_translation_invariance():
    H = build_hamiltonian(2.3, 5, 1).matrix.toarray()
    T = shift_operator(5, 1).toarray()
    assert np.max(np.abs(H @ T - T @ H)) < 1e-12


def test_conjugate_pair_closure():
    # real arithmetic returns every complex level with its exact conjugate
    for L, mode in ((6, "full"), (8, "lowest")):  # block and ARPACK paths
        vals = diagonalize(build_hamiltonian(1.0, L, 0), mode=mode, k=6).eigenvalues
        comp = vals[vals.imag != 0]
        assert len(comp) >= 2
        assert set(comp.conj().tolist()) == set(comp.tolist())


def _hausdorff(a, b):
    return max(max(np.min(np.abs(b - z)) for z in a), max(np.min(np.abs(a - z)) for z in b))


def test_mirror_sectors_same_spectrum():
    for L, U in ((5, 2.0), (6, 1.0), (7, 3.0), (7, 3.3)):
        for n in range(1, L + 1):
            rp = diagonalize(build_hamiltonian(U, L, n), mode="full")
            rm = diagonalize(build_hamiltonian(U, L, -n), mode="full")
            assert _hausdorff(rp.eigenvalues, rm.eigenvalues) < 1e-9
            assert np.all(rp.is_real) == np.all(rm.is_real)


def test_momentum_blocks_structure():
    for L in range(2, 8):
        for n in range(-L, L + 1):
            blocks = lattice.momentum_blocks(L, n)
            assert len(blocks) == L
            assert sum(V.shape[1] for V in blocks) == sector_dimension(L, n)
            H = build_hamiltonian(1.3, L, n).matrix
            tol = 1e-12 * abs(H).max()
            for m, V in enumerate(blocks):
                gram = (V.conj().T @ V).toarray()
                assert np.max(np.abs(gram - np.eye(V.shape[1])), initial=0.0) < 1e-14
                for mp, W in enumerate(blocks):
                    if mp != m and V.shape[1] and W.shape[1]:
                        assert abs(V.conj().T @ H @ W).max() < tol


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 7), data=st.data(), U=st.floats(-6.0, 6.0))
def test_block_spectrum_matches_whole_sector_eig(L, data, U):
    # Defective eigenvalues split under any solver: by sqrt(eps) at U = 2
    # (L = 4, n = +-1) and by eps**(1/3) ~ 6e-6 at U = 0 (L = 6, n = +-4).
    n = data.draw(st.integers(-L, L), label="n")
    op = build_hamiltonian(U, L, n)
    H = op.matrix
    vals = diagonalize(op, mode="full").eigenvalues
    ref = scipy.linalg.eig(H.toarray(), right=False)
    assert len(vals) == len(ref) == H.shape[0]
    assert abs(vals.sum() - H.diagonal().sum()) < 1e-9 * H.shape[0] * max(1.0, abs(H).max())
    assert _hausdorff(vals, ref) <= 1e-5


def test_full_mode_rejects_operator_without_translation_symmetry():
    basis = sector_basis(4, 0)
    diag = np.random.default_rng(5).normal(size=basis.dim)
    op = lattice.LatticeOperator(basis, sp.diags(diag).tocsr().astype(complex))
    for mode in ("full", "lowest"):
        with pytest.raises(ValueError, match="commutes with the shift"):
            diagonalize(op, mode=mode)


def test_arpack_failure_falls_back_to_block_spectrum(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    op = build_hamiltonian(0.5, 8, 0)  # dim 1107: above the dense cutoff
    full = diagonalize(op, mode="full")
    monkeypatch.setattr(spla, "eigs", no_convergence)
    low = diagonalize(op, mode="lowest", k=6)
    assert low.method == "dense-fallback"
    assert np.array_equal(np.sort(low.eigenvalues.real), np.sort(full.eigenvalues.real)[:6])


def test_reflection_exact_at_defective_point():
    # at L = 4, U = 2 the sectors n = +-1 hold a defective eigenvalue 2
    assert lattice.symmetry_check_neg_u(4, 2.0).spectral_distance <= 1e-12


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("U", [-2.0, 0.5, 2 * np.sqrt(3), 5.0])
def test_arpack_lowest_matches_block_spectrum(U, n):
    op = build_hamiltonian(U, 8, n)  # dims 1107 and 1016: the L <= 8 ARPACK sectors
    low = diagonalize(op, mode="lowest", k=6)
    assert low.method.startswith("arpack")
    full = diagonalize(op, mode="full")
    assert np.max(np.abs(np.sort(low.eigenvalues.real) - np.sort(full.eigenvalues.real)[:6])) < 1e-9


def test_arpack_keeps_low_conjugate_pair():
    op = build_hamiltonian(1.0, 8, 0)  # levels 2 and 3 are a pair, about -4.438 +- 0.028i
    low = diagonalize(op, mode="lowest", k=6)
    assert low.method.startswith("arpack")
    full = diagonalize(op, mode="full").eigenvalues
    ref = full[np.argsort(full.real)][:6]
    assert len(low.eigenvalues) == 6
    assert _hausdorff(low.eigenvalues, ref) < 1e-9
    pair = low.eigenvalues[~low.is_real]
    assert len(pair) == 2 and abs(pair[0] - pair[1].conj()) < 1e-9 and abs(pair[0].imag) > 0.02


def test_arpack_rejects_operator_without_pt_symmetry():
    op = build_hamiltonian(0.5, 8, 0)  # dim 1107: above the dense cutoff
    shifted = lattice.LatticeOperator(op.sector, op.matrix + 0.1j * sp.identity(op.dim, format="csr"))
    with pytest.raises(ValueError, match="P H P = conj"):
        diagonalize(shifted, mode="lowest", k=6)


def test_full_mode_rejects_operator_without_pt_symmetry():
    op = build_hamiltonian(0.5, 4, 0)
    shifted = lattice.LatticeOperator(op.sector, op.matrix + 0.1j * sp.identity(op.dim, format="csr"))
    with pytest.raises(ValueError, match="P H P = conj"):
        diagonalize(shifted, mode="full")


def test_transfer_matrix_is_shift_at_regular_point():
    par = CurveParams(3.0)
    p0 = CurvePoint(par, 1.0, 0.0)
    for n in (4, 2, 0):
        T = build_transfer_matrix(p0, p0, 4, n).matrix.toarray()
        S = shift_operator(4, n).toarray()
        assert np.max(np.abs(T - S)) < 1e-13


def test_transfer_matrix_vacuum_value(rng):
    from genus5chain.rmatrix import weights

    par = CurveParams(5.0)
    p0 = CurvePoint(par, 1.0, 0.0)
    (lam,) = sample_points(par, 1, rng)
    T = build_transfer_matrix(lam, p0, 5, 5).matrix.toarray()
    w = weights(lam, p0)
    assert abs(T[0, 0] - (w.a**5 + w.b_bar**5 + w.f**5)) < 1e-10 * abs(T[0, 0])


def test_transfer_matrices_commute(rng):
    par = CurveParams(5.0)
    p0 = CurvePoint(par, 1.0, 0.0)
    lam1, lam2 = sample_points(par, 2, rng)
    L = 5
    T1 = build_transfer_matrix(lam1, p0, L, L - 1).matrix.toarray()
    T2 = build_transfer_matrix(lam2, p0, L, L - 1).matrix.toarray()
    scale = np.max(np.abs(T1)) * np.max(np.abs(T2))
    assert np.max(np.abs(T1 @ T2 - T2 @ T1)) < 1e-10 * max(1.0, scale)


def test_hamiltonian_commutes_with_transfer(rng):
    par = CurveParams(4.0)
    p0 = CurvePoint(par, 1.0, 0.0)
    (lam,) = sample_points(par, 1, rng)
    L, n = 4, 0
    T = build_transfer_matrix(lam, p0, L, n).matrix.toarray()
    H = build_hamiltonian(4.0, L, n).matrix.toarray()
    scale = np.max(np.abs(T)) * np.max(np.abs(H))
    assert np.max(np.abs(H @ T - T @ H)) < 1e-9 * max(1.0, scale)


def test_diagonalize_identity():
    basis = sector_basis(4, 2)
    import scipy.sparse as sp

    op = lattice.LatticeOperator(basis, sp.identity(basis.dim, dtype=complex, format="csr"))
    rep = diagonalize(op, mode="full")
    assert np.allclose(rep.eigenvalues, 1.0)


def test_lowest_mode_matches_dense():
    op = build_hamiltonian(1.0, 7, 0)  # dim 393: dense path in lowest mode
    low = diagonalize(op, mode="lowest", k=4)
    assert low.method == "dense"
    full = diagonalize(op, mode="full")
    assert np.array_equal(np.sort(low.eigenvalues.real), np.sort(full.eigenvalues.real)[:4])


def test_lowest_mode_arpack_path():
    op = build_hamiltonian(0.5, 8, 0)  # dim 1107: iterative path
    low = diagonalize(op, mode="lowest", k=4)
    assert low.method.startswith("arpack")
    full = diagonalize(op, mode="full")
    assert np.allclose(
        np.sort(low.eigenvalues.real)[:2], np.sort(full.eigenvalues.real)[:2], atol=1e-9
    )


def test_reality_threshold_reference_values(reality_thresholds):
    for L in (4, 5, 6):
        assert abs(reality_thresholds[L] - refdata.TABLE1_REALITY[L]) < 1e-4


def test_reality_threshold_bad_bracket():
    with pytest.raises(BracketInvalid):
        lattice.reality_threshold(4, bracket=(3.2, 3.45))  # both sides already real


def test_symmetry_check_table5_values():
    rep = lattice.symmetry_check_neg_u(4, 4.0)
    assert abs(rep.f0_per_site - refdata.TABLE5_F0["4"][4]) < 1e-10
    rep6 = lattice.symmetry_check_neg_u(6, 1.0)
    assert abs(rep6.f0_per_site - refdata.TABLE5_F0["1"][6]) < 1e-10


@pytest.mark.parametrize("key", ["4", "2sqrt3", "sqrt2", "1"])
def test_table5_f0_matches_symmetry_check(key):
    U = refdata.u_value(key)
    for L in (4, 6):
        assert lattice.f0_per_site(U, L) == lattice.symmetry_check_neg_u(L, U).f0_per_site


def test_e1_relation_even_sizes():
    for L in (4, 6):
        rep = lattice.symmetry_check_neg_u(L, 2.0)
        assert abs(rep.e1_relation_defect) < 1e-10


def test_spectral_antisymmetry():
    for L in (4, 6):
        rep = lattice.symmetry_check_neg_u(L, 2.0)
        assert rep.spectral_distance < 1e-9


def test_table4_gap_small_sizes():
    for key in ("3", "0"):
        for L in (4, 5, 6):
            e0, e1 = lattice.lowest_two_energies(refdata.u_value(key), L)
            assert abs((e1 - e0) - refdata.TABLE4_GAP[key][L]) < 1e-10


@pytest.mark.heavy
def test_gap_reference_l12():
    e0, e1 = lattice.lowest_two_energies(0.0, 12)
    assert abs((e1 - e0) - refdata.TABLE4_GAP["0"][12]) < 1e-8


@pytest.mark.heavy
def test_reality_threshold_l7():
    u7 = lattice.reality_threshold(7)
    assert abs(u7 - refdata.TABLE1_REALITY[7]) < 1e-3
