import gc
import tracemalloc
import weakref
from types import SimpleNamespace
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
from genus5chain.errors import NoConvergence
from genus5chain.lattice import (
    build_hamiltonian,
    build_transfer_matrix,
    diagonalize,
    sector_basis,
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
        dims = [sector_basis(L, n).dim for n in range(-L, L + 1)]
        assert sum(dims) == 3**L
        for n in range(-L, L + 1):
            assert sector_basis(L, n).dim == _trinomial(L, n)


def test_basis_is_lexicographic():
    b = sector_basis(4, 1)
    assert [_labels(c, 4) for c in b.codes] == sorted(_tuple_states(4, 1))


def test_sector_codes_match_full_space_filter():
    for L in range(1, 10):
        full = np.arange(3**L)
        spins = lattice._code_spins(full, L)
        for n in range(-L, L + 1):
            basis = sector_basis(L, n)
            assert np.array_equal(basis.codes, full[spins == n])
            assert np.array_equal(basis.rank(basis.codes), np.arange(basis.dim))


def test_large_sector_built_without_full_space():
    # 3^16 codes would take 344 MB as int64
    for n in (14, 15, 16):
        tracemalloc.start()
        try:
            basis = sector_basis(16, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert basis.dim == _trinomial(16, n)
        assert np.all(np.diff(basis.codes) > 0)
        assert np.all(lattice._code_spins(basis.codes, 16) == n)
        assert np.array_equal(basis.rank(basis.codes), np.arange(basis.dim))


def test_sector_store_holds_one_length():
    sector_basis.cache_clear()
    held = []
    for n in range(-6, 7):
        basis = sector_basis(6, n)
        basis.kept  # the state a solve builds
        held.append(weakref.ref(basis))
    del basis
    assert sector_basis(6, 2) is held[8]()
    for n in range(8):
        sector_basis(7, n)
    gc.collect()
    assert all(ref() is None for ref in held)
    assert set(lattice._sectors) == {(7, n) for n in range(8)}
    sector_basis.cache_clear()
    assert not lattice._sectors


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
@given(L=st.integers(2, 7), data=st.data(), U=st.floats(-6.0, 6.0))
def test_spin_flip_maps_sector_to_its_mirror(L, data, U):
    # F H_n F = H_{-n}^dagger for the spin flip F (labels 0 <-> 2) and
    # (FP) H_n (FP) = H_{-n}^T with the site reflection P: the structure that
    # the +-n mirroring of lowest_per_sector, spectrum_is_real and ed relies on
    n = data.draw(st.integers(-L, L), label="n")
    index = {s: i for i, s in enumerate(_tuple_states(L, -n))}
    states = _tuple_states(L, n)
    F = [index[tuple(2 - v for v in s)] for s in states]
    FP = [index[tuple(2 - v for v in s[::-1])] for s in states]
    # the bond from the R-matrix keeps both maps exact
    H = build_hamiltonian(U, L, n).matrix.toarray()
    mirror = build_hamiltonian(U, L, -n).matrix.toarray()
    assert np.array_equal(H, mirror.conj().T[np.ix_(F, F)])
    assert np.array_equal(H, mirror.T[np.ix_(FP, FP)])


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 8), data=st.data(), U=st.floats(-6.0, 6.0))
def test_real_blocks_are_isometry_products(L, data, U):
    n = data.draw(st.integers(-L, L), label="n")
    op = build_hamiltonian(U, L, n)
    blocks = list(op.real_blocks())  # kept B_m(0) + (U/2) C_m, filled from the kept CSR sum
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
    plus = list(build_hamiltonian(U, L, n).real_blocks())  # the blocks diagonalize solves
    minus = list(build_hamiltonian(-U, L, n).real_blocks())
    Q = lattice.momentum_blocks(L, n)
    for m in range(L):
        mp = (m + n * L // 2) % L
        S = (Q[mp].conj().T @ (g[:, None] * Q[m].toarray()))
        kappa = np.round(np.diag(S))
        assert np.max(np.abs(S - np.diag(kappa)), initial=0.0) < 1e-12
        assert np.all(np.isin(kappa, [1, -1, 1j, -1j]))
        sign = (kappa[:, None] * kappa.conj()[None, :]).real
        assert np.array_equal(minus[mp], -sign * plus[m])


def _reference_real_blocks(op):
    """The real momentum blocks laid out anew from H on every call: the shift
    check by sparse products, H's columns at the representatives by slicing."""
    basis, H, L = op.sector, op.matrix, op.sector.L
    S = shift_operator(L, basis.n)
    tol = 1e-12 * max(1.0, abs(H).max())
    if abs(H @ S - S @ H).max() > tol:
        raise ValueError("momentum blocks need an operator that commutes with the shift")
    orb = basis.orbits
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
        flat = i * d + j
        imag = np.bincount(flat, b.imag, d * d)
        B = np.bincount(flat, b.real, d * d).reshape(d, d).astype(float, copy=False)
        if len(imag) and abs(imag).max() > tol:
            raise ValueError("real momentum blocks need an operator with P H P = conj(H)")
        yield B


@pytest.mark.parametrize("U", [0.0, 1.0, -2.3, 2 * np.sqrt(3)])
def test_hamiltonian_blocks_match_reference(U):
    # every sector adds (U/2) C_m to its kept B_m(0), within rounding of the
    # blocks of H(U) itself
    for L in range(2, 9):
        for n in range(-L, L + 1):
            op = build_hamiltonian(U, L, n)
            blocks = list(op.real_blocks())
            ref = list(_reference_real_blocks(op))
            for B, R in zip(blocks, ref, strict=True):
                assert B.dtype == R.dtype == np.float64 and B.shape == R.shape
                assert np.max(np.abs(B - R), initial=0.0) < 1e-13


def test_representative_blocks_match_csr_fold():
    # B_m(0) built from the representatives' bond terms against the fold of
    # the CSR H(0), with its shift and reflection checks, in every sector:
    # both add the same terms in the same order, so the blocks are bit-equal
    # on either side of the dense/ARPACK cutoff
    for L in range(2, 11):
        for n in range(-L, L + 1):
            op = build_hamiltonian(0.0, L, n)
            kept = list(op.real_blocks())
            ref = list(_reference_real_blocks(op))
            for B, R in zip(kept, ref, strict=True):
                assert B.dtype == R.dtype == np.float64 and B.shape == R.shape
                assert np.array_equal(B, R)


@pytest.mark.parametrize("L", [6, 8])  # n = 0 has 141 and 1107 states
def test_fold_refuses_terms_breaking_reflection(L, monkeypatch):
    # the site reflection takes the bond entry (4, 6) to (4, 2) with its
    # conjugate; without (4, 6), P H P = conj(H) fails and the blocks keep
    # imaginary parts
    sector_basis.cache_clear()
    broken = lattice._HOP.copy()
    assert broken[4, 6] == broken[4, 2].conjugate() != 0
    broken[4, 6] = 0
    monkeypatch.setattr(lattice, "_HOP", broken)
    try:
        with pytest.raises(ValueError, match="P H P = conj"):
            sector_basis(L, 0).kept
    finally:
        sector_basis.cache_clear()


def test_every_sector_kept_and_solved_without_matrix(monkeypatch):
    # the benchmark empties every module attribute of the package with a cache_clear
    assert hasattr(vars(lattice)["sector_basis"], "cache_clear")
    L = 9
    sector_basis.cache_clear()
    sectors = [sector_basis(L, n) for n in range(L + 1)]
    kept = [basis.kept for basis in sectors]
    sizes = [basis.dim for basis in sectors]
    assert min(sizes) <= lattice._DENSE_EIG_CUTOFF < max(sizes)
    assert set(lattice._sectors) == {(L, n) for n in range(L + 1)}

    def no_matrix(basis):
        raise AssertionError(f"CSR H built for L={basis.L}, n={basis.n}")

    monkeypatch.setattr(lattice, "_bond_pattern", no_matrix)
    for n in range(L + 1):
        for mode, k in (("lowest", 1), ("lowest", 6), ("full", 6)):
            op = build_hamiltonian(1.0 + n, L, n)
            diagonalize(op, mode=mode, k=k)
            assert "matrix" not in vars(op)
    assert not lattice.spectrum_is_real(2.5, L)  # below the threshold: complex levels in n = 0
    # each sector and its blocks were built once
    assert set(lattice._sectors) == {(L, n) for n in range(L + 1)}
    assert all(sector_basis(L, n) is basis and basis.kept is blocks
               for n, basis, blocks in zip(range(L + 1), sectors, kept))


def test_arpack_residual_check_refuses_perturbed_vectors(monkeypatch):
    solve = spla.eigs

    def perturbed(*args, **kwargs):
        vals, vecs = solve(*args, **kwargs)
        return vals, vecs + 1e-6 * np.random.default_rng(3).standard_normal(vecs.shape)

    op = build_hamiltonian(0.5, 8, 0)  # dim 1107: above the dense cutoff
    full = diagonalize(op, mode="full")
    monkeypatch.setattr(spla, "eigs", perturbed)
    with pytest.raises(NoConvergence) as info:
        lattice._lowest_arpack(op, 6)
    attempts = info.value.diagnostics["attempts"]
    assert len(attempts) == 2 and all("residual" in a for a in attempts)
    low = diagonalize(op, mode="lowest", k=6)
    assert low.method == "dense-fallback"
    assert np.array_equal(np.sort(low.eigenvalues.real), np.sort(full.eigenvalues.real)[:6])


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
    asked = []
    solve = lattice.diagonalize

    def spy(op, mode="full", k=6):
        asked.append((op.sector.n, mode, k))
        return solve(op, mode=mode, k=k)

    monkeypatch.setattr(lattice, "diagonalize", spy)
    e0, _ = lattice.lowest_two_energies(1.0, 4)
    assert lattice.ground_state_energy(1.0, 4) == e0
    assert lattice.sector_1_lowest(1.0, 4) == lattice.lowest_per_sector(1.0, 4)[1]
    once = [a for a in asked if a[1:] == ("lowest", 1)]
    assert sorted(once) == [(n, "lowest", 1) for n in range(5)]


def _every_sector_pair(U, L):
    """(E0, E1) by the rule with every sector n >= 0 solved for _LEVELS levels:
    the smallest real part, and the smallest one more than 1e-9 (relative) above it."""
    vals = np.sort(np.concatenate([
        diagonalize(build_hamiltonian(U, L, n), mode="lowest", k=lattice._LEVELS).eigenvalues.real
        for n in range(L + 1)]))
    return vals[0], vals[vals > vals[0] + 1e-9 * max(1.0, abs(vals[0]))][0]


# two of table 4's couplings at an ARPACK size, and L = 9, U = -3, where E0
# sits in n = +-1; the table's other cells are checked against refdata
@pytest.mark.parametrize("L, U", [(10, 1.0), (10, 0.0), (9, -3.0)])
def test_table_energies_match_every_sector_rule(L, U):
    e0, e1 = _every_sector_pair(U, L)
    got0, got1 = lattice.lowest_two_energies(U, L)
    assert abs(got0 - e0) <= 1e-12 and abs(got1 - e1) <= 1e-12
    assert abs(lattice.ground_state_energy(U, L) - e0) <= 1e-12
    if U == -3.0:
        assert np.argmin(lattice.lowest_per_sector(U, L)) == 1


def test_lowest_two_energies_resolves_ground_sector_only(monkeypatch):
    lattice._sector_lowest.cache_clear()
    asked = []
    solve = lattice.diagonalize

    def spy(op, mode="full", k=6):
        asked.append((op.sector.n, mode, k))
        return solve(op, mode=mode, k=k)

    monkeypatch.setattr(lattice, "diagonalize", spy)
    lattice.lowest_two_energies(1.0, 10)
    # the ground sector's second level already lies above the window
    assert asked == [(n, "lowest", 1) for n in range(11)] + [(0, "lowest", 2)]


def test_lowest_two_energies_doubles_levels_past_a_degenerate_ground(monkeypatch):
    lattice._sector_lowest.cache_clear()
    e0 = lattice.ground_state_energy(1.0, 6)
    n0 = int(np.argmin(lattice.lowest_per_sector(1.0, 6)))
    asked = []
    solve = lattice.diagonalize

    def degenerate(op, mode="full", k=6):
        # the ground sector's first three levels sit in the window of E0
        if op.sector.n != n0 or k == 1:
            return solve(op, mode=mode, k=k)
        asked.append(k)
        vals = np.array([e0, e0, e0, e0 + 1e-6, e0 + 2e-6, e0 + 3, e0 + 4, e0 + 5][:k])
        return SimpleNamespace(eigenvalues=vals)

    monkeypatch.setattr(lattice, "diagonalize", degenerate)
    assert lattice.lowest_two_energies(1.0, 6) == (e0, e0 + 1e-6)
    assert asked == [2, 4]


@pytest.mark.parametrize("U", [-2.0, 1.0, 2 * np.sqrt(3)])
def test_sector_1_lowest_matches_six_level_solve(U):
    six = diagonalize(build_hamiltonian(U, 10, 1), mode="lowest", k=6)
    assert six.method.startswith("arpack")
    assert abs(lattice.sector_1_lowest(U, 10) - six.eigenvalues.real.min()) <= 1e-12


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


def test_hausdorff_row_blocks_match_loop_reference(rng):
    # the all-sector spectra of L = 6 (729 levels) take nine row blocks of the
    # |b - z| table; the max of mins is the loop's, bit for bit
    spec = [np.concatenate([diagonalize(build_hamiltonian(u, 6, n), mode="full").eigenvalues
                            for n in range(-6, 7)]) for u in (1.3, -1.3)]
    pairs = [(spec[0], -spec[1])] + [
        (rng.normal(size=k) + 1j * rng.normal(size=k), rng.normal(size=j) + 1j * rng.normal(size=j))
        for k, j in ((1, 1), (7, 300), (300, 7))]
    for a, b in pairs:
        assert lattice._hausdorff(a, b) == _hausdorff(a, b)


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
            assert sum(V.shape[1] for V in blocks) == sector_basis(L, n).dim
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
    # H Q = Q B with Q unitary: the residual of a Ritz pair of the block sum B,
    # solved as _lowest_arpack solves it, is that of x = sum_m Q_m y_m under H
    B, H = op.sector.kept.real_sum(U), op.matrix
    vals, Y = spla.eigs(B, k=6, which="SR", ncv=lattice._krylov_sizes(6)[0], tol=1e-12,
                        maxiter=8000, v0=np.ones(op.dim) / np.sqrt(op.dim))
    Q = lattice.momentum_blocks(8, n)
    X = sum(Qm @ y for Qm, y in zip(Q, np.split(Y, np.cumsum([Qm.shape[1] for Qm in Q])[:-1])))
    on_blocks = np.linalg.norm(B @ Y - Y * vals, axis=0)
    on_sector = np.linalg.norm(H @ X - X * vals, axis=0)
    assert np.max(np.abs(on_blocks - on_sector)) <= 1e-13 * max(1.0, spla.norm(H, np.inf))


@pytest.mark.parametrize("n", [0, 1])  # dims 3139 and 2907
@pytest.mark.parametrize("U", [20.0, -20.0])  # at U = 20 the lowest n = 1 level is in block m = 1
def test_first_krylov_space_finds_the_lowest_levels(U, n):
    # the residual check accepts any eigenpair: the levels must be the block spectrum's lowest
    op = build_hamiltonian(U, 9, n)
    full = np.sort(diagonalize(op, mode="full").eigenvalues.real)
    for k in (1, lattice._LEVELS):
        low = diagonalize(op, mode="lowest", k=k)
        assert low.method == "arpack-sr(ncv=20)"
        got = np.sort(low.eigenvalues.real)
        assert np.max(np.abs(got - full[:k])) <= 1e-10 * max(1.0, abs(full[0]))


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


def test_transfer_matrix_is_shift_at_regular_point():
    par = CurveParams(3.0)
    p0 = CurvePoint(par, 1.0, 0.0)
    for n in (4, 2, 0):
        T = build_transfer_matrix(p0, p0, 4, n).matrix.toarray()
        S = shift_operator(4, n).toarray()
        assert np.max(np.abs(T - S)) < 1e-13


def _ref_transfer_matrix(lam, mu, L, n):
    """The transfer matrix gathered from the two monodromy halves by 2-D fancy
    indexing over the whole sector, all nine (a, c) products summed, the
    reference for the spin blocks of `build_transfer_matrix`."""
    A, B = lattice.monodromy_halves(lam, mu, L)
    hi, lo = np.divmod(sector_basis(L, n).codes, 3 ** (L - L // 2))
    return sum(A[a, :, c][hi[:, None], hi] * B[c, :, a][lo[:, None], lo]
               for a in range(3) for c in range(3))


@pytest.mark.parametrize("U, eps_sign", [pytest.param(4.5, "plus", id="4.5"),
                                         pytest.param(-1.3, "plus", id="-1.3"),
                                         pytest.param(2.0, "minus", id="2.0-minus")])
def test_transfer_matrix_flat_gather_matches_2d_gather(U, eps_sign, rng):
    par = CurveParams(U, eps_sign)
    lam, mu = sample_points(par, 2, rng)
    sectors = [(L, n) for L in range(1, 8) for n in range(-L, L + 1)] + [(8, 2)]
    for L, n in sectors:
        T = build_transfer_matrix(lam, mu, L, n).matrix.toarray()
        assert T.tobytes() == _ref_transfer_matrix(lam, mu, L, n).tobytes(), (L, n)


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


def test_lowest_mode_matches_dense():
    op = build_hamiltonian(1.0, 7, 0)  # dim 393: dense path in lowest mode
    low = diagonalize(op, mode="lowest", k=4)
    assert low.method == "dense"
    full = diagonalize(op, mode="full")
    assert np.array_equal(np.sort(low.eigenvalues.real), np.sort(full.eigenvalues.real)[:4])


def test_diagonalize_refuses_unknown_mode_and_large_full_solve():
    with pytest.raises(ValueError, match="unknown mode 'partial'"):
        diagonalize(build_hamiltonian(1.0, 4, 0), mode="partial")
    # only the dimension is read before the refusal, so a stand-in carries it
    with pytest.raises(ValueError, match=f"capped at dim {lattice.DENSE_LIMIT}, got 20001"):
        diagonalize(SimpleNamespace(dim=lattice.DENSE_LIMIT + 1), mode="full")


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


def test_spectrum_is_real_matches_all_sector_spectra():
    # block by block from n = 0 gives the verdict of every sector's full spectrum,
    # on a grid and at the points of a bisection to 1e-7 around each threshold

    def whole(U, L):
        verdict = all(np.all(diagonalize(build_hamiltonian(U, L, n), mode="full").is_real)
                      for n in range(-L, L + 1))
        assert lattice.spectrum_is_real(U, L) == verdict, (L, U)
        return verdict

    for L in (4, 5, 6, 7):
        for U in (-1.0, 0.0, 1.5, 2.5, 3.0, 4.0):
            whole(U, L)
        lo, hi = refdata.TABLE1_REALITY[L] - 1e-4, refdata.TABLE1_REALITY[L] + 1e-4
        assert not whole(lo, L) and whole(hi, L)
        while hi - lo > 1e-7:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if whole(mid, L) else (mid, hi)
        for d in (1e-6, 3e-7):
            whole(lo - d, L), whole(hi + d, L)


def _ref_reality_threshold(L, bracket):
    """The bisection run down to 1e-6 whatever the rounded ends, and its probe count."""
    lo, hi = bracket
    probes = 0
    while hi - lo > 1e-6:
        mid, probes = 0.5 * (lo + hi), probes + 1
        lo, hi = (lo, mid) if lattice.spectrum_is_real(mid, L) else (mid, hi)
    return round(0.5 * (lo + hi), 5), probes


def _plain_threshold(L, bracket=(2.5, 3.45)):
    """The plain bisection over every block, with the stopping rule and the
    bracket checks of `reality_threshold`."""
    def real(U):
        return lattice.spectrum_is_real(U, L)

    assert not real(bracket[0]) and real(bracket[1])
    return round(0.5 * sum(lattice._bisect(*bracket, real)), 5)


@pytest.mark.parametrize("bracket", [(2.5, 3.45), (2.45, 3.6), (2.6, 3.44), (2.95, 3.35)])
def test_reality_threshold_stops_once_the_rounded_ends_agree(bracket, monkeypatch):
    # every probe of the search solves blocks through _block_is_real at its coupling
    probed = []
    inner = lattice._block_is_real
    monkeypatch.setattr(lattice, "_block_is_real",
                        lambda op, m, tol: probed.append(op.U) or inner(op, m, tol))
    for L in (4, 5, 6, 7):
        probed.clear()
        found = lattice.reality_threshold(L, bracket=bracket)
        bisected = len(set(probed))
        ref, ref_probes = _ref_reality_threshold(L, bracket)
        assert found == ref
        assert 0 < bisected < ref_probes


def test_reality_threshold_falls_back_when_the_end_is_not_confirmed(monkeypatch):
    # a block verdict that finds every block real drives the search down to the
    # lower end, where the spectrum is complex: the confirmation of that end
    # fails, and the plain bisection over every block gives the result
    inner = lattice.spectrum_is_real
    for L in (4, 5):
        plain, ends = _plain_threshold(L), []
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "spectrum_is_real",
                          lambda U, L, tol=lattice._REAL_TOL: ends.append(U) or inner(U, L, tol))
            patch.setattr(lattice, "_block_is_real", lambda op, m, tol: True)
            found = lattice.reality_threshold(L)
        assert found == plain
        # calls 0 and 1 check the bracket, call 2 refuses the end found, the rest bisect
        assert ends[2] - 2.5 < 1e-5 and not inner(ends[2], L) and len(ends) > 3


def test_reality_threshold_solves_fewer_blocks_than_plain_bisection(monkeypatch):
    # blocks found real at a probe below the threshold are not solved again:
    # with the confirmation, 195 block solves against the plain bisection's
    # 322, where walking the blocks from n = 0 up would drop few and take 276
    solved = []
    inner = lattice.eig
    monkeypatch.setattr(lattice, "eig", lambda B, **kw: solved.append(len(B)) or inner(B, **kw))
    found = lattice.reality_threshold(6)
    searched = len(solved)
    solved.clear()
    assert found == _plain_threshold(6)
    assert searched < 0.7 * len(solved)


@pytest.mark.heavy
@pytest.mark.parametrize("L", [8, 9])
def test_reality_threshold_matches_plain_bisection_heavy(L):
    assert lattice.reality_threshold(L) == _plain_threshold(L)


def test_reality_threshold_bad_bracket():
    with pytest.raises(ValueError, match="predicate does not change sign"):
        lattice.reality_threshold(4, bracket=(3.2, 3.45))  # both sides already real


def test_symmetry_check_table5_values():
    rep = lattice.symmetry_check_neg_u(4, 4.0)
    assert abs(rep.f0_per_site - refdata.TABLE5_F0["4"][4]) < 1e-10
    rep6 = lattice.symmetry_check_neg_u(6, 1.0)
    assert abs(rep6.f0_per_site - refdata.TABLE5_F0["1"][6]) < 1e-10


@pytest.mark.parametrize("key", ["4", "2sqrt3", "sqrt2", "1"])
def test_table5_f0_matches_symmetry_check(key):
    U = refdata.U_KEYS[key]
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
            e0, e1 = lattice.lowest_two_energies(refdata.U_KEYS[key], L)
            assert abs((e1 - e0) - refdata.TABLE4_GAP[key][L]) < 1e-10


@pytest.mark.heavy
def test_gap_reference_l12():
    e0, e1 = lattice.lowest_two_energies(0.0, 12)
    assert abs((e1 - e0) - refdata.TABLE4_GAP["0"][12]) < 1e-8


@pytest.mark.heavy
def test_reality_threshold_l7():
    u7 = lattice.reality_threshold(7)
    assert abs(u7 - refdata.TABLE1_REALITY[7]) < 1e-3
