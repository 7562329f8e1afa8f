"""The half-chain monodromy kernel against independent per-site contractions.

`_ref_transfer_matrix` and `_ref_apply_block` contract the R-matrices one
site at a time, on sector configurations and on full-space vectors; they
share no code with `lattice.monodromy_halves`, which both
`build_transfer_matrix` and `aba.monodromy_apply` are built on.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genus5chain import lattice
from genus5chain.aba import monodromy_apply
from genus5chain.curve import CurveParams, CurvePoint, sample_points
from genus5chain.rmatrix import r_matrix


def _ref_transfer_matrix(lam, mu, L, n):
    """Dense trace of the ordered aux product, per (row block, column) pair."""
    basis = lattice.sector_basis(L, n)
    R = r_matrix(lam, mu).reshape(3, 3, 3, 3)  # [aux_out, site_out, aux_in, site_in]
    D = basis.dim
    S = basis.digits()
    T = np.zeros((D, D), dtype=complex)
    chunk = max(1, 200000 // D)
    for i0 in range(0, D, chunk):
        i1 = min(i0 + chunk, D)
        # G[b, p, a, a'] accumulates the aux product for target-row block b, source p
        G = np.broadcast_to(np.eye(3, dtype=complex), (i1 - i0, D, 3, 3)).copy()
        for site in range(L):
            M = R[:, S[i0:i1, site][:, None], :, S[:, site][None, :]]  # (B, D, 3, 3)
            G = np.einsum("bpij,bpjk->bpik", G, M)
        T[i0:i1, :] = np.trace(G, axis1=2, axis2=3)
    return T


def _ref_apply_block(i, j, R4, L, vec):
    """Aux block T_ij (0-based) on a full-space vector, last site first."""
    # carrier[b] holds the partial contraction with open auxiliary index b
    carrier = np.zeros((3,) + vec.shape, dtype=complex)
    carrier[j] = vec
    for site in range(L - 1, -1, -1):
        v = carrier.reshape(3, 3**site, 3, -1)
        carrier = np.einsum("asbt,bxty->axsy", R4, v).reshape((3,) + vec.shape)
    return carrier[i]


def _check_against_reference(L, sectors, lam, mu, rng):
    for n in sectors:
        T = lattice.build_transfer_matrix(lam, mu, L, n).matrix.toarray()
        ref = _ref_transfer_matrix(lam, mu, L, n)
        assert np.max(np.abs(T - ref)) <= 1e-13 * np.max(np.abs(ref)), (L, n)
    R4 = r_matrix(lam, mu).reshape(3, 3, 3, 3)
    halves = lattice.monodromy_halves(lam, mu, L)
    for shape in ((3**L,), (3**L, 3)):
        vec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                out = monodromy_apply(i, j, halves, vec)
                ref = _ref_apply_block(i - 1, j - 1, R4, L, vec)
                assert out.shape == vec.shape
                assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref)), (L, i, j, shape)


@settings(max_examples=12, deadline=None)
@given(
    L=st.integers(1, 7),
    eps_sign=st.sampled_from(["plus", "minus"]),
    U=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(L=1, eps_sign="plus", U=5.0, seed=1)  # empty first half
@example(L=5, eps_sign="minus", U=4.0, seed=2)  # unequal halves
@example(L=6, eps_sign="plus", U=-3.0, seed=3)
def test_monodromy_kernel_matches_per_site_reference(L, eps_sign, U, seed):
    rng = np.random.default_rng(seed)
    lam, mu = sample_points(CurveParams(U, eps_sign), 2, rng)
    _check_against_reference(L, range(-L, L + 1), lam, mu, rng)


def test_monodromy_kernel_matches_per_site_reference_l8(rng):
    par = CurveParams(5.0)
    (lam,) = sample_points(par, 1, rng)
    _check_against_reference(8, [2], lam, CurvePoint(par, 1.0, 0.0), rng)


def test_monodromy_apply_rejects_wrong_length(rng):
    par = CurveParams(5.0)
    halves = lattice.monodromy_halves(*sample_points(par, 2, rng), 4)
    with pytest.raises(ValueError, match="expected 81 rows"):
        monodromy_apply(1, 2, halves, np.ones(2 * 3**4, dtype=complex))
    with pytest.raises(ValueError, match="expected 81 rows"):
        monodromy_apply(1, 2, halves, np.ones((27, 3), dtype=complex))
