"""The chain and its energy as log derivatives at the regular point p0 = (1, 0).

R(p0, p0) is the swap P, so T(p0, p0) is the shift, and along the curve
through p0, with local parameter t = sqrt(eps) y,

    H(U) = -T(p0, p0)^-1 dT(lam, p0)/dt |_{lam = p0} + L U/4,
    E    = -d log Lambda(lam)/dt |_{lam = p0} + L U/4.

Derivatives here are fourth-order central differences in t; no stencil point
sits at t = 0, where `curve.zw_map` refuses y = 0.
"""

import numpy as np
import pytest

from genus5chain import bethe, lattice, rmatrix
from genus5chain.curve import U_CRITICAL, CurveParams, CurvePoint, eval_curve


def _on_curve(params, t):
    """The curve point with y = t / sqrt(eps) on the branch through p0, by
    Newton in x from its tangent x = 1 - U t / 4."""
    eps, U = params.eps, params.U
    y, x = t / params.sqrt_eps, 1.0 - U * t / 4
    for _ in range(50):
        A, B = x * x + eps * y * y, x * x + y * y / eps
        dC = 2 * x * A * A + 4 * x * B * A + U * params.sqrt_eps * y * (A + 2 * x * x) - 2 * x
        step = eval_curve(x, y, params) / dC
        x -= step
        if abs(step) < 1e-17:
            break
    return CurvePoint(params, complex(x), complex(y))


def _d_dt(f, h):
    """Fourth-order central difference of f at t = 0."""
    return (f(-2 * h) - 8 * f(-h) + 8 * f(h) - f(2 * h)) / (12 * h)


def _p0(params):
    return CurvePoint(params, 1.0, 0.0)


@pytest.mark.parametrize("eps_sign", ["plus", "minus"])
def test_bond_density_matches_difference_of_weights_along_curve(eps_sign):
    # every weight sits in one slot of R, so the density checks all nine
    # closed-form derivatives; the unit slots have none
    for U in np.concatenate([np.linspace(-12.0, 12.0, 25), [U_CRITICAL, -U_CRITICAL]]):
        params = CurveParams(float(U), eps_sign)
        p0 = _p0(params)
        dR = _d_dt(lambda t: rmatrix.r_matrix(_on_curve(params, t), p0), 1e-3 / max(1.0, abs(U)))
        ref = -dR @ rmatrix.permutation_matrix() + (U / 4) * np.eye(9)
        assert np.max(np.abs(rmatrix.bond_density(params) - ref)) <= 1e-9


@pytest.mark.parametrize("U", [0.0, 1.3, -2.7, 0.37, U_CRITICAL, 5.1, -12.0])
def test_bond_density_telescopes_onto_the_right_site(U):
    # density(U) = bond_hamiltonian(U) + (U/4)(Sz_1^2 - Sz_2^2), bit for bit,
    # and the eps-minus density is its exact conjugate
    density = rmatrix.bond_density(CurveParams(U))
    sz2 = np.array([1.0, 0.0, 1.0])
    telescoped = lattice.bond_hamiltonian(U) + np.diag((U / 4) * (np.repeat(sz2, 3) - np.tile(sz2, 3)))
    assert np.array_equal(density, telescoped)
    assert np.array_equal(rmatrix.bond_density(CurveParams(U, "minus")), density.conj())


@pytest.mark.parametrize("U", [1.3, 5.0])
@pytest.mark.parametrize("L", [4, 5])
def test_hamiltonian_is_log_derivative_of_transfer_matrix(L, U):
    params = CurveParams(U)
    p0 = _p0(params)
    for n in range(-L, L + 1):
        T0 = lattice.build_transfer_matrix(p0, p0, L, n).matrix
        assert (T0 != lattice.shift_operator(L, n)).nnz == 0
        dT = _d_dt(lambda t: lattice.build_transfer_matrix(_on_curve(params, t), p0, L, n)
                   .matrix.toarray(), 1e-3 / max(1.0, U))
        H = -(T0.T @ dT) + (L * U / 4) * np.eye(T0.shape[0])  # the shift's inverse is its transpose
        assert np.max(np.abs(H - lattice.build_hamiltonian(U, L, n).matrix.toarray())) <= 1e-8


@pytest.mark.parametrize(("L", "n", "U"), [(8, 1, 5.0), (10, 2, 4.0)])
def test_energy_is_log_derivative_of_lambda(L, n, U):
    rs = bethe.solve_log_form(L, n, U)
    params = CurveParams(U)
    h = 1e-3 / U
    ref = bethe.eigenvalue_lambda(_on_curve(params, h), rs)  # log of ratios near 1 stays on one branch
    dlog = _d_dt(lambda t: np.log(bethe.eigenvalue_lambda(_on_curve(params, t), rs) / ref), h)
    assert abs(-dlog + L * U / 4 - bethe.energy(rs)) <= 1e-8
