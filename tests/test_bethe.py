import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genus5chain import bethe, lattice, refdata
from genus5chain.bethe import (
    BetheRootSet,
    bethe_defect,
    bethe_defect_z,
    classify_roots,
    energy,
    eigenvalue_lambda,
    finite_size_gap,
    ground_state_quantum_numbers,
    solve_complex,
    solve_log_form,
    track_state,
)
from genus5chain.curve import (
    SQRT3,
    U_CRITICAL,
    CurveParams,
    CurvePoint,
    critical_side,
    sample_points,
)
from genus5chain.errors import Genus5Error, NoConvergence, Singular

_E3 = np.exp(1j * np.pi / 3)


# Per-row loop forms of the momentum-form kernel, kept as references for
# the whole-array products in `bethe`.


def _ref_pair_arrays(k, U):
    s = np.sin(k - np.pi / 6)
    num = s[:, None] / _E3 - s[None, :] * _E3 + 0.5j * U
    den = s[:, None] * _E3 - s[None, :] / _E3 - 0.5j * U
    return num, den


def _ref_bethe_defect(rs, pole_tol=1e-13):
    k = np.asarray(rs.roots, dtype=complex)
    M = len(k)
    if M == 0:
        return np.zeros(0, dtype=complex)
    num, den = _ref_pair_arrays(k, rs.U)
    off = ~np.eye(M, dtype=bool)
    if M > 1 and np.min(np.abs(den[off])) < pole_tol:
        raise Singular("scattering denominator vanishes for a root pair")
    F = np.empty(M, dtype=complex)
    for j in range(M):
        m = off[j]
        F[j] = np.exp(1j * k[j] * rs.L) - np.prod(num[j, m] / den[j, m])
    return F


def _ref_cleared_defect(k, L, U):
    M = len(k)
    num, den = _ref_pair_arrays(k, U)
    off = ~np.eye(M, dtype=bool)
    F = np.empty(M, dtype=complex)
    scale = np.empty(M)
    for j in range(M):
        m = off[j]
        t1 = np.exp(1j * k[j] * L) * np.prod(den[j, m])
        t2 = np.prod(num[j, m])
        F[j] = t1 - t2
        scale[j] = abs(t1) + abs(t2) + 1.0
    return F, scale


def _ref_cleared_jacobian(k, L, U):
    M = len(k)
    c = np.cos(k - np.pi / 6)
    num, den = _ref_pair_arrays(k, U)
    J = np.zeros((M, M), dtype=complex)
    idx = np.arange(M)
    for j in range(M):
        m = idx[idx != j]
        E = np.exp(1j * k[j] * L)
        dprod = np.prod(den[j, m])

        def drop(arr, skip):
            sel = m[m != skip]
            return np.prod(arr[j, sel])

        dd = sum((c[j] * _E3) * drop(den, i) for i in m)
        dn = sum((c[j] / _E3) * drop(num, i) for i in m)
        J[j, j] = 1j * L * E * dprod + E * dd - dn
        for i in m:
            J[j, i] = E * (-c[i] / _E3) * drop(den, i) - (-c[i] * _E3) * drop(num, i)
    return J


def _free_start(L, U, Q):
    return (2 * np.pi / L) * Q


def _ref_solve_log_form(L, n, U, start=bethe._log_form_start):
    """The log-form Newton loop that evaluates every line-search trial with its
    Jacobian, discards it, and evaluates the accepted point again, started
    from `start(L, U, Q)`."""
    Qa = np.asarray(ground_state_quantum_numbers(L, n), dtype=float)
    M = L - n
    k = start(L, U, Qa)
    last_step = np.inf
    for _ in range(200):
        g, J = bethe._log_form_residual_and_jacobian(k, L, U, Qa)
        try:
            step = bethe._log_form_step(J, g)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("log-form Jacobian singular") from exc
        scale = 1.0
        gnorm = np.max(np.abs(g))
        for _ in range(40):
            gt, _ = bethe._log_form_residual_and_jacobian(k - scale * step, L, U, Qa)
            if np.max(np.abs(gt)) < gnorm:
                break
            scale /= 2
        k = k - scale * step
        if M > 1 and np.min(np.abs(k[:, None] - k[None, :]) + np.eye(M)) < 1e-9:
            raise NoConvergence("momenta collided")
        last_step = scale * np.max(np.abs(step))
        if last_step < 1e-13:
            break
    else:
        raise NoConvergence("log form did not converge", last=k)
    rs = BetheRootSet(L, n, U, k.astype(complex), list(Qa))
    rs.residual = float(np.max(np.abs(bethe_defect(rs))))
    if rs.residual > bethe.ACCEPT_RESIDUAL:
        raise NoConvergence("converged iterate has defect", last=k, residual=rs.residual)
    return rs


@st.composite
def _root_sets(draw):
    """Real momenta mixed with conjugate pairs k +- i delta, the shape of
    two-strings, together with a size L >= M and a coupling U."""
    n_pairs = draw(st.integers(0, 20), label="pairs")
    n_real = draw(st.integers(1 if n_pairs == 0 else 0, 40 - 2 * n_pairs), label="reals")
    angle = st.floats(-np.pi, np.pi)
    reals = draw(st.lists(angle, min_size=n_real, max_size=n_real), label="real roots")
    pairs = draw(
        st.lists(st.tuples(angle, st.floats(0.02, 0.8)), min_size=n_pairs, max_size=n_pairs),
        label="strings",
    )
    k = np.array(reals + [a + 1j * d for a, d in pairs] + [a - 1j * d for a, d in pairs],
                 dtype=complex)
    L = draw(st.integers(len(k), 64), label="L")
    U = draw(st.floats(-2.0, 6.0), label="U")
    return k, L, U


def test_quantum_number_rule():
    assert ground_state_quantum_numbers(4, 0) == [1.5, 0.5, -0.5, -1.5]
    assert ground_state_quantum_numbers(5, 1) == [1.5, 0.5, -0.5, -1.5]
    assert ground_state_quantum_numbers(8, 1) == [3, 2, 1, 0, -1, -2, -3]


def test_defect_trivial_cases():
    # single root at a free momentum: the product side is empty
    for m in range(4):
        rs = BetheRootSet(4, 3, 2.5, np.array([2 * np.pi * m / 4], dtype=complex))
        assert np.max(np.abs(bethe_defect(rs))) < 1e-15
    rs = BetheRootSet(4, 2, 2.5, np.array([0.3, 1.1], dtype=complex))
    assert np.max(np.abs(bethe_defect(rs))) > 1e-3


def test_log_form_ground_state_energies():
    cases = [
        ("5", 8), ("5", 12), ("4.5", 16), ("4", 12), ("2sqrt3", 12), ("2sqrt3", 24),
    ]
    for key, L in cases:
        rs = solve_log_form(L, 0, refdata.U_KEYS[key])
        assert rs.residual < 1e-12
        assert abs(energy(rs) / L - refdata.TABLE2_ENERGY[key][L]) < 1e-11


def test_log_form_large_size():
    rs = solve_log_form(1024, 0, 4.0)
    assert abs(energy(rs) / 1024 - refdata.TABLE2_ENERGY["4"][1024]) < 1e-11


def test_log_form_gap_values():
    assert abs(finite_size_gap(8, 5.0) - refdata.TABLE3_GAP["5"][8]) < 1e-10
    assert abs(finite_size_gap(24, 4.0) - refdata.TABLE3_GAP["4"][24]) < 1e-10


def test_log_form_below_range_raises():
    with pytest.raises(NoConvergence):
        solve_log_form(14, 0, 2.8)


def _log_form_outcome(solve, L, n, U):
    try:
        rs = solve(L, n, U)
    except Genus5Error as exc:
        return type(exc), None, None
    return None, rs.roots, rs.residual


@st.composite
def _log_form_cases(draw):
    L = draw(st.integers(1, 64), label="L")
    n = draw(st.integers(0, L - 1), label="n")
    return L, n, draw(st.floats(U_CRITICAL, 8.0), label="U")


@settings(max_examples=150, deadline=None)
@given(case=_log_form_cases())
@example(case=(128, 0, 5.0))
@example(case=(64, 0, U_CRITICAL))
@example(case=(512, 0, 3.6))  # steps by Jacobi sweeps
def test_log_form_matches_reference_loop(case):
    new = _log_form_outcome(solve_log_form, *case)
    ref = _log_form_outcome(_ref_solve_log_form, *case)
    assert new[0] == ref[0]
    if ref[0] is None:
        assert np.array_equal(new[1], ref[1])
        assert new[2] == ref[2]


@settings(max_examples=150, deadline=None)
@given(case=_log_form_cases())
@example(case=(64, 0, U_CRITICAL))
@example(case=(64, 20, U_CRITICAL))
def test_seeded_log_form_matches_free_start(case):
    seeded = _log_form_outcome(solve_log_form, *case)
    free = _log_form_outcome(lambda *a: _ref_solve_log_form(*a, start=_free_start), *case)
    assert seeded[0] == free[0]
    if free[0] is None:
        assert np.max(np.abs(seeded[1] - free[1])) < 1e-12


def _jacobian_at(L, n, U, start=bethe._log_form_start):
    Q = np.asarray(ground_state_quantum_numbers(L, n), dtype=float)
    return bethe._log_form_residual_and_jacobian(start(L, U, Q), L, U, Q)


def _lu_calls(monkeypatch):
    calls = []
    lu = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or lu(*a))
    return calls


@pytest.mark.parametrize("L, n, U, start", [
    (256, 0, U_CRITICAL, bethe._log_form_start), (300, 17, 3.6, bethe._log_form_start),
    (256, 0, 5.0, _free_start), (300, 17, 8.0, _free_start)])
def test_log_form_step_by_sweeps_matches_lu(monkeypatch, L, n, U, start):
    g, J = _jacobian_at(L, n, U, start)
    want = np.linalg.solve(J, g)
    before = J.copy()
    calls = _lu_calls(monkeypatch)
    got = bethe._log_form_step(J, g)
    assert not calls and np.array_equal(J, before)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_log_form_step_falls_back_to_lu(monkeypatch):
    # from the free momenta at 2 sqrt(3) the sweeps diverge: rho(D^-1 O) is 4.7
    g, J = _jacobian_at(256, 0, U_CRITICAL, _free_start)
    want = np.linalg.solve(J, g)
    before = J.copy()
    calls = _lu_calls(monkeypatch)
    assert np.array_equal(bethe._log_form_step(J, g), want)
    assert calls == [1] and np.array_equal(J, before)
    J[3, 3] = 0.0  # no sweep runs on a zero diagonal
    calls.clear()
    got = bethe._log_form_step(J, g)
    assert calls == [1] and np.array_equal(got, np.linalg.solve(J, g))


class _CountingMatrix(np.ndarray):
    """A Jacobian that counts its matrix-vector products."""
    matvecs = 0

    def __matmul__(self, other):
        _CountingMatrix.matvecs += 1
        return np.asarray(self) @ other


def test_diverging_sweeps_give_up_after_two_matvecs(monkeypatch):
    # from the free momenta at 2 sqrt(3) each sweep moves x farther than the last,
    # so the second sweep already outruns the first and LU takes over
    g, J = _jacobian_at(256, 0, U_CRITICAL, _free_start)
    want = np.linalg.solve(J, g)
    calls = _lu_calls(monkeypatch)
    monkeypatch.setattr(_CountingMatrix, "matvecs", 0)
    got = bethe._log_form_step(J.view(_CountingMatrix), g)
    assert calls == [1] and _CountingMatrix.matvecs <= 2
    assert np.array_equal(np.asarray(got), want)


def _count_evaluations(monkeypatch):
    calls = []
    inner = bethe._log_form_residual_and_jacobian
    monkeypatch.setattr(bethe, "_log_form_residual_and_jacobian",
                        lambda *a: calls.append(1) or inner(*a))
    return calls


def test_log_form_evaluates_each_point_once(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    solve_log_form(128, 0, 5.0)
    # the seed is within rounding of the roots: the start and one step
    assert len(calls) <= 2
    calls.clear()
    monkeypatch.setattr(bethe, "_log_form_start", _free_start)
    solve_log_form(128, 0, 5.0)
    # from 2 pi Q / L: 12 when each point is evaluated once; 51 when accepted
    # trials are evaluated again and all 40 halvings run out at the rounding floor
    assert len(calls) <= 15


def test_log_form_last_step_builds_no_jacobian(monkeypatch):
    jacobian = []
    inner = bethe._log_form_residual_and_jacobian
    monkeypatch.setattr(bethe, "_log_form_residual_and_jacobian",
                        lambda *a: jacobian.append(a[5] if len(a) > 5 else True) or inner(*a))
    solve_log_form(128, 0, 5.0)
    # the start needs its Jacobian; the one step below 1e-13 ends the iteration
    assert jacobian == [True, False]


def test_complex_newton_evaluates_each_point_once(monkeypatch):
    seen = []
    inner = bethe._cleared_defect
    monkeypatch.setattr(bethe, "_cleared_defect",
                        lambda k, L, U: seen.append((k.tobytes(), L, U)) or inner(k, L, U))
    track_state(4, 0, 5.0, 1.0)
    assert seen and len(set(seen)) == len(seen)


def test_complex_newton_builds_pair_factors_once_per_point(monkeypatch):
    built, points = [], []
    pairs, defect = bethe._pair_arrays, bethe._cleared_defect
    monkeypatch.setattr(bethe, "_pair_arrays", lambda *a: built.append(1) or pairs(*a))
    monkeypatch.setattr(bethe, "_cleared_defect",
                        lambda *a: points.append(1) or defect(*a))
    k = solve_log_form(8, 0, 4.0).roots
    F, _, f, E = bethe._cleared_defect(k, 8, 3.9)
    built.clear()
    bethe._cleared_jacobian(k, 8, f, E)
    assert not built
    points.clear()
    rs = solve_complex(8, 0, 3.9, k)
    # the Jacobians and the plain defect at convergence take the point's factors
    assert rs.residual < 1e-10 and len(points) > 1 and len(built) == len(points)


def _count_solves(monkeypatch):
    """Jacobians built, and (converged, failed) solve_complex calls."""
    jacobians, outcomes = [], []
    jac, solve = bethe._cleared_jacobian, bethe.solve_complex
    monkeypatch.setattr(bethe, "_cleared_jacobian", lambda *a: jacobians.append(1) or jac(*a))

    def counted(*a):
        try:
            rs = solve(*a)
        except NoConvergence:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return rs

    monkeypatch.setattr(bethe, "solve_complex", counted)
    return jacobians, outcomes


@pytest.mark.parametrize("args, kw, calls, failed, most_jacobians", [
    # without the secant predictor and the stall exit: 450 and 709 Jacobians
    ((14, 0, U_CRITICAL, U_CRITICAL - 0.2), {"du": 0.02}, 41, 19, 300),
    ((4, 0, 5.0, 0.0), {}, 127, 16, 600),
])
def test_continuation_predictor_keeps_the_path_with_fewer_jacobians(
        monkeypatch, args, kw, calls, failed, most_jacobians):
    jacobians, outcomes = _count_solves(monkeypatch)
    track_state(*args, **kw)
    assert (len(outcomes), outcomes.count(False)) == (calls, failed)
    assert len(jacobians) <= most_jacobians


def test_complex_newton_stops_a_trial_collapsing_two_roots(monkeypatch):
    k = solve_log_form(4, 0, 4.0).roots
    mean = 0.5 * (k[1] + k[2]).real
    trial = k.copy()
    trial[1], trial[2] = mean + 0.03j, mean - 0.03j  # a fused pair, as `_fuse_candidates` builds it
    jacobians, _ = _count_solves(monkeypatch)
    with pytest.raises(NoConvergence, match="Newton collapsing two roots") as info:
        solve_complex(4, 0, 3.95, trial)
    assert info.value.residual > 1e-13 and bethe._min_distance(info.value.last) < 1e-3
    stopped = len(jacobians)
    # without the rule the trial runs on until it has converged onto coincident momenta
    monkeypatch.setattr(bethe, "_COLLAPSE_DISTANCE", 0.0)
    jacobians.clear()
    with pytest.raises(NoConvergence, match="converged to coincident momenta"):
        solve_complex(4, 0, 3.95, trial)
    assert len(jacobians) > stopped


def test_stuck_continuation_skips_collapsing_trials(monkeypatch):
    jacobians, outcomes = _count_solves(monkeypatch)
    with pytest.raises(NoConvergence, match=r"continuation stuck at U=3\.000012"):
        track_state(8, 0, 3.4641016151, 3.0)
    # the same solves succeed and fail as when every collapsing trial ran on
    # to coincident momenta, which took 3393 Jacobians
    assert (len(outcomes), outcomes.count(False)) == (139, 126)
    assert len(jacobians) < 1200


def test_complex_newton_stops_a_stalled_run(monkeypatch):
    jacobians, _ = _count_solves(monkeypatch)
    rng = np.random.default_rng(38)
    init = rng.uniform(-np.pi, np.pi, 6) + 1j * rng.normal(scale=0.3, size=6)
    with pytest.raises(NoConvergence, match="complex Newton stalled") as info:
        solve_complex(6, 0, 2.0, init)
    # without the stall exit the line search gives up only after 55 Jacobians,
    # at the same defect
    assert len(jacobians) <= 11
    assert info.value.residual > 0.1 and info.value.last is not None


def test_log_form_critical_coupling_from_seed(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    rs = solve_log_form(1024, 0, U_CRITICAL)
    # 681 evaluations from the free momenta 2 pi Q / L
    assert len(calls) <= 15
    assert abs(energy(rs) / 1024 - refdata.TABLE2_ENERGY["2sqrt3"][1024]) < 1e-9


def test_log_form_just_below_critical_coupling_from_seed(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    rs = solve_log_form(512, 0, U_CRITICAL - 5e-13)
    # 219-302 evaluations from the free momenta 2 pi Q / L, by BLAS thread count
    assert len(calls) <= 15
    assert np.max(np.abs(rs.roots - solve_log_form(512, 0, U_CRITICAL).roots)) < 1e-10


# The log-form residual and Jacobian and the counting function with the pair
# phase and its kernel written out in each, kept as references for the shared
# `bethe._phase_kernel`.


def _ref_log_form_residual_and_jacobian(k, L, U, Q):
    s = np.sin(k - np.pi / 6)
    c = np.cos(k - np.pi / 6)
    Nm = s[:, None] - s[None, :]
    Dm = SQRT3 * (s[:, None] + s[None, :]) - U
    with np.errstate(divide="ignore", invalid="ignore"):
        at = np.arctan(Nm / Dm)
    np.fill_diagonal(at, 0.0)
    g = L * k - 2 * np.pi * Q - 2 * at.sum(axis=1)
    den = Nm * Nm + Dm * Dm
    np.fill_diagonal(den, 1.0)
    kern_j = (2 * SQRT3 * s[None, :] - U) / den
    np.fill_diagonal(kern_j, 0.0)
    J = np.diag(L - 2 * c * kern_j.sum(axis=1))
    kern_i = (2 * SQRT3 * s[:, None] - U) / den
    np.fill_diagonal(kern_i, 0.0)
    J = J + 2 * c[None, :] * kern_i
    return g, J


@pytest.mark.parametrize("M", [63, 65, 200])
def test_log_form_row_blocks_match_reference(M):
    # sizes that are no multiple of the row block; the Jacobian's column b
    # is filled from row b's pair denominators
    k = np.sort(np.random.default_rng(M).uniform(-np.pi, np.pi, M))
    Q = np.arange(M) - (M - 1) / 2
    for L, U in ((M, U_CRITICAL), (M + 3, 5.0)):
        new = bethe._log_form_residual_and_jacobian(k, L, U, Q)
        ref = _ref_log_form_residual_and_jacobian(k, L, U, Q)
        assert all(np.array_equal(a, b) for a, b in zip(new, ref))
        g, J = bethe._log_form_residual_and_jacobian(k, L, U, Q, None, False)
        assert J is None and np.array_equal(g, ref[0])


@pytest.mark.parametrize("M", [63, 65, 200])
def test_defect_row_blocks_match_reference(M):
    rng = np.random.default_rng(M)
    k = rng.uniform(-np.pi, np.pi, M) + 1j * rng.normal(0.0, 0.1, M)
    rs = BetheRootSet(M + 3, 3, 4.5, k)
    assert np.array_equal(bethe_defect(rs), _ref_bethe_defect(rs))


def test_log_form_memory_below_three_dense_arrays():
    L = 1024
    solve_log_form(L, 0, 5.0)  # the counting table is cached from here on
    tracemalloc.start()
    try:
        solve_log_form(L, 0, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Jacobian and the accepted trial's; seven dense arrays before row blocks
    assert peak < 3 * L * L * 8


def _ref_counting_function(k, U, s, ws):
    sk = np.sin(k - np.pi / 6)[:, None]
    num, den = sk - s, SQRT3 * (sk + s) - U
    Z = k / (2 * np.pi) - np.arctan(num / den) @ ws / np.pi
    kernel = (U - 2 * SQRT3 * s) / (num * num + den * den)
    return Z, (1.0 + 2 * np.cos(k - np.pi / 6) * (kernel @ ws)) / (2 * np.pi)


def _same_bits(new, ref):
    """Both functions return two arrays; a repeated momentum gives NaN in both."""
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(new, ref))


_couplings = st.one_of(st.just(U_CRITICAL), st.floats(0.0, 8.0))
_angles = st.floats(-np.pi, np.pi)


@settings(max_examples=200, deadline=None)
@given(k=st.lists(_angles, min_size=1, max_size=80), n=st.integers(0, 64), U=_couplings)
@example(k=[0.0, 2 * np.pi / 3, 2 * np.pi / 3 + 1e-9, 0.0], n=0, U=U_CRITICAL)
def test_log_form_kernel_matches_reference_bits(k, n, U):
    k = np.array(k)
    Q = np.arange(len(k)) - (len(k) - 1) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        new = bethe._log_form_residual_and_jacobian(k, len(k) + n, U, Q)
        ref = _ref_log_form_residual_and_jacobian(k, len(k) + n, U, Q)
    assert _same_bits(new, ref)


@settings(max_examples=200, deadline=None)
@given(k=st.lists(_angles, min_size=1, max_size=40), U=_couplings,
       nodes=st.lists(st.tuples(_angles, st.floats(0.0, 0.05)), min_size=1, max_size=80))
def test_counting_function_matches_reference_bits(k, U, nodes):
    k = np.array(k)
    s = np.sin(np.array([a for a, _ in nodes]) - np.pi / 6)
    ws = np.array([w for _, w in nodes])
    with np.errstate(divide="ignore", invalid="ignore"):
        new = bethe._counting_function(k, U, s, ws)
        ref = _ref_counting_function(k, U, s, ws)
    assert _same_bits(new, ref)


@pytest.mark.parametrize("U", [U_CRITICAL, 3.6, 4.0, 5.0, 10.0])
def test_counting_table_is_the_counting_function(U):
    # the table evaluates Z without its derivative; the values must not move
    t, Ztab, s, ws = bethe._counting_table.__wrapped__(U)
    assert np.array_equal(Ztab, np.maximum.accumulate(bethe._counting_function(t, U, s, ws)[0]))


def test_energy_trivial_cases():
    assert energy(BetheRootSet(6, 6, 3.0, np.zeros(0, dtype=complex))) == 9.0
    one = BetheRootSet(6, 5, 3.0, np.zeros(1, dtype=complex))
    assert abs(energy(one) - (-np.sqrt(3) + 5 * 1.5)) < 1e-14


def test_defect_pole_hit():
    # place the second momentum exactly on the scattering pole of the first
    U = 1.0
    k1 = 0.3
    e3 = np.exp(1j * np.pi / 3)
    s2 = (np.sin(k1 - np.pi / 6) * e3 - 0.5j * U) * e3
    k2 = np.pi / 6 + np.arcsin(complex(s2))
    rs = BetheRootSet(4, 2, U, np.array([k1, k2], dtype=complex))
    with pytest.raises(Singular, match="scattering denominator vanishes"):
        bethe_defect(rs)


def test_eigenvalue_lambda_pole_hit(rng):
    from genus5chain.curve import points_with_Z

    par = CurveParams(5.0)
    k = 0.7
    lam = points_with_Z(np.exp(1j * k), par)[0]  # spectator Z coincides with a root
    rs = BetheRootSet(4, 3, 5.0, np.array([k], dtype=complex))
    with pytest.raises(Singular, match="eigenvalue denominator 1 - Z_i/Z vanishes"):
        eigenvalue_lambda(lam, rs)


def _hand_typed_lambda(lam, rs):
    """Lambda with the scattering factor S(Z, Z_i) written out in t = Z - eps/Z."""
    from genus5chain.curve import zw_map

    eps, seps = lam.params.eps, lam.params.sqrt_eps
    zp = zw_map(lam)
    Z, W, Zi, x, y = zp.Z, zp.W, rs.z_values, lam.x, lam.y
    t, ti = Z - eps / Z, Zi - eps / Zi
    s_ratio = (t / eps - eps * ti - rs.U * seps) / (eps * t - ti / eps + rs.U * seps)
    base = (y / (eps * x)) * (eps + Zi / W) / (1.0 - Zi / Z)
    term3 = (W / Z) ** rs.L * np.prod((y / x) * (eps + Z * Zi) / (W * Zi - 1.0))
    return complex(x**rs.L * (np.prod(base) + Z ** (-rs.L) * np.prod(base * s_ratio) + term3))


def test_eigenvalue_lambda_scattering_matches_hand_typed_formula():
    # numpy rounds eps * t_i and t_i * eps apart in the last bit, and S's numerator
    # cancels, so the two orders of the same formula differ by up to 1.8e-14 here
    par = CurveParams(5.0)
    spectators = sample_points(par, 20, np.random.default_rng(34))
    for rs in (solve_log_form(8, 2, 5.0), solve_log_form(12, 1, 5.0)):
        for lam in spectators:
            expected = _hand_typed_lambda(lam, rs)
            assert abs(eigenvalue_lambda(lam, rs) - expected) <= 1e-13 * abs(expected)


def test_eigenvalue_lambda_scattering_pole_hit():
    from genus5chain.curve import points_with_Z, zw_map

    par = CurveParams(5.0)
    eps, seps = par.eps, par.sqrt_eps
    rs = BetheRootSet(4, 3, 5.0, np.array([0.7], dtype=complex))
    Zi = complex(rs.z_values[0])
    # the spectator's t = Z - eps/Z where eps t - t_i/eps + U sqrt(eps) = 0; on the
    # sheet W = 1/Z_i the pole W Z_i - 1 is hit first, so take the other sheet
    t = ((Zi - eps / Zi) / eps - 5.0 * seps) / eps
    Z = (t + np.sqrt(t * t + 4 * eps)) / 2
    lam = max(points_with_Z(Z, par), key=lambda p: abs(zw_map(p).W * Zi - 1))
    with pytest.raises(Singular, match="eigenvalue denominator scattering vanishes"):
        eigenvalue_lambda(lam, rs)


def test_momentum_z_form_consistency():
    rs = solve_log_form(8, 0, 5.0)
    fk = bethe_defect(rs)
    fz = bethe_defect_z(rs)
    assert np.max(np.abs(fk - fz)) < 1e-12


def test_conjugation_closure():
    rs = track_state(4, 0, 5.0, 1.0)
    conj = BetheRootSet(4, 0, 1.0, np.conj(rs.roots))
    assert np.max(np.abs(bethe_defect(conj))) < 1e-10


def test_translation_sum_rule():
    for L, n in ((8, 0), (9, 1), (6, 2)):
        rs = solve_log_form(L, n, 4.5)
        total = np.sum(rs.roots.real)
        expected = 2 * np.pi * sum(rs.Q) / L
        assert abs(total - expected) < 1e-10


def test_lowest_per_sector_matches_ed():
    for L in (4, 5):
        for key in ("5", "2sqrt3"):
            U = refdata.U_KEYS[key]
            for n in range(0, L + 1):
                rs = solve_log_form(L, n, U)
                rep = lattice.diagonalize(lattice.build_hamiltonian(U, L, n), mode="full")
                assert abs(energy(rs) - rep.lowest_real) < 1e-9


def test_complex_solver_polishes_log_solution():
    rs = solve_log_form(6, 0, 4.0)
    rs2 = solve_complex(6, 0, 4.0, rs.roots + 1e-6)
    assert rs2.residual < 1e-10
    assert np.max(np.abs(np.sort(rs2.roots.real) - np.sort(rs.roots.real))) < 1e-5


def test_continuation_to_free_coupling_matches_ed():
    rs = track_state(4, 0, 5.0, 0.0)
    rep = lattice.diagonalize(lattice.build_hamiltonian(0.0, 4, 0), mode="full")
    assert abs(energy(rs) - rep.lowest_real) < 1e-9
    cls = classify_roots(rs)
    assert cls.n_strings >= 1
    assert len(cls.reals) == 2
    assert not cls.unpaired


def test_continuation_to_negative_coupling_matches_ed():
    # the tracked ground state at U = -1 carries one two-string plus two
    # real roots; purely two-string patterns exist only as excited states
    rs = track_state(4, 0, 5.0, -1.0)
    rep = lattice.diagonalize(lattice.build_hamiltonian(-1.0, 4, 0), mode="full")
    assert abs(energy(rs) - rep.lowest_real) < 1e-9
    cls = classify_roots(rs)
    assert cls.n_strings >= 1


def test_double_string_solution_exists_at_negative_coupling():
    # excited-state pattern with two two-strings of distinct imaginary
    # parts (seed recorded from a deterministic multi-start survey)
    seed = np.array(
        [-2.19342 + 0.37193j, -2.19342 - 0.37193j, 0.62263 + 0.71749j, 0.62263 - 0.71749j]
    )
    rs = solve_complex(4, 0, -1.0, seed)
    assert rs.residual < 1e-10
    cls = classify_roots(rs)
    assert cls.n_strings == 2 and not cls.reals
    ims = sorted(abs(s[0].imag) for s in cls.strings)
    assert ims[1] - ims[0] > 0.1  # distinct imaginary parts


def test_string_formation_l14_near_critical():
    rs = track_state(14, 0, U_CRITICAL, U_CRITICAL - 0.2, du=0.02)
    assert np.max(np.abs(rs.roots.imag)) > 1e-3
    cls = classify_roots(rs)
    assert cls.n_strings == 1
    # the two fused momenta are the largest by real part
    fused_re = cls.strings[0][0].real
    assert fused_re >= max(r.real for r in cls.reals) - 0.5


def test_classify_trivial_patterns():
    real_set = BetheRootSet(6, 2, 5.0, np.array([0.1, 0.5, -0.3, 1.2], dtype=complex))
    cls = classify_roots(real_set)
    assert len(cls.reals) == 4 and not cls.strings and not cls.unpaired
    pair = BetheRootSet(4, 2, 1.0, np.array([0.4 + 0.2j, 0.4 - 0.2j]))
    cls2 = classify_roots(pair)
    assert cls2.n_strings == 1 and not cls2.reals


def test_critical_side():
    assert critical_side(3.0) == -1
    assert critical_side(4.0) == 1
    for d in (0.0, 5e-13, -5e-13):
        assert critical_side(U_CRITICAL + d) == 0
    assert critical_side(U_CRITICAL - 2e-12) == -1
    assert critical_side(U_CRITICAL + 2e-12) == 1


def test_eigenvalue_formula_vacuum(rng):
    par = CurveParams(5.0)
    (lam,) = sample_points(par, 1, rng)
    from genus5chain.curve import zw_map

    rs = BetheRootSet(4, 4, 5.0, np.zeros(0, dtype=complex))
    val = eigenvalue_lambda(lam, rs)
    zp = zw_map(lam)
    expected = lam.x**4 * (1 + zp.Z**-4 + (zp.W / zp.Z) ** 4)
    assert abs(val - expected) < 1e-10 * max(1.0, abs(expected))


def test_eigenvalue_formula_against_transfer_matrix(rng):
    par = CurveParams(5.0)
    p0 = CurvePoint(par, 1.0, 0.0)
    (lam,) = sample_points(par, 1, rng)
    for L, n in ((4, 3), (4, 2), (8, 5), (8, 2)):
        rs = solve_log_form(L, n, 5.0)
        val = eigenvalue_lambda(lam, rs)
        T = lattice.build_transfer_matrix(lam, p0, L, n).matrix.toarray()
        ev = np.linalg.eigvals(T)
        assert np.min(np.abs(ev - val)) < 1e-8 * max(1.0, abs(val))


def test_serialization_roundtrip():
    rs = solve_log_form(6, 1, 5.0)
    d = json.loads(json.dumps(rs.to_json_dict()))
    assert (d["L"], d["n"], d["U"], d["eps_sign"]) == (6, 1, 5.0, "plus")
    assert np.array_equal([r["re"] + 1j * r["im"] for r in d["roots"]], rs.roots)
    assert d["Q"] == [float(q) for q in rs.Q]
    assert d["residual"] == rs.residual


@settings(max_examples=60, deadline=None)
@given(case=_root_sets())
def test_pair_product_kernel_matches_loop_reference(case):
    k, L, U = case
    rs = BetheRootSet(L, L - len(k), U, k)
    try:
        ref = _ref_bethe_defect(rs)
    except Singular:
        with pytest.raises(Singular, match="scattering denominator vanishes"):
            bethe_defect(rs)
    else:
        assert np.array_equal(bethe_defect(rs), ref)

    F, scale, f, E = bethe._cleared_defect(k, L, U)
    F_ref, scale_ref = _ref_cleared_defect(k, L, U)
    assert np.all(np.abs(F - F_ref) <= 1e-14 * scale_ref)
    assert np.all(np.abs(scale - scale_ref) <= 1e-14 * scale_ref)

    J = bethe._cleared_jacobian(k, L, f, E)
    J_ref = _ref_cleared_jacobian(k, L, U)
    assert np.max(np.abs(J - J_ref)) <= 1e-13 * np.max(np.abs(J_ref))

    # the cleared defect is holomorphic in each k_i, so a real-direction
    # central difference gives column i of the Jacobian
    h = 1e-6
    J_fd = np.empty_like(J)
    for i in range(len(k)):
        e = np.zeros(len(k))
        e[i] = h
        J_fd[:, i] = (bethe._cleared_defect(k + e, L, U)[0]
                      - bethe._cleared_defect(k - e, L, U)[0]) / (2 * h)
    assert np.max(np.abs(J_fd - J)) <= 1e-6 * np.max(np.abs(J))
