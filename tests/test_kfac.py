import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfaclab import kfac, numerics
from kfaclab.errors import ArgumentError, CapacityError, NumericError, OrderingError
from kfaclab.kfac import FactorState, KfacHyper


def _spd(rng, d):
    b = rng.standard_normal((d, d))
    return b @ b.T / d + np.eye(d)


def test_compute_factors_orthonormal_inputs():
    inputs = np.array([[1.0, 0.0], [0.0, 1.0]])
    grads = np.array([[1.0, 1.0]])
    a, g = kfac.compute_factors(inputs, grads)
    assert np.allclose(a, 0.5 * np.eye(2))
    assert np.allclose(g, [[1.0]])


def test_compute_factors_single_sample_rank_one():
    a_col = np.array([[2.0], [1.0], [-1.0]])
    a, _ = kfac.compute_factors(a_col, np.array([[1.0]]))
    assert np.allclose(a, a_col @ a_col.T)
    assert np.linalg.matrix_rank(a) == 1


def test_compute_factors_matches_loop_oracle():
    rng = np.random.default_rng(0)
    inputs = rng.standard_normal((4, 9))
    grads = rng.standard_normal((3, 9))
    a, g = kfac.compute_factors(inputs, grads)
    a_ref = np.zeros((4, 4))
    g_ref = np.zeros((3, 3))
    for b in range(9):
        a_ref += np.outer(inputs[:, b], inputs[:, b])
        g_ref += np.outer(grads[:, b], grads[:, b])
    assert np.abs(a - a_ref / 9).max() <= 1e-13
    assert np.abs(g - g_ref / 9).max() <= 1e-13


def test_compute_factors_outputs_psd_and_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, g = kfac.compute_factors(rng.standard_normal((5, 3)), rng.standard_normal((4, 3)))
        assert np.array_equal(a, a.T)
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(a).min() >= -1e-10
        assert np.linalg.eigvalsh(g).min() >= -1e-10


def _capture(rng, d, b, layout, scale=1.0):
    """A d x b capture in one of the memory layouts callers hand in."""
    if layout == "c_order":
        return scale * rng.standard_normal((d, b))
    if layout == "column_slice":  # a worker's shard of a wider batch
        return (scale * rng.standard_normal((d, b + 5)))[:, 2:b + 2]
    if layout == "f_order":
        return np.asfortranarray(scale * rng.standard_normal((d, b)))
    return (scale * rng.standard_normal((d, 2 * b)))[:, ::2]  # non-unit inner stride


def _symmetrized_second_moment(x):
    """Reference second moment with an explicit symmetrization."""
    m = x @ x.T / x.shape[1]
    return (m + m.T) / 2.0


# numpy's product of a strided capture with more than 192 rows and its own
# transpose is not exactly symmetric, so the dimensions straddle that size
_DIMS = st.integers(1, 40) | st.integers(185, 260)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d_a=_DIMS, d_g=_DIMS,
       b=st.integers(1, 40), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       layout=st.sampled_from(["c_order", "column_slice", "f_order", "strided"]))
def test_compute_factors_exactly_symmetric_for_every_layout(seed, d_a, d_g, b, scale, layout):
    rng = np.random.default_rng(seed)
    captures = (_capture(rng, d_a, b, layout, scale), _capture(rng, d_g, b, layout))
    kept = [x.copy() for x in captures]
    for out, x, before in zip(kfac.compute_factors(*captures), captures, kept):
        assert np.array_equal(out, out.T)
        assert np.array_equal(x, before)
        if layout != "strided":
            assert out.tobytes() == _symmetrized_second_moment(x).tobytes()


def test_compute_factors_rejects_empty_or_mismatched():
    with pytest.raises(ArgumentError):
        kfac.compute_factors(np.zeros((3, 0)), np.zeros((2, 0)))
    with pytest.raises(ArgumentError):
        kfac.compute_factors(np.zeros((3, 4)), np.zeros((2, 5)))


def test_running_average_xi_one_replaces():
    state = FactorState()
    kfac.update_running_average(state, np.eye(2), np.eye(3), xi=1.0, t=0)
    kfac.update_running_average(state, 2 * np.eye(2), 3 * np.eye(3), xi=1.0, t=1)
    assert np.array_equal(state.a_cov, 2 * np.eye(2))
    assert np.array_equal(state.g_cov, 3 * np.eye(3))


def test_running_average_first_update_assigns():
    state = FactorState()
    kfac.update_running_average(state, 5 * np.eye(2), 7 * np.eye(2), xi=0.1, t=3)
    assert np.array_equal(state.a_cov, 5 * np.eye(2))
    assert state.initialized
    assert state.last_factor_update == 3


def test_running_average_blend_weights_new_by_xi():
    state = FactorState()
    # force an initialized zero history, then fold in the identity
    kfac.update_running_average(state, np.zeros((2, 2)), np.zeros((2, 2)), xi=0.95, t=0)
    kfac.update_running_average(state, np.eye(2), np.eye(2), xi=0.95, t=1)
    assert np.allclose(state.a_cov, 0.95 * np.eye(2))
    assert np.allclose(state.g_cov, 0.95 * np.eye(2))


def test_pi_scalar_direct_substitution():
    a = np.diag([2.0, 2.0, 2.0, 2.0])  # trace 8, dim 4
    g = np.diag([1.0, 1.0])            # trace 2, dim 2
    assert abs(kfac.pi_scalar(a, g) - np.sqrt(2.0)) <= 1e-15


def test_pi_scalar_equal_factors_is_one():
    m = np.diag([1.0, 3.0, 5.0])
    assert kfac.pi_scalar(m, m) == 1.0


def test_pi_scalar_homogeneity():
    rng = np.random.default_rng(2)
    a, g = _spd(rng, 4), _spd(rng, 3)
    assert abs(kfac.pi_scalar(4.0 * a, g) - 2.0 * kfac.pi_scalar(a, g)) <= 1e-12


def test_pi_scalar_rejects_nonpositive_trace():
    with pytest.raises(NumericError):
        kfac.pi_scalar(np.zeros((2, 2)), np.eye(2))


def test_precondition_inverse_scalar_closed_form():
    a, g, x, gamma = 2.0, 0.5, 3.0, 0.03
    pi = np.sqrt(a / g)
    expected = x / ((g + np.sqrt(gamma) / pi) * (a + pi * np.sqrt(gamma)))
    out = kfac.precondition_inverse(np.array([[a]]), np.array([[g]]),
                                    np.array([[x]]), gamma)
    assert abs(out[0, 0] - expected) <= 1e-14


def test_precondition_inverse_identity_factors_zero_damping():
    grad = np.random.default_rng(3).standard_normal((3, 4))
    out = kfac.precondition_inverse(np.eye(4), np.eye(3), grad, gamma=0.0)
    assert np.abs(out - grad).max() <= 1e-12


def test_precondition_inverse_matches_factored_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a, g = _spd(rng, 3), _spd(rng, 2)
        grad = rng.standard_normal((2, 3))
        for gamma in (1e-3, 0.03, 1.0):
            fast = kfac.precondition_inverse(a, g, grad, gamma)
            oracle = kfac.factored_precondition_oracle(a, g, grad, gamma)
            assert np.abs(fast - oracle).max() <= 1e-10


def test_precondition_inverse_approaches_exact_oracle_at_zero_damping():
    # the pi-split form differs from the exact damped inverse by a cross term
    # of order sqrt(gamma)/lambda^3, so the 1e-8 agreement needs factor
    # spectra comfortably above 1; floor 20 keeps condition numbers near 1
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, g = _spd(rng, 4) + 19 * np.eye(4), _spd(rng, 3) + 19 * np.eye(3)
        grad = rng.standard_normal((3, 4))
        fast = kfac.precondition_inverse(a, g, grad, 1e-12)
        exact = kfac.exact_precondition_oracle(a, g, grad, 1e-12)
        assert np.abs(fast - exact).max() <= 1e-8


def test_precondition_inverse_pi_rescaling_invariance():
    rng = np.random.default_rng(6)
    a, g = _spd(rng, 4), _spd(rng, 3)
    grad = rng.standard_normal((3, 4))
    base = kfac.precondition_inverse(a, g, grad, 0.03)
    for c in (4.0, 0.25):
        scaled = kfac.precondition_inverse(c * a, g / c, grad, 0.03)
        assert np.abs(scaled - base).max() <= 1e-10


def test_precondition_eigen_diagonal_case():
    v_a = np.array([2.0, 1.0])
    v_g = np.array([3.0, 0.5, 0.1])
    gamma = 0.03
    a_eig = numerics.sym_eig(np.diag(v_a))
    g_eig = numerics.sym_eig(np.diag(v_g))
    grad = np.arange(6.0).reshape(3, 2) + 1.0
    out = kfac.precondition_eigen(a_eig, g_eig, grad, gamma)
    # undo the descending-order permutation by checking against the raw recipe
    expected = np.empty_like(grad)
    for k in range(3):
        for l in range(2):
            expected[k, l] = grad[k, l] / (v_g[k] * v_a[l] + gamma)
    assert np.abs(out - expected).max() <= 1e-12


def test_precondition_eigen_damping_dominated_limit():
    rng = np.random.default_rng(7)
    a, g = _spd(rng, 4), _spd(rng, 3)
    grad = rng.standard_normal((3, 4))
    gamma = 1e8
    out = kfac.precondition_eigen(numerics.sym_eig(a), numerics.sym_eig(g), grad, gamma)
    assert np.abs(gamma * out - grad).max() <= 1e-6 * np.abs(grad).max()


def test_precondition_eigen_matches_exact_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        d_a, d_g = rng.integers(1, 7, size=2)
        a, g = _spd(rng, d_a), _spd(rng, d_g)
        grad = rng.standard_normal((d_g, d_a))
        for gamma in (1e-3, 0.03, 1.0):
            fast = kfac.precondition_eigen(numerics.sym_eig(a), numerics.sym_eig(g), grad, gamma)
            exact = kfac.exact_precondition_oracle(a, g, grad, gamma)
            assert np.abs(fast - exact).max() <= 1e-10 * max(1.0, np.abs(grad).max())


def test_precondition_eigen_rejects_zero_denominator():
    a_eig = numerics.sym_eig(np.zeros((2, 2)))
    g_eig = numerics.sym_eig(np.zeros((2, 2)))
    with pytest.raises(NumericError):
        kfac.precondition_eigen(a_eig, g_eig, np.ones((2, 2)), gamma=0.0)


def test_exact_oracle_scalar():
    out = kfac.exact_precondition_oracle(np.array([[2.0]]), np.array([[3.0]]),
                                         np.array([[5.0]]), gamma=0.5)
    assert abs(out[0, 0] - 5.0 / (6.0 + 0.5)) <= 1e-14


def test_exact_oracle_zero_damping_kronecker_inverse_identity():
    rng = np.random.default_rng(9)
    a, g = _spd(rng, 3), _spd(rng, 2)
    grad = rng.standard_normal((2, 3))
    out = kfac.exact_precondition_oracle(a, g, grad, gamma=0.0)
    direct = np.linalg.solve(g, grad) @ np.linalg.inv(a)
    assert np.abs(out - direct).max() <= 1e-10


def test_exact_oracle_capacity_guard():
    big = np.eye(40)
    with pytest.raises(CapacityError):
        kfac.exact_precondition_oracle(big, big, np.ones((40, 40)), 0.1)


def test_damping_monotonicity_diagonal():
    v_a = np.array([2.0, 0.5])
    v_g = np.array([1.5, 0.2, 3.0])
    a_eig = numerics.sym_eig(np.diag(v_a))
    g_eig = numerics.sym_eig(np.diag(v_g))
    grad = np.random.default_rng(10).standard_normal((3, 2))
    norms = [
        np.linalg.norm(kfac.precondition_eigen(a_eig, g_eig, grad, gamma))
        for gamma in (1e-3, 1e-2, 1e-1, 1.0, 10.0)
    ]
    assert all(n1 >= n2 for n1, n2 in zip(norms, norms[1:]))


def _captures(rng, d_in, d_out, batch):
    return rng.standard_normal((d_in, batch)), rng.standard_normal((d_out, batch))


def test_layer_step_fresh_every_iteration():
    rng = np.random.default_rng(11)
    hyper = KfacHyper(f_freq=1, k_freq=1, xi=1.0)
    state = FactorState()
    inputs, grads_cap = _captures(rng, 4, 3, 16)
    grad = rng.standard_normal((3, 4))
    out, state = kfac.kfac_layer_step(state, inputs, grads_cap, grad, hyper, t=0)
    # xi=1 and fresh decompositions: identical to the stateless route
    a, g = kfac.compute_factors(inputs, grads_cap)
    direct = kfac.precondition_eigen(numerics.sym_eig(a), numerics.sym_eig(g), grad, hyper.gamma)
    assert np.array_equal(out, direct)
    assert state.last_factor_update == 0
    assert state.last_inverse_update == 0


def test_layer_step_stale_reuse_between_refreshes():
    rng = np.random.default_rng(12)
    hyper = KfacHyper(f_freq=50, k_freq=500)
    state = FactorState()
    inputs0, grads0 = _captures(rng, 4, 3, 8)
    grad0 = rng.standard_normal((3, 4))
    kfac.kfac_layer_step(state, inputs0, grads0, grad0, hyper, t=0)
    frozen_a = state.a_cov.copy()

    # t=49: different captures must be ignored entirely
    inputs49, grads49 = _captures(rng, 4, 3, 8)
    grad49 = rng.standard_normal((3, 4))
    out, state = kfac.kfac_layer_step(state, inputs49, grads49, grad49, hyper, t=49)
    assert np.array_equal(state.a_cov, frozen_a)
    assert state.last_factor_update == 0
    assert state.last_inverse_update == 0
    expected = kfac.precondition_eigen(state.a_eig, state.g_eig, grad49, hyper.gamma)
    assert np.array_equal(out, expected)


def test_layer_step_never_recompute_staleness():
    rng = np.random.default_rng(13)
    hyper = KfacHyper(f_freq=1, k_freq=10 ** 9)
    state = FactorState()
    inputs, grads_cap = _captures(rng, 3, 2, 8)
    grad = rng.standard_normal((2, 3))
    out0, _ = kfac.kfac_layer_step(state, inputs, grads_cap, grad, hyper, t=0)
    for t in range(1, 6):
        fresh_in, fresh_g = _captures(rng, 3, 2, 8)
        out_t, _ = kfac.kfac_layer_step(state, fresh_in, fresh_g, grad, hyper, t=t)
        assert np.array_equal(out_t, out0)


def test_layer_step_deterministic():
    rng = np.random.default_rng(14)
    inputs, grads_cap = _captures(rng, 4, 3, 8)
    grad = rng.standard_normal((3, 4))
    hyper = KfacHyper()
    out_a, _ = kfac.kfac_layer_step(FactorState(), inputs, grads_cap, grad, hyper, t=0)
    out_b, _ = kfac.kfac_layer_step(FactorState(), inputs, grads_cap, grad, hyper, t=0)
    assert np.array_equal(out_a, out_b)


def test_layer_step_inverse_mode_matches_stateless():
    rng = np.random.default_rng(15)
    hyper = KfacHyper(inv_type="inverse", xi=1.0)
    inputs, grads_cap = _captures(rng, 4, 3, 16)
    grad = rng.standard_normal((3, 4))
    out, _ = kfac.kfac_layer_step(FactorState(), inputs, grads_cap, grad, hyper, t=0)
    a, g = kfac.compute_factors(inputs, grads_cap)
    assert np.abs(out - kfac.precondition_inverse(a, g, grad, hyper.gamma)).max() <= 1e-14


def test_apply_preconditioner_before_refresh_is_ordering_error():
    with pytest.raises(OrderingError):
        kfac.apply_preconditioner(FactorState(), np.ones((2, 2)), KfacHyper())
    with pytest.raises(OrderingError):
        kfac.refresh_inverses(FactorState(), KfacHyper(), t=0)


def test_hyper_validation():
    with pytest.raises(ArgumentError):
        KfacHyper(gamma=-0.1)
    with pytest.raises(ArgumentError):
        KfacHyper(xi=0.0)
    with pytest.raises(ArgumentError):
        KfacHyper(inv_type="cholesky")
    with pytest.raises(ArgumentError):
        KfacHyper(f_freq=0)
