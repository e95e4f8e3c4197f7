import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kfaclab import numerics
from kfaclab.errors import CapacityError, NumericError, ShapeError


def test_sym_eig_diagonal():
    q, v = numerics.sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(v, [3.0, 1.0])
    # eigenvectors of a diagonal matrix are the axes, up to column sign
    assert np.allclose(np.abs(q), np.eye(2))


def test_sym_eig_known_2x2_spectrum():
    _, v = numerics.sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(v, [3.0, 1.0], atol=1e-12)


def test_sym_eig_reconstruction_and_orthogonality():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        m = (m + m.T) / 2
        q, v = numerics.sym_eig(m)
        assert np.abs(q @ np.diag(v) @ q.T - m).max() <= 1e-10
        assert np.abs(q.T @ q - np.eye(6)).max() <= 1e-10
        assert np.all(np.diff(v) <= 0)  # descending


def test_sym_eig_spd_eigenvalues_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        b = rng.standard_normal((5, 5))
        m = b @ b.T
        _, v = numerics.sym_eig(m)
        assert v.min() >= -1e-10 * np.abs(m).max()


def test_sym_eig_reads_the_lower_triangle_only():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5, 65):
        b = rng.standard_normal((d, d))
        lower = np.tril(b @ b.T)
        mirrored = lower + np.tril(lower, -1).T
        garbage = lower + np.triu(rng.standard_normal((d, d)) * 1e3, 1)
        want, got = numerics.sym_eig(mirrored), numerics.sym_eig(garbage)
        assert np.array_equal(got.q, want.q) and np.array_equal(got.values, want.values), d


def test_sym_eig_rejects_nonsquare():
    with pytest.raises(ShapeError):
        numerics.sym_eig(np.zeros((2, 3)))


def test_sym_inverse_diagonal():
    assert np.allclose(numerics.sym_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


def test_sym_inverse_identity():
    assert np.allclose(numerics.sym_inverse(np.eye(4)), np.eye(4))


def test_sym_inverse_residual():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((5, 5))
    m = b.T @ b + np.eye(5)
    inv = numerics.sym_inverse(m)
    assert np.abs(m @ inv - np.eye(5)).max() <= 1e-8


def test_sym_inverse_involution_on_well_conditioned():
    rng = np.random.default_rng(4)
    for _ in range(10):
        b = rng.standard_normal((5, 5))
        m = b.T @ b / 5 + np.eye(5)  # condition number well below 1e4
        back = numerics.sym_inverse(numerics.sym_inverse(m))
        assert np.abs(back - m).max() <= 1e-7 * np.abs(m).max()


def test_sym_inverse_rejects_non_spd():
    with pytest.raises(NumericError):
        numerics.sym_inverse(np.diag([1.0, -1.0]))


def _spd(n: int, seed: int, shift: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n + 3))
    return b @ b.T / (n + 3) + shift * np.eye(n)


# sizes 10 ... 193 include the ones the training workloads invert and both
# sides of LAPACK's blocked/unblocked switch (block size 64)
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 260), seed=st.integers(0, 2 ** 32 - 1),
       shift=st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
@example(n=10, seed=0, shift=0.1)
@example(n=64, seed=1, shift=0.1)
@example(n=65, seed=2, shift=0.1)
@example(n=192, seed=3, shift=1e-3)
@example(n=193, seed=4, shift=1e-3)
def test_sym_inverse_matches_dense_oracle(n, seed, shift):
    m = _spd(n, seed, shift)
    before = m.copy()
    inv = numerics.sym_inverse(m)
    assert np.array_equal(m, before)  # input untouched
    assert np.array_equal(inv, inv.T)  # exactly symmetric
    ref = np.linalg.solve(m, np.eye(n))
    # backward-stable Cholesky inversion: error grows with n, eps and cond(m)
    bound = 8 * n * np.finfo(float).eps * np.linalg.cond(m)
    assert np.abs(inv - ref).max() <= bound * np.abs(ref).max()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 70), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_sym_inverse_rejects_non_pd_and_non_finite(n, seed, data):
    m = _spd(n, seed, 0.1)
    before = m.copy()
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    bad_pivot = m.copy()
    bad_pivot[i, i] = -data.draw(st.sampled_from([0.0, 1e-300, 1.0, 1e300]))
    with pytest.raises(NumericError):
        numerics.sym_inverse(bad_pivot)
    for value in (np.nan, np.inf, -np.inf):
        poisoned = m.copy()
        poisoned[i, j] = value  # in either triangle
        with pytest.raises(NumericError):
            numerics.sym_inverse(poisoned)
    with pytest.raises(NumericError):
        numerics.sym_inverse(np.zeros((n, n)))
    assert np.array_equal(m, before)


def test_sym_inverse_of_empty_matrix_is_empty(capfd):
    assert numerics.sym_inverse(np.zeros((0, 0))).shape == (0, 0)
    assert capfd.readouterr().err == ""  # no LAPACK argument complaint


def test_sym_inverse_non_finite_result_is_numeric_error():
    # positive pivots whose inverse overflows
    with pytest.raises(NumericError, match="non-finite"):
        numerics.sym_inverse(np.diag([1.0, 1e-320]))


def _wide_values(rng, shape, max_exp=1023):
    """Random signs and mantissas times 2**e for e across the whole double
    range: dividing them yields subnormal results that need rounding."""
    mantissa = rng.uniform(1.0, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    return mantissa * np.exp2(rng.integers(-1074, max_exp + 1, shape).astype(np.float64))


def test_divide_in_place_equals_true_division_bit_for_bit():
    fi = np.finfo(np.float64)
    special = [0.0, -0.0, fi.smallest_subnormal, -fi.smallest_subnormal,
               3 * fi.smallest_subnormal, 2.5e-310, -1e-309, fi.tiny, -fi.tiny,
               fi.max, -fi.max, np.inf, -np.inf, np.nan, -np.nan, 1.0, -3.0]
    x = np.concatenate([special, _wide_values(np.random.default_rng(9), 4000)])
    for n in range(1, 1025):  # powers of two multiply, every other n divides
        out = x.copy()
        assert numerics.divide_in_place(out, n) is out
        assert out.tobytes() == (x / n).tobytes(), n


def test_all_reduce_avg_equals_tree_sum_divided_by_p():
    from kfaclab import distsim
    from kfaclab.costmodel import StepCounters

    rng = np.random.default_rng(10)
    for P in range(1, 10):
        tensors = [_wide_values(rng, (6, 7), max_exp=1000) for _ in range(P)]
        want = distsim._tree_sum([t.copy() for t in tensors]) / P
        got = distsim.all_reduce_avg(tensors, StepCounters(), "gradcomm")
        assert got.tobytes() == want.tobytes(), P


def test_kron_scalars():
    assert np.array_equal(numerics.kron(np.array([[2.0]]), np.array([[3.0]])),
                          np.array([[6.0]]))


def test_kron_identities():
    assert np.array_equal(numerics.kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_element_cap():
    big = np.zeros((100, 100))
    with pytest.raises(CapacityError):
        numerics.kron(big, big)
    # explicit cap override allows it
    numerics.kron(np.zeros((10, 10)), np.zeros((10, 10)), element_cap=10 ** 4)


def test_vec_convention():
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(numerics.vec(m), np.array([[1.0], [2.0], [3.0], [4.0]]))


def test_vec_unvec_round_trip_bit_identical():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 3))
    assert np.array_equal(numerics.unvec(numerics.vec(m), 4, 3), m)
    v = numerics.vec(m)
    assert np.array_equal(numerics.vec(numerics.unvec(v, 4, 3)), v)


def test_unvec_shape_error():
    with pytest.raises(ShapeError):
        numerics.unvec(np.zeros((5, 1)), 2, 3)


def test_mixed_product_identity_symmetric_factors():
    # kron(A, G) acting on the column-stacked gradient equals G @ X @ A
    # for symmetric A: the convention every preconditioner formula relies on.
    rng = np.random.default_rng(6)
    for _ in range(50):
        d_a, d_g = rng.integers(1, 7, size=2)
        a = rng.standard_normal((d_a, d_a))
        a = (a + a.T) / 2
        g = rng.standard_normal((d_g, d_g))
        g = (g + g.T) / 2
        x = rng.standard_normal((d_g, d_a))
        lhs = numerics.kron(a, g) @ numerics.vec(x)
        rhs = numerics.vec(g @ x @ a)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(x).max())
