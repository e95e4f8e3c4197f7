"""Dense double-precision linear algebra on small matrices.

Conventions used throughout the package:

* A matrix is a 2-D ``numpy.ndarray`` of ``float64``.
* ``vec`` stacks columns: entry ``(r, c)`` of an ``m x n`` matrix lands at
  position ``c * m + r`` of the resulting column vector.
* Kronecker products pair with that convention as
  ``kron(A, G) @ vec(X) == vec(G @ X @ A.T)`` for ``X`` of shape
  ``(rows of G) x (rows of A)``.

The third point is load-bearing: it is what makes the factored damping
formulas (two-sided small-matrix products) interchangeable with the dense
Kronecker solve used by the verification oracle.  ``kron`` itself is
oracle-only and guarded by an element cap so it cannot sneak into a
training-scale code path.

The two decompositions, :func:`sym_eig` and :func:`sym_inverse`, raise
:class:`NumericError` for non-finite input, a failed factorization or a
non-finite result, so a bad factor never turns silently into NaN weights.
``sym_inverse`` runs LAPACK ``potrf`` + ``potri`` on a private copy and
mirrors one triangle, so its result is exactly symmetric.  Both routines
come from scipy's own OpenBLAS through ctypes, which imports no scipy module
and releases the GIL, so Cholesky refreshes run on the owner lanes.  It runs
one thread (so the bits ignore ``OPENBLAS_NUM_THREADS``) from the moment
:func:`openblas` opens it, also for a later ``import scipy.linalg``.

:func:`divide_in_place` is the one way the step divides an array by a count
(batch size, worker count).  When the count ``n >= 1`` is a power of two it
multiplies by ``1/n`` instead, which is about three times cheaper than a
division.  The reciprocal of a power of two is itself a power of two and
exactly representable, so ``x * (1/n)`` and ``x / n`` are both the correctly
rounded value of the same real number ``x * 2**-k``: every result, including
subnormals, signed zeros, infinities and NaN, is the same bits.  Any other
``n`` is divided, because its reciprocal would be rounded first.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import math
import os
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConfigError, NumericError, ShapeError

# kron() refuses to materialize results above this many elements unless the
# caller raises the cap explicitly.
KRON_ELEMENT_CAP = 1_000_000


class EigenPair(NamedTuple):
    """Orthonormal eigenvectors (columns of ``q``) and descending eigenvalues."""

    q: np.ndarray
    values: np.ndarray


def _require_matrix(m, name: str) -> np.ndarray:
    if not isinstance(m, np.ndarray) or m.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D ndarray")
    return m


def _require_square(m, name: str) -> np.ndarray:
    m = _require_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name}: expected a square matrix, got {m.shape[0]}x{m.shape[1]}")
    return m


def divide_in_place(x: np.ndarray, n: int) -> np.ndarray:
    """``x /= n`` in place, as a multiplication by the exact reciprocal when
    ``n`` is a power of two (the same bits, see the module docstring)."""
    if n >= 1 and math.frexp(n)[0] == 0.5:  # 1, 2, 4, ...
        x *= 1.0 / n
    else:
        x /= n
    return x


def sym_eig(m: np.ndarray) -> EigenPair:
    """Eigendecomposition of a symmetric matrix.

    Reads the lower triangle of ``m``, like :func:`sym_inverse`: the K-FAC
    factors are exactly symmetric (:func:`kfaclab.kfac.compute_factors`, and
    averaging keeps them so).  Eigenvalues are returned in descending order.
    """
    m = _require_square(m, "sym_eig")
    try:
        values, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigendecomposition failed to converge for a {m.shape[0]}x{m.shape[0]} matrix"
        ) from exc
    # eigh returns ascending order
    values = np.ascontiguousarray(values[::-1])
    q = np.ascontiguousarray(q[:, ::-1])
    if not (np.isfinite(values).all() and np.isfinite(q).all()):
        raise NumericError(
            f"eigendecomposition produced non-finite values for a {m.shape[0]}x{m.shape[0]} matrix"
        )
    return EigenPair(q=q, values=values)


@functools.lru_cache(maxsize=32)
def _strict_upper(n: int) -> np.ndarray:
    """Read-only boolean mask of the strictly upper triangle of an n x n matrix."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


@functools.cache
def openblas(package: str) -> tuple:
    """The thread count getter and setter, the build string and the library
    of the OpenBLAS that ``package`` ("numpy" or "scipy") bundles, found
    without importing the package; all None when it bundles none.  scipy's
    is set to one thread, and its ``potrf`` and ``potri`` are declared."""
    suffix = "64_" if package == "numpy" else ""  # numpy's takes 64-bit integers
    spec = importlib.util.find_spec(package)  # without running its __init__
    try:
        libs = os.path.join(os.path.dirname(spec.submodule_search_locations[0]), package + ".libs")
        lib = ctypes.CDLL(os.path.join(libs, next(n for n in os.listdir(libs)
                                                  if n.startswith("libscipy_openblas" + suffix))))
        threads, set_threads, config = (getattr(lib, f"scipy_openblas_{f}{suffix}") for f in
                                        ("get_num_threads", "set_num_threads", "get_config"))
    except (AttributeError, OSError, StopIteration):  # AttributeError: no spec or symbol
        return None, None, None, None
    threads.argtypes, threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    config.argtypes, config.restype = [], ctypes.c_char_p
    if not suffix:  # scipy's: potrf and potri take (uplo, n, a, lda, info)
        int_p = ctypes.POINTER(ctypes.c_int)
        for fn in (lib.scipy_dpotrf_, lib.scipy_dpotri_):
            fn.argtypes, fn.restype = [ctypes.c_char_p, int_p, ctypes.c_void_p, int_p, int_p], None
        set_threads(1)  # whatever the caller's setting
    return threads, set_threads, config, lib


def simd_targets() -> list[str] | None:
    """The SIMD targets numpy dispatches to here: its ``__cpu_dispatch__``
    entries that the CPU has and ``NPY_DISABLE_CPU_FEATURES`` left on.  They
    pick the kernels of ``exp``, ``log1p`` and ``tanh``, and so their last
    bits.  None when numpy has no such table (numpy 2 keeps it in
    ``numpy._core``, earlier versions in ``numpy.core``)."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(name)
        except ImportError:
            continue
        return [k for k in umath.__cpu_dispatch__ if umath.__cpu_features__[k]]
    return None


def sym_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky.

    Reads the lower triangle of ``m`` and leaves ``m`` untouched.  A private
    copy is factored by LAPACK ``potrf`` and inverted in place by ``potri``;
    the computed triangle is then mirrored into the other, so the result is
    exactly symmetric.  Non-finite input or output and a failed
    factorization (not positive definite) raise :class:`NumericError`.
    """
    m = _require_square(m, "sym_inverse")
    n = m.shape[0]
    # potrf does not report a NaN pivot, so non-finite input is caught here
    if not np.isfinite(m).all():
        raise NumericError(f"cannot invert a {n}x{n} matrix with non-finite entries")
    lib = openblas("scipy")[3]
    if lib is None:
        raise ConfigError("hyper.inv_type = inverse needs scipy.libs/libscipy_openblas-*.so")
    # the transposed copy is Fortran-ordered, as LAPACK wants, and its upper
    # triangle is the lower triangle of m; both calls work on it in place
    inv_t = np.array(m, dtype=np.float64).T
    size, lda, info = ctypes.c_int(n), ctypes.c_int(max(n, 1)), ctypes.c_int(0)  # lda >= 1
    lib.scipy_dpotrf_(b"U", size, inv_t.ctypes.data, lda, info)
    if info.value == 0:
        lib.scipy_dpotri_(b"U", size, inv_t.ctypes.data, lda, info)
    if info.value != 0:
        raise NumericError(
            f"Cholesky inversion failed for a {n}x{n} matrix (not positive definite?)"
        )
    inv = inv_t.T  # the inverse sits in its lower triangle
    np.copyto(inv, inv.T, where=_strict_upper(n))
    if not np.isfinite(inv).all():
        raise NumericError(f"inverse of a {n}x{n} matrix has non-finite entries")
    return inv


def kron(a: np.ndarray, b: np.ndarray, element_cap: int = KRON_ELEMENT_CAP) -> np.ndarray:
    """Kronecker product, capped in size (verification oracle only)."""
    a = _require_matrix(a, "kron lhs")
    b = _require_matrix(b, "kron rhs")
    n_elements = a.size * b.size
    if n_elements > element_cap:
        raise CapacityError(
            f"kron result would hold {n_elements} elements, above the cap of {element_cap}; "
            "the dense Kronecker product is a verification oracle, not a training path"
        )
    return np.kron(a, b)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into an ``(rows*cols) x 1`` column vector."""
    m = _require_matrix(m, "vec")
    return m.reshape((-1, 1), order="F").copy()


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a column vector back to ``rows x cols``."""
    v = _require_matrix(v, "unvec")
    if v.shape != (rows * cols, 1):
        raise ShapeError(f"unvec: expected shape ({rows * cols}, 1), got {v.shape}")
    return v.reshape((rows, cols), order="F").copy()
