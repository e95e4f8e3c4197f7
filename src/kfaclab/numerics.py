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
come from scipy's f2py extension ``scipy.linalg._flapack``, which the first
``sym_inverse`` call loads from its file alone, without the ``scipy.linalg``
package (85 modules, about 29 MiB and 0.25 s).  Eigen-damped and S-SGD runs
never invert and load no scipy at all.

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

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
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
def _lapack():
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, loaded from its
    file on first use without running the ``scipy`` or ``scipy.linalg``
    package code; a later ``import scipy.linalg`` reuses this module."""
    package = importlib.util.find_spec("scipy")  # without running its __init__
    stem = os.path.join(package.submodule_search_locations[0] if package else "scipy",
                        "linalg", "_flapack")
    path = next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if package and os.path.isfile(stem + suffix)), None)
    if path is None:
        raise ConfigError(f"hyper.inv_type = inverse needs scipy's LAPACK extension {stem}*: "
                          + ("no such file" if package else "scipy is not installed"))
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    if n == 0:  # potri rejects the leading dimension of an empty array
        return np.empty((0, 0))
    lapack = _lapack()
    # the transposed copy is Fortran-ordered, as LAPACK wants, and its upper
    # triangle is the lower triangle of m; both calls work on it in place
    chol, info = lapack.dpotrf(np.array(m, dtype=np.float64).T, lower=0, clean=0, overwrite_a=1)
    if info == 0:
        inv_t, info = lapack.dpotri(chol, lower=0, overwrite_c=1)
    if info != 0:
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
