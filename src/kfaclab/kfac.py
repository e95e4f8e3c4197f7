"""Kronecker-factored curvature: factor estimation, damping, preconditioning.

Per layer, the curvature is approximated by the Kronecker product of two
second-moment factors: ``A`` of the layer inputs and ``G`` of the per-sample
pre-activation gradients.  Preconditioning a gradient of shape
``dim(G) x dim(A)`` then reduces to two-sided small-matrix products.

Two damping schemes are supported:

* ``inverse``: the damping is split between the factors with a
  trace-balancing scalar pi, each damped factor is inverted via Cholesky,
  and the preconditioned gradient is ``G_inv @ grad @ A_inv``.  This is an
  approximation of the damped curvature inverse (exact only at zero
  damping).
* ``eigen``: both factors are diagonalized once; damping is applied
  elementwise to the eigenvalue outer product.  This is algebraically exact
  for the damped Kronecker curvature, which :func:`exact_precondition_oracle`
  checks by brute force.

Factor refresh and inverse/eigen recompute run on independent intervals
(``f_freq`` / ``k_freq``); between refreshes the stale results are reused
verbatim.  Iteration 0 always performs both, so a preconditioner exists
before the first update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ArgumentError, NumericError, OrderingError, ShapeError
from .numerics import EigenPair, kron, sym_eig, sym_inverse, unvec, vec

INV_TYPES = ("inverse", "eigen")


@dataclass
class FactorState:
    """Per-layer curvature state: averaged factors, their decompositions, and
    staleness bookkeeping."""

    a_cov: Optional[np.ndarray] = None
    g_cov: Optional[np.ndarray] = None
    a_eig: Optional[EigenPair] = None
    g_eig: Optional[EigenPair] = None
    a_damped_inv: Optional[np.ndarray] = None
    g_damped_inv: Optional[np.ndarray] = None
    last_factor_update: int = -1
    last_inverse_update: int = -1
    initialized: bool = False


@dataclass(frozen=True)
class KfacHyper:
    """Preconditioner knobs: damping, running-average weight, damping scheme,
    and the two staleness intervals."""

    gamma: float = 0.03
    xi: float = 0.95
    inv_type: str = "eigen"
    f_freq: int = 1
    k_freq: int = 1

    def __post_init__(self):
        if self.gamma < 0:
            raise ArgumentError("damping gamma must be >= 0")
        if not (0.0 < self.xi <= 1.0):
            raise ArgumentError("running-average weight xi must lie in (0, 1]")
        if self.inv_type not in INV_TYPES:
            raise ArgumentError(f"inv_type must be one of {INV_TYPES}")
        if self.f_freq < 1 or self.k_freq < 1:
            raise ArgumentError("f_freq and k_freq must be >= 1")


def is_factor_update(t: int, hyper: KfacHyper) -> bool:
    return t % hyper.f_freq == 0


def is_inverse_update(t: int, hyper: KfacHyper) -> bool:
    return t % hyper.k_freq == 0


def _second_moment(x: np.ndarray, batch: int) -> np.ndarray:
    x = np.ascontiguousarray(x)
    m = x @ x.T
    m /= batch
    return m


def compute_factors(
    captured_inputs: np.ndarray, captured_preact_grads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batch second moments ``A = mean(a a^T)`` and ``G = mean(g g^T)``.

    Columns are samples; both captures must hold the same number of them.
    Outputs are exactly symmetric for every capture layout: each capture is
    first made C-contiguous (a no-op for most of the model's own captures),
    so ``x @ x.T`` reads one buffer through its transpose and numpy computes
    it as a symmetric rank-k product, one triangle mirrored to the other.
    For C-order, column-slice and F-order captures the result equals the
    explicit symmetrization ``(m + m.T) / 2`` bit for bit.
    """
    for name, arr in (("inputs", captured_inputs), ("gradients", captured_preact_grads)):
        if arr is None or arr.ndim != 2 or arr.shape[1] == 0:
            raise ArgumentError(f"captured {name} must be a nonempty d x B matrix")
    batch = captured_inputs.shape[1]
    if captured_preact_grads.shape[1] != batch:
        raise ArgumentError(
            f"capture batch counts differ: {batch} inputs vs "
            f"{captured_preact_grads.shape[1]} gradients"
        )
    return _second_moment(captured_inputs, batch), _second_moment(captured_preact_grads, batch)


def update_running_average(
    state: FactorState, a_new: np.ndarray, g_new: np.ndarray, xi: float, t: int
) -> FactorState:
    """Fold fresh factors into the running averages, new term weighted by xi.

    The very first update assigns instead of blending; averaging against the
    nonexistent zero state would shrink early curvature estimates.
    """
    if not state.initialized:
        state.a_cov = a_new.copy()
        state.g_cov = g_new.copy()
        state.initialized = True
    else:
        if state.a_cov.shape != a_new.shape or state.g_cov.shape != g_new.shape:
            raise ShapeError("factor shapes changed between running-average updates")
        state.a_cov = xi * a_new + (1.0 - xi) * state.a_cov
        state.g_cov = xi * g_new + (1.0 - xi) * state.g_cov
    state.last_factor_update = t
    return state


def pi_scalar(a_cov: np.ndarray, g_cov: np.ndarray) -> float:
    """Trace-balancing constant splitting the damping between the factors:
    sqrt of the ratio of the factors' mean diagonal mass."""
    tr_a = float(np.trace(a_cov))
    tr_g = float(np.trace(g_cov))
    if tr_a <= 0 or tr_g <= 0:
        raise NumericError(
            f"degenerate factor: traces must be positive, got Tr(A)={tr_a}, Tr(G)={tr_g}"
        )
    return float(np.sqrt((tr_a / a_cov.shape[0]) / (tr_g / g_cov.shape[0])))


def damped_inverses(
    a_cov: np.ndarray, g_cov: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky inverses of the pi-split damped factors
    ``(A + pi*sqrt(gamma) I, G + sqrt(gamma)/pi I)``."""
    pi = pi_scalar(a_cov, g_cov)
    root = np.sqrt(gamma)
    try:
        a_inv = sym_inverse(a_cov + pi * root * np.eye(a_cov.shape[0]))
    except NumericError as exc:
        raise NumericError(f"damped input factor A is not invertible: {exc}") from exc
    try:
        g_inv = sym_inverse(g_cov + (root / pi) * np.eye(g_cov.shape[0]))
    except NumericError as exc:
        raise NumericError(f"damped gradient factor G is not invertible: {exc}") from exc
    return a_inv, g_inv


def _check_grad_shape(grad: np.ndarray, dim_g: int, dim_a: int):
    if grad.shape != (dim_g, dim_a):
        raise ShapeError(
            f"gradient shape {grad.shape} does not match factor dims ({dim_g}, {dim_a})"
        )


def precondition_inverse(
    a_cov: np.ndarray, g_cov: np.ndarray, grad: np.ndarray, gamma: float
) -> np.ndarray:
    """Matrix-inversion damping: ``(G + sqrt(gamma)/pi I)^-1 grad (A + pi sqrt(gamma) I)^-1``."""
    _check_grad_shape(grad, g_cov.shape[0], a_cov.shape[0])
    a_inv, g_inv = damped_inverses(a_cov, g_cov, gamma)
    return g_inv @ grad @ a_inv


def precondition_eigen(
    a_eig: EigenPair, g_eig: EigenPair, grad: np.ndarray, gamma: float
) -> np.ndarray:
    """Eigen-decomposition damping: rotate into the factor eigenbases, divide
    elementwise by the (clamped) eigenvalue outer product plus gamma, rotate
    back.  Exact for the damped Kronecker curvature."""
    _check_grad_shape(grad, g_eig.q.shape[0], a_eig.q.shape[0])
    # negative rounding noise in the spectra would poison the denominators
    v_a = np.maximum(a_eig.values, 0.0)
    v_g = np.maximum(g_eig.values, 0.0)
    denom = np.outer(v_g, v_a) + gamma
    if denom.min() <= 0.0:
        raise NumericError(
            f"eigen damping denominator is not positive (min {denom.min()}); "
            "use gamma > 0 or nonsingular factors"
        )
    rotated = g_eig.q.T @ grad @ a_eig.q
    return g_eig.q @ (rotated / denom) @ a_eig.q.T


def exact_precondition_oracle(
    a_cov: np.ndarray, g_cov: np.ndarray, grad: np.ndarray, gamma: float
) -> np.ndarray:
    """Brute-force reference: dense solve of ``(A kron G + gamma I) x = vec(grad)``.

    Small layers only (the kron element cap applies).
    """
    dim_g, dim_a = g_cov.shape[0], a_cov.shape[0]
    _check_grad_shape(grad, dim_g, dim_a)
    full = kron(a_cov, g_cov)
    x = np.linalg.solve(full + gamma * np.eye(full.shape[0]), vec(grad))
    return unvec(x, dim_g, dim_a)


def factored_precondition_oracle(
    a_cov: np.ndarray, g_cov: np.ndarray, grad: np.ndarray, gamma: float
) -> np.ndarray:
    """Dense solve against the pi-split FACTORED damped curvature
    ``(A + pi sqrt(gamma) I) kron (G + sqrt(gamma)/pi I)``; the reference
    for :func:`precondition_inverse`."""
    dim_g, dim_a = g_cov.shape[0], a_cov.shape[0]
    _check_grad_shape(grad, dim_g, dim_a)
    pi = pi_scalar(a_cov, g_cov)
    root = np.sqrt(gamma)
    a_damped = a_cov + pi * root * np.eye(dim_a)
    g_damped = g_cov + (root / pi) * np.eye(dim_g)
    full = kron(a_damped, g_damped)
    return unvec(np.linalg.solve(full, vec(grad)), dim_g, dim_a)


def refresh_inverses(state: FactorState, hyper: KfacHyper, t: int) -> FactorState:
    """Recompute the damping-scheme state (eigendecompositions or damped
    inverses) from the current averaged factors."""
    if not state.initialized:
        raise OrderingError("cannot build a preconditioner before any factor update")
    if hyper.inv_type == "eigen":
        state.a_eig = sym_eig(state.a_cov)
        state.g_eig = sym_eig(state.g_cov)
        state.a_damped_inv = None
        state.g_damped_inv = None
    else:
        state.a_damped_inv, state.g_damped_inv = damped_inverses(
            state.a_cov, state.g_cov, hyper.gamma
        )
        state.a_eig = None
        state.g_eig = None
    state.last_inverse_update = t
    return state


def apply_preconditioner(state: FactorState, grad: np.ndarray, hyper: KfacHyper) -> np.ndarray:
    """Precondition with whatever decomposition the state currently holds
    (stale results are reused verbatim)."""
    if hyper.inv_type == "eigen":
        if state.a_eig is None or state.g_eig is None:
            raise OrderingError("preconditioning requested before any eigendecomposition exists")
        return precondition_eigen(state.a_eig, state.g_eig, grad, hyper.gamma)
    if state.a_damped_inv is None or state.g_damped_inv is None:
        raise OrderingError("preconditioning requested before any damped inverse exists")
    _check_grad_shape(grad, state.g_damped_inv.shape[0], state.a_damped_inv.shape[0])
    return state.g_damped_inv @ grad @ state.a_damped_inv


def kfac_layer_step(
    state: FactorState,
    captured_inputs: Optional[np.ndarray],
    captured_preact_grads: Optional[np.ndarray],
    grad: np.ndarray,
    hyper: KfacHyper,
    t: int,
) -> tuple[np.ndarray, FactorState]:
    """One layer's preconditioning step at iteration ``t``.

    Refreshes factors when ``t`` hits ``f_freq``, decompositions when it hits
    ``k_freq``, and always preconditions ``grad`` with the newest available
    decomposition.
    """
    if is_factor_update(t, hyper):
        a_new, g_new = compute_factors(captured_inputs, captured_preact_grads)
        update_running_average(state, a_new, g_new, hyper.xi, t)
    if is_inverse_update(t, hyper):
        refresh_inverses(state, hyper, t)
    return apply_preconditioner(state, grad, hyper), state
