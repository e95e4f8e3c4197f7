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

from .errors import (ArgumentError, NumericError, OrderingError, ShapeError, at_least,
                     check_fields, one_of)
from .numerics import EigenPair, divide_in_place, kron, sym_eig, sym_inverse, unvec, vec

# the arrays each damping scheme's refresh leaves, named as in decomposition_arrays
DECOMPOSITION_NAMES = {"inverse": ("a_damped_inv", "g_damped_inv"),
                       "eigen": ("a_eig_q", "a_eig_v", "g_eig_q", "g_eig_v")}
INV_TYPES = tuple(DECOMPOSITION_NAMES)


@dataclass
class FactorState:
    """Per-layer curvature state: averaged factors, their decompositions, and
    staleness bookkeeping.  :func:`state_problems` says which states are legal."""

    a_cov: Optional[np.ndarray] = None
    g_cov: Optional[np.ndarray] = None
    a_eig: Optional[EigenPair] = None
    g_eig: Optional[EigenPair] = None
    a_damped_inv: Optional[np.ndarray] = None
    g_damped_inv: Optional[np.ndarray] = None
    last_factor_update: int = -1
    last_inverse_update: int = -1

    @property
    def initialized(self) -> bool:
        """A factor update has run; checkpoints still store it as a flag."""
        return self.last_factor_update >= 0


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
        # each message starts with its field's name, as the run config's keys do
        check_fields(vars(self), {
            "gamma": ((lambda v: 0.0 <= v < np.inf), "finite and >= 0"),
            "xi": ((lambda v: 0.0 < v <= 1.0), "in (0, 1]"),
            "inv_type": one_of(INV_TYPES), "f_freq": at_least(1), "k_freq": at_least(1)})


def is_factor_update(t: int, hyper: KfacHyper) -> bool:
    return t % hyper.f_freq == 0


def is_inverse_update(t: int, hyper: KfacHyper) -> bool:
    return t % hyper.k_freq == 0


def _second_moment(x: np.ndarray, batch: int) -> np.ndarray:
    x = np.ascontiguousarray(x)
    return divide_in_place(x @ x.T, batch)


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

    The very first update assigns a copy instead of blending; averaging
    against the nonexistent zero state would shrink early curvature
    estimates.  Later updates fold in place into the state's own arrays,
    ``cov *= 1 - xi; cov += xi * new``: the same bits as
    ``xi * new + (1 - xi) * cov``, since IEEE addition and multiplication
    commute.  The state must therefore own its arrays.
    """
    if not state.initialized:
        state.a_cov = a_new.copy()
        state.g_cov = g_new.copy()
    else:
        if state.a_cov.shape != a_new.shape or state.g_cov.shape != g_new.shape:
            raise ShapeError("factor shapes changed between running-average updates")
        for cov, new in ((state.a_cov, a_new), (state.g_cov, g_new)):
            cov *= 1.0 - xi
            cov += xi * new
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


def _plus_diagonal(m: np.ndarray, shift: float) -> np.ndarray:
    """``m + shift * I`` as one copy of ``m`` with ``shift`` added to its
    diagonal in place: the same bits as the dense sum, without materializing
    the identity (an off-diagonal -0.0 stays -0.0, where the sum gives 0.0)."""
    out = np.array(m, dtype=np.float64, order="C")
    out.reshape(-1)[:: out.shape[0] + 1] += shift
    return out


def damped_inverses(
    a_cov: np.ndarray, g_cov: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky inverses of the pi-split damped factors
    ``(A + pi*sqrt(gamma) I, G + sqrt(gamma)/pi I)``."""
    pi = pi_scalar(a_cov, g_cov)
    root = np.sqrt(gamma)
    try:
        a_inv = sym_inverse(_plus_diagonal(a_cov, pi * root))
    except NumericError as exc:
        raise NumericError(f"damped input factor A is not invertible: {exc}") from exc
    try:
        g_inv = sym_inverse(_plus_diagonal(g_cov, root / pi))
    except NumericError as exc:
        raise NumericError(f"damped gradient factor G is not invertible: {exc}") from exc
    return a_inv, g_inv


def _check_grad_shape(grad: np.ndarray, dim_g: int, dim_a: int):
    if grad.shape != (dim_g, dim_a):
        raise ShapeError(
            f"gradient shape {grad.shape} does not match factor dims ({dim_g}, {dim_a})"
        )


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
    for ``inverse`` damping (:func:`damped_inverses`, then the step's
    :func:`apply_preconditioner`)."""
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
    inverses) from the current averaged factors.  The guard is this
    operation's precondition, which :func:`state_problems` cannot state (a
    fresh state is legal).  That rule costs 14-16 us a call on a 65-wide eigen
    state: four calls are about 3% of a 1.9-2.4 ms blobs_p4 dp_kfac step."""
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


def state_arrays(state: FactorState) -> dict[str, np.ndarray]:
    """Every array a state holds, by checkpoint name: the averaged factors
    ``a_cov`` and ``g_cov``, and of the decompositions ``{a,g}_eig_q`` and
    ``{a,g}_eig_v`` (eigenbases and eigenvalues) and ``{a,g}_damped_inv``,
    ``a`` for the input factor and ``g`` for the gradient factor."""
    held = {"a_cov": state.a_cov, "g_cov": state.g_cov,
            "a_damped_inv": state.a_damped_inv, "g_damped_inv": state.g_damped_inv}
    for side, pair in (("a", state.a_eig), ("g", state.g_eig)):
        if pair is not None:
            held.update({f"{side}_eig_q": pair.q, f"{side}_eig_v": pair.values})
    return {name: arr for name, arr in held.items() if arr is not None}


def decomposition_arrays(state: FactorState) -> dict[str, np.ndarray]:
    """The decompositions' arrays of :func:`state_arrays`.  A refresh leaves
    those of its ``inv_type`` only."""
    return {name: arr for name, arr in state_arrays(state).items() if not name.endswith("_cov")}


def load_arrays(state: FactorState, arrays: dict[str, np.ndarray]):
    """Set every array of a state from ``arrays``, named as in :func:`state_arrays`
    (an absent name empties its slot); :func:`state_problems` judges the result."""
    for name in ("a_cov", "g_cov", "a_damped_inv", "g_damped_inv"):
        setattr(state, name, arrays.get(name))
    for side in "ag":
        q, v = arrays.get(f"{side}_eig_q"), arrays.get(f"{side}_eig_v")
        setattr(state, f"{side}_eig", None if q is None and v is None else EigenPair(q, v))


def state_problems(state: FactorState, inv_type: str, d_in: int, d_out: int) -> list[str]:
    """Why no run of ``inv_type`` on a ``d_out x d_in`` layer reaches
    ``state``; empty for a legal state.  In a legal state a refresh follows
    a factor update, the averaged factors exist exactly when a factor update
    has run, the decomposition of ``inv_type`` and no other exists exactly
    when a refresh has run, and every array has the layer's shape."""
    f, k = state.last_factor_update, state.last_inverse_update
    stamps = f"last_factor_update = {f}, last_inverse_update = {k}"
    if k >= 0 > f:
        return [f"a refresh needs a factor update first, but {stamps}"]
    held = state_arrays(state)
    # a_* arrays are d_in wide, g_* d_out; *_v are eigenvalue vectors
    needed = {n: (d_in if n[0] == "a" else d_out,) * (1 if n.endswith("_v") else 2)
              for n in ("a_cov", "g_cov") * (f >= 0) + DECOMPOSITION_NAMES[inv_type] * (k >= 0)}
    return ([f"{n} is missing from a state with {stamps}" for n in needed if n not in held]
            + [f"{n} is not part of a state with {stamps}" for n in held if n not in needed]
            + [f"{n} is of shape {held[n].shape}; the layer needs {shape}"
               for n, shape in needed.items() if n in held and held[n].shape != shape])


def apply_preconditioner(state: FactorState, grad: np.ndarray, hyper: KfacHyper) -> np.ndarray:
    """Precondition with whatever decomposition the state currently holds
    (stale results are reused verbatim).  Guarded as :func:`refresh_inverses` is."""
    if hyper.inv_type == "eigen":
        if state.a_eig is None or state.g_eig is None:
            raise OrderingError("preconditioning requested before any eigendecomposition exists")
        return precondition_eigen(state.a_eig, state.g_eig, grad, hyper.gamma)
    if state.a_damped_inv is None or state.g_damped_inv is None:
        raise OrderingError("preconditioning requested before any damped inverse exists")
    _check_grad_shape(grad, state.g_damped_inv.shape[0], state.a_damped_inv.shape[0])
    return state.g_damped_inv @ grad @ state.a_damped_inv
