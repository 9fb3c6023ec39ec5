"""Compilation of the selection problem into an unconstrained Ising instance.

The pipeline, in order:

1. ``squared_gains`` / ``qubo_matrix`` lift the received-power objective to a
   quadratic form ``b^T Q b`` over the 0/1 selection vector ``b`` (transmit
   bits first, then receive bits).
2. ``constraint_matrix`` builds the aggregate one-hot penalty from the
   config's antenna blocks: each antenna contributes
   ``(sum of its block of b - 1)^2``, which in matrix form is
   ``b^T R b - 2*1^T b + n_antennas`` with ``R`` block-diagonal all-ones.
3. ``qubo_to_spin`` substitutes ``b = (s + 1) / 2`` to reach spin variables,
   splitting each form into a quadratic part, a linear part and a constant.
4. ``augment_aux`` absorbs linear terms with one auxiliary spin at index 0,
   giving a purely quadratic form over ``d + 1`` spins.
5. ``normalize_couplings`` zeroes the diagonal and rescales to max-norm 1.
6. ``compile_instance`` blends the normalized objective and penalty matrices
   (``coupling_parts``, which a caller compiling several weights builds once)
   with a weight ``lam`` in [0, 1]; the solver then maximises
   ``s0^T J s0``.  ``decode_states`` maps spin vectors back to
   configuration assignments and flags the infeasible ones.

Constant terms dropped along the way are returned by the individual
transforms so tests can check exact equalities, but they are never stored in
the compiled instance (they do not affect the argmax).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._checks import real
from ._files import write_json
from .channel import ChannelMatrix, MimoConfig

__all__ = [
    "IsingInstance",
    "IsingBatch",
    "squared_gains",
    "qubo_matrix",
    "constraint_matrix",
    "qubo_to_spin",
    "augment_aux",
    "normalize_couplings",
    "objective_coupling",
    "constraint_coupling",
    "coupling_parts",
    "compile_instance",
    "decode_states",
    "instance_to_json",
    "write_instance",
]

# |entries| <= 1 must hold after normalisation; allow a few ulp of slack for
# the blended matrix.
_UNIT_TOL = 1e-12


def squared_gains(g: ChannelMatrix) -> np.ndarray:
    """Table of squared channel amplitudes, shape ``(cols, rows)``.

    Entry ``[j, i]`` is ``|g.entries[i, j]|**2``: transmit-side flat index
    first, which is the orientation the quadratic form below expects.
    """
    return np.abs(g.entries.T) ** 2


def qubo_matrix(t: np.ndarray) -> np.ndarray:
    """Symmetric zero-diagonal coupling for the objective ``b^T Q b``.

    Block layout ``[[0, t/2], [t.T/2, 0]]`` so that with ``b = [x; y]``
    (transmit bits then receive bits) the form evaluates to
    ``x^T t y = sum of selected squared gains``.
    """
    n_tx, n_rx = t.shape
    d = n_tx + n_rx
    q = np.zeros((d, d))
    q[:n_tx, n_tx:] = t / 2.0
    q[n_tx:, :n_tx] = t.T / 2.0
    return q


@functools.lru_cache(maxsize=None)
def constraint_matrix(config: MimoConfig) -> np.ndarray:
    """Read-only penalty matrix ``R`` of ``config`` (cached; configs are tiny).

    Block-diagonal with one all-ones ``n_states`` block per antenna; every
    row sums to ``n_states``.
    """
    r = np.kron(np.eye(config.n_antennas), np.ones((config.n_states, config.n_states)))
    r.setflags(write=False)
    return r


def qubo_to_spin(qlike: np.ndarray, linear: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Rewrite ``b^T qlike b + linear^T b`` over spins ``s = 2b - 1``.

    Returns ``(s_mat, s_lin, const)`` with
    ``b^T qlike b + linear^T b == s^T s_mat s + s_lin^T s + const``
    for every spin vector; ``qlike`` must be symmetric.
    """
    qlike = np.asarray(qlike, dtype=float)
    linear = np.asarray(linear, dtype=float)
    d = len(linear)
    if qlike.shape != (d, d):
        raise ValueError(f"quadratic part has shape {qlike.shape}, linear has length {d}")
    s_mat = qlike / 4.0
    s_lin = qlike.sum(axis=0) / 2.0 + linear / 2.0
    const = float(qlike.sum() / 4.0 + linear.sum() / 2.0)
    return s_mat, s_lin, const


def augment_aux(s_mat: np.ndarray, s_lin: np.ndarray) -> np.ndarray:
    """Absorb linear spin terms with an auxiliary spin at index 0.

    The result ``m`` satisfies ``s0^T m s0 == s^T s_mat s + s_a * s_lin^T s``
    for ``s0 = [s_a, s]``, so at ``s_a = +1`` the original form is recovered
    and a global flip of ``s0`` leaves the value unchanged.
    """
    d = len(s_lin)
    if s_mat.shape != (d, d):
        raise ValueError(f"quadratic part has shape {s_mat.shape}, linear has length {d}")
    m = np.zeros((d + 1, d + 1))
    m[1:, 1:] = s_mat
    m[0, 1:] = s_lin / 2.0
    m[1:, 0] = s_lin / 2.0
    return m


def normalize_couplings(m: np.ndarray) -> np.ndarray:
    """Zero the diagonal and rescale so the largest |entry| is 1.

    The diagonal only contributes a constant over spin vectors and positive
    scaling preserves the argmax, so optima are unchanged.  An identically
    zero off-diagonal part is returned as-is (no division).
    """
    z = np.array(m, dtype=float, copy=True)
    np.fill_diagonal(z, 0.0)
    scale = np.max(np.abs(z)) if z.size else 0.0
    if scale == 0.0:
        return z
    return z / scale


@dataclass(frozen=True, eq=False)
class IsingInstance:
    """Compiled coupling matrix over ``d + 1`` spins (index 0 = auxiliary).

    The solver's task is to maximise ``s0^T j s0``.  ``lam`` records the
    penalty weight used in the blend and ``config`` the problem dimensions.
    """

    j: np.ndarray
    lam: float
    config: MimoConfig

    def __post_init__(self):
        j = self.j
        if j.shape != (self.dim, self.dim):
            raise ValueError(f"coupling matrix has shape {j.shape}, expected {(self.dim, self.dim)}")
        if not np.array_equal(j, j.T):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diagonal(j) != 0.0):
            raise ValueError("coupling matrix must have a zero diagonal")
        if np.max(np.abs(j), initial=0.0) > 1.0 + _UNIT_TOL:
            raise ValueError("coupling entries must lie in [-1, 1]")

    @property
    def dim(self) -> int:
        return self.config.d + 1


@dataclass(frozen=True, eq=False)
class IsingBatch:
    """Compiled instances of one configuration that one solve runs as one
    batch of anneals: ``j`` stacks their coupling matrices,
    ``(n_instances, dim, dim)``, and each takes its own consecutive rows of
    the batch, in order."""

    j: np.ndarray
    config: MimoConfig

    @property
    def dim(self) -> int:
        return self.config.d + 1


def objective_coupling(q: np.ndarray) -> np.ndarray:
    """Normalized aux-augmented spin form of the objective ``b^T q b``."""
    s_mat, s_lin, _ = qubo_to_spin(q, np.zeros(len(q)))
    return normalize_couplings(augment_aux(s_mat, s_lin))


def constraint_coupling(r: np.ndarray) -> np.ndarray:
    """Normalized aux-augmented spin form of the aggregate one-hot penalty.

    Built from ``b^T r b - 2*1^T b``; the linear spin coefficients come out
    as ``n_states/2 - 1`` on every index.  Minimisers of
    ``s0^T (result) s0`` are exactly the gauge-paired encodings of feasible
    assignments.
    """
    s_mat, s_lin, _ = qubo_to_spin(r, -2.0 * np.ones(len(r)))
    return normalize_couplings(augment_aux(s_mat, s_lin))


def coupling_parts(g: ChannelMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The normalized objective and penalty couplings ``(J_objective,
    J_penalty)`` of a channel, which every penalty weight only blends."""
    return (objective_coupling(qubo_matrix(squared_gains(g))),
            constraint_coupling(constraint_matrix(g.config)))


def compile_instance(g: ChannelMatrix, lam: float,
                     parts: tuple[np.ndarray, np.ndarray] | None = None) -> IsingInstance:
    """Compile a channel into the blended Ising instance.

    ``lam`` in [0, 1] weights constraint satisfaction against objective
    resolution: the result is ``(1 - lam) * J_objective - lam * J_penalty``
    with both parts normalized, so maximising ``s0^T j s0`` trades received
    power against one-hot feasibility.  At ``lam = 0`` the instance is the
    pure objective; at ``lam = 1`` it is the pure (negated) penalty.  A
    caller compiling several weights passes ``coupling_parts(g)`` as
    ``parts`` and builds them once.
    """
    lam = real("lam", lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"penalty weight must lie in [0, 1], got {lam}")
    j_obj, j_con = coupling_parts(g) if parts is None else parts
    j = (1.0 - lam) * j_obj - lam * j_con
    # the diagonal is zero by construction; IsingInstance rejects a non-zero
    # one with a ValueError, which unlike an assert survives python -O
    return IsingInstance(j=j, lam=lam, config=g.config)


def decode_states(spins: np.ndarray, config: MimoConfig) -> tuple[np.ndarray, np.ndarray]:
    """Decode spin rows: ``(feasible mask, per-antenna states)``.

    The auxiliary spin fixes the gauge: effective spins are
    ``s0[0] * s0[1:]``, so ``s0`` and ``-s0`` decode identically.  Bits are
    ``(spin + 1) / 2``; a row is feasible when every one-hot block holds
    exactly one set bit, and its states (transmit antennas first) are the
    positions of those bits.  States are only meaningful where the row is
    feasible.  Rows are not validated.
    """
    shat = spins[:, 1:] * spins[:, :1]
    blocks = (shat > 0).reshape(len(spins), config.n_antennas, config.n_states)
    feasible = (blocks.sum(axis=2) == 1).all(axis=1)
    return feasible, blocks.argmax(axis=2)


def instance_to_json(inst: IsingInstance) -> dict:
    """Interchange form of a compiled instance for external Ising solvers.

    Schema: ``{"dim", "lambda", "j"}`` where ``j`` is the row-major upper
    triangle of the coupling matrix including the (all-zero) diagonal,
    ``dim * (dim + 1) / 2`` numbers.
    """
    iu = np.triu_indices(inst.dim)
    return {
        "dim": inst.dim,
        "lambda": inst.lam,
        "j": [float(v) for v in inst.j[iu]],
    }


def write_instance(inst: IsingInstance, path) -> None:
    write_json(path, instance_to_json(inst))

