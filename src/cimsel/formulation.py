"""Compilation of the selection problem into an unconstrained Ising instance.

The pipeline, in order:

1. ``squared_gains`` / ``qubo_matrix`` lift the received-power objective to a
   quadratic form ``b^T Q b`` over the 0/1 selection vector ``b`` (transmit
   bits first, then receive bits).
2. ``constraint_system`` builds the aggregate one-hot penalty: each antenna
   contributes ``(sum of its block of b - 1)^2``, which in matrix form is
   ``b^T R b - 2*1^T b + n_antennas`` with ``R`` block-diagonal all-ones.
3. ``qubo_to_spin`` substitutes ``b = (s + 1) / 2`` to reach spin variables,
   splitting each form into a quadratic part, a linear part and a constant.
4. ``augment_aux`` absorbs linear terms with one auxiliary spin at index 0,
   giving a purely quadratic form over ``d + 1`` spins.
5. ``normalize_couplings`` zeroes the diagonal and rescales to max-norm 1.
6. ``compile_instance`` blends the normalized objective and penalty matrices
   with a weight ``lam`` in [0, 1]; the solver then maximises
   ``s0^T J s0``.  ``decode_states`` maps spin vectors back to
   configuration assignments and flags the infeasible ones.

Constant terms dropped along the way are returned by the individual
transforms so tests can check exact equalities, but they are never stored in
the compiled instance (they do not affect the argmax).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .channel import ChannelMatrix, ConfigAssignment, MimoConfig

__all__ = [
    "ConstraintSystem",
    "IsingInstance",
    "InfeasibleDecode",
    "squared_gains",
    "qubo_matrix",
    "constraint_system",
    "constraint_violation",
    "qubo_to_spin",
    "augment_aux",
    "normalize_couplings",
    "objective_coupling",
    "constraint_coupling",
    "compile_instance",
    "decode_states",
    "decode_spins",
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


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Aggregate one-hot penalty over all antennas.

    ``r`` is block-diagonal with ``n_blocks`` all-ones blocks of size
    ``n_states``; every row sums to ``n_states``.
    """

    r: np.ndarray
    n_states: int
    n_blocks: int


@functools.lru_cache(maxsize=None)
def constraint_system(config: MimoConfig) -> ConstraintSystem:
    """Build the penalty matrix for ``config`` (cached; configs are tiny)."""
    n = config.n_states
    r = np.zeros((config.d, config.d))
    for k in range(config.n_antennas):
        r[k * n : (k + 1) * n, k * n : (k + 1) * n] = 1.0
    r.setflags(write=False)
    return ConstraintSystem(r=r, n_states=n, n_blocks=config.n_antennas)


def constraint_violation(b: np.ndarray, sys: ConstraintSystem) -> float:
    """Total one-hot violation ``sum_k (block_sum_k - 1)^2``.

    Zero exactly when ``b`` activates one state per antenna, i.e. encodes a
    valid :class:`ConfigAssignment`.  Equals the quadratic form
    ``b^T R b - 2*1^T b + n_blocks`` with the dropped constant restored.
    """
    b = _as_bits(b, sys.n_blocks * sys.n_states)
    block_sums = b.reshape(sys.n_blocks, sys.n_states).sum(axis=1)
    return float(np.sum((block_sums - 1.0) ** 2))


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
    ones = np.ones(d)
    s_mat = qlike / 4.0
    s_lin = qlike.T @ ones / 2.0 + linear / 2.0
    const = float(ones @ qlike @ ones / 4.0 + linear @ ones / 2.0)
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
    penalty weight used in the blend; ``config`` and ``channel_seed`` record
    provenance.
    """

    j: np.ndarray
    lam: float
    config: MimoConfig
    channel_seed: int

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


def objective_coupling(q: np.ndarray) -> np.ndarray:
    """Normalized aux-augmented spin form of the objective ``b^T q b``."""
    s_mat, s_lin, _ = qubo_to_spin(q, np.zeros(len(q)))
    return normalize_couplings(augment_aux(s_mat, s_lin))


def constraint_coupling(sys: ConstraintSystem) -> np.ndarray:
    """Normalized aux-augmented spin form of the aggregate one-hot penalty.

    Built from ``b^T R b - 2*1^T b``; the linear spin coefficients come out
    as ``n_states/2 - 1`` on every index.  Minimisers of
    ``s0^T (result) s0`` are exactly the gauge-paired encodings of feasible
    assignments.
    """
    d = len(sys.r)
    s_mat, s_lin, _ = qubo_to_spin(sys.r, -2.0 * np.ones(d))
    return normalize_couplings(augment_aux(s_mat, s_lin))


def compile_instance(g: ChannelMatrix, lam: float) -> IsingInstance:
    """Compile a channel into the blended Ising instance.

    ``lam`` in [0, 1] weights constraint satisfaction against objective
    resolution: the result is ``(1 - lam) * J_objective - lam * J_penalty``
    with both parts normalized, so maximising ``s0^T j s0`` trades received
    power against one-hot feasibility.  At ``lam = 0`` the instance is the
    pure objective; at ``lam = 1`` it is the pure (negated) penalty.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"penalty weight must lie in [0, 1], got {lam}")
    j_obj = objective_coupling(qubo_matrix(squared_gains(g)))
    j_con = constraint_coupling(constraint_system(g.config))
    j = (1.0 - lam) * j_obj - lam * j_con
    # the diagonal is zero by construction; IsingInstance rejects a non-zero
    # one with a ValueError, which unlike an assert survives python -O
    return IsingInstance(j=j, lam=lam, config=g.config, channel_seed=g.seed)


@dataclass(frozen=True, eq=False)
class InfeasibleDecode:
    """Decode result whose bits violate the one-hot constraints.

    Carries the raw bit vector for diagnostics; any fallback policy (for
    example random selection) is the caller's job.
    """

    bits: np.ndarray
    violation: float


def decode_states(spins: np.ndarray, config: MimoConfig) -> tuple[np.ndarray, np.ndarray]:
    """Decode spin rows: ``(feasible mask, per-antenna states)``.

    The auxiliary spin fixes the gauge: effective spins are
    ``s0[0] * s0[1:]``, so ``s0`` and ``-s0`` decode identically.  Bits are
    ``(spin + 1) / 2``; a row is feasible when every one-hot block holds
    exactly one set bit, and its states (transmit antennas first) are the
    positions of those bits.  States are only meaningful where the row is
    feasible.  Rows are not validated; :func:`decode_spins` is the checked
    one-row form.
    """
    shat = spins[:, 1:] * spins[:, :1]
    blocks = (shat > 0).reshape(len(spins), config.n_antennas, config.n_states)
    feasible = (blocks.sum(axis=2) == 1).all(axis=1)
    return feasible, blocks.argmax(axis=2)


def decode_spins(
    s0: np.ndarray, config: MimoConfig
) -> Union[ConfigAssignment, InfeasibleDecode]:
    """Map one solver spin vector back to a configuration assignment.

    Decodes through :func:`decode_states`; an infeasible vector comes back
    as an :class:`InfeasibleDecode` carrying its bits and violation.
    """
    s0 = np.asarray(s0)
    if s0.shape != (config.d + 1,):
        raise ValueError(f"spin vector has shape {s0.shape}, expected ({config.d + 1},)")
    if not np.all(np.abs(s0) == 1):
        raise ValueError("spins must be +1 or -1")
    feasible, states = decode_states(s0[None, :], config)
    if feasible[0]:
        return ConfigAssignment(tx=states[0, : config.n_t], rx=states[0, config.n_t :])
    bits = (s0[0] * s0[1:] > 0).astype(np.int64)
    violation = constraint_violation(bits, constraint_system(config))
    return InfeasibleDecode(bits=bits, violation=violation)


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
    with open(path, "w") as fh:
        json.dump(instance_to_json(inst), fh, indent=1)
        fh.write("\n")


def _as_bits(b, expected_len: int) -> np.ndarray:
    b = np.asarray(b)
    if b.shape != (expected_len,):
        raise ValueError(f"bit vector has shape {b.shape}, expected ({expected_len},)")
    if not np.all((b == 0) | (b == 1)):
        raise ValueError("bit vector entries must be 0 or 1")
    return b.astype(float)
