"""Classical selection baselines: exhaustive, norm-based, and random.

Exhaustive search is the optimum reference and scores every one of the
``n_states ** (n_t + n_r)`` assignments; it refuses to run above a budget.
Norm-based selection is the cheap two-stage heuristic (pick per-antenna row
norms on one side, then restricted column norms on the other) costing only
``n_states * (n_t + n_r)`` norm computations.  Random selection picks a
uniform state per antenna and computes nothing.  Every result reports its
objective through ``channel.objective``, so equal assignments carry
bit-identical objectives whichever method found them.

Every result carries the evaluation count actually performed so complexity
claims can be checked, not just quoted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, ConfigAssignment, MimoConfig, objective

__all__ = [
    "ES_BUDGET_DEFAULT",
    "BaselineResult",
    "BudgetExceededError",
    "search_space_size",
    "exhaustive_search",
    "nsa",
    "random_selection",
]

ES_BUDGET_DEFAULT = 2 ** 24

# cap on temporary objective blocks materialised by exhaustive search
_CHUNK_CELLS = 1 << 22


class BudgetExceededError(ValueError):
    """Exhaustive search refused: the combination count exceeds the budget."""


@dataclass(frozen=True)
class BaselineResult:
    assignment: ConfigAssignment
    objective: float
    evaluations: int


def search_space_size(config: MimoConfig) -> int:
    return config.n_states ** config.n_antennas


def _combo_states(flat: np.ndarray, n_states: int, n_antennas: int) -> np.ndarray:
    """Decode lexicographic combination indices to per-antenna states.

    The first antenna is the most significant digit, so increasing flat
    index walks the tuples in lexicographic order.
    """
    out = np.empty((len(flat), n_antennas), dtype=np.int64)
    rem = np.asarray(flat, dtype=np.int64).copy()
    for a in range(n_antennas - 1, -1, -1):
        out[:, a] = rem % n_states
        rem //= n_states
    return out


def exhaustive_search(g: ChannelMatrix, budget: int = ES_BUDGET_DEFAULT) -> BaselineResult:
    """Globally optimal assignment by brute force over all combinations.

    Ties are broken toward the lexicographically smallest ``(tx, rx)``
    tuple.  Raises :class:`BudgetExceededError` (naming the count) instead
    of attempting an enumeration larger than ``budget``.
    """
    cfg = g.config
    count = search_space_size(cfg)
    if count > budget:
        raise BudgetExceededError(
            f"exhaustive search needs {count} objective evaluations, over the budget of {budget}"
        )
    n = cfg.n_states
    a2 = np.abs(g.entries) ** 2
    n_tx = n ** cfg.n_t
    n_rx = n ** cfg.n_r
    rx_combos = _combo_states(np.arange(n_rx), n, cfg.n_r)
    rx_rows = rx_combos + np.arange(cfg.n_r) * n  # flat row indices per rx combo
    # partial sums over the selected rows, one vector per rx combination
    row_sums = a2[rx_rows].sum(axis=1)  # (n_rx, cols)

    best_val = -np.inf
    best_flat = -1
    chunk = max(1, _CHUNK_CELLS // n_rx)
    for start in range(0, n_tx, chunk):
        tx_states = _combo_states(np.arange(start, min(start + chunk, n_tx)), n, cfg.n_t)
        cols = tx_states + np.arange(cfg.n_t) * n
        # objective for every (tx, rx) pair in the chunk, tx-major layout
        vals = row_sums[:, cols].sum(axis=2).T  # (c, n_rx)
        idx = int(np.argmax(vals))
        if vals.flat[idx] > best_val:
            best_val = float(vals.flat[idx])
            best_flat = (start + idx // n_rx) * n_rx + idx % n_rx
    tx = _combo_states(np.array([best_flat // n_rx]), n, cfg.n_t)[0]
    rx = rx_combos[best_flat % n_rx]
    sel = ConfigAssignment(tx=tuple(tx), rx=tuple(rx))
    # the factored sums rank the combinations; the reported objective comes
    # from the shared scorer, whose summation order can differ in the last ulp
    return BaselineResult(assignment=sel, objective=objective(g, sel), evaluations=count)


def nsa(g: ChannelMatrix, receiver_first: bool = True) -> BaselineResult:
    """Norm-based selection.

    With ``receiver_first`` (the default) each receive antenna picks the
    configuration with the largest full row norm, then each transmit
    antenna picks the configuration with the largest column norm restricted
    to the selected rows.  ``receiver_first=False`` mirrors the two stages.
    Ties go to the smallest configuration index.  Performs exactly
    ``n_states * (n_t + n_r)`` norm computations.
    """
    cfg = g.config
    n = cfg.n_states
    a2 = np.abs(g.entries) ** 2
    if receiver_first:
        row_norms = a2.sum(axis=1)  # squared row norms; argmax unaffected
        rx = tuple(int(np.argmax(row_norms[r * n : (r + 1) * n])) for r in range(cfg.n_r))
        sel_rows = [r * n + c for r, c in enumerate(rx)]
        col_norms = a2[sel_rows, :].sum(axis=0)
        tx = tuple(int(np.argmax(col_norms[t * n : (t + 1) * n])) for t in range(cfg.n_t))
    else:
        col_norms = a2.sum(axis=0)
        tx = tuple(int(np.argmax(col_norms[t * n : (t + 1) * n])) for t in range(cfg.n_t))
        sel_cols = [t * n + c for t, c in enumerate(tx)]
        row_norms = a2[:, sel_cols].sum(axis=1)
        rx = tuple(int(np.argmax(row_norms[r * n : (r + 1) * n])) for r in range(cfg.n_r))
    sel = ConfigAssignment(tx=tx, rx=rx)
    return BaselineResult(
        assignment=sel,
        objective=objective(g, sel),
        evaluations=n * cfg.n_antennas,
    )


def random_selection(g: ChannelMatrix, rng: np.random.Generator) -> BaselineResult:
    """Uniform random configuration per antenna; zero evaluations.

    Picking the assignment evaluates nothing; the reported objective is
    scored afterwards, like every other method's.
    """
    cfg = g.config
    tx = tuple(int(c) for c in rng.integers(0, cfg.n_states, cfg.n_t))
    rx = tuple(int(c) for c in rng.integers(0, cfg.n_states, cfg.n_r))
    sel = ConfigAssignment(tx=tx, rx=rx)
    return BaselineResult(assignment=sel, objective=objective(g, sel), evaluations=0)
