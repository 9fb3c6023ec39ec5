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
    # combination index -> per-antenna states, first antenna most significant,
    # so increasing index walks the tuples in lexicographic order
    rx_combos = np.stack(np.unravel_index(np.arange(n_rx), (n,) * cfg.n_r), axis=1)
    rx_rows = rx_combos + np.arange(cfg.n_r) * n  # flat row indices per rx combo
    # partial sums over the selected rows, one vector per rx combination
    row_sums = a2[rx_rows].sum(axis=1)  # (n_rx, cols)

    best_val = -np.inf
    best_flat = -1
    chunk = max(1, _CHUNK_CELLS // n_rx)
    for start in range(0, n_tx, chunk):
        flat = np.arange(start, min(start + chunk, n_tx))
        tx_states = np.stack(np.unravel_index(flat, (n,) * cfg.n_t), axis=1)
        cols = tx_states + np.arange(cfg.n_t) * n
        # objective for every (tx, rx) pair in the chunk, tx-major layout
        vals = row_sums[:, cols].sum(axis=2).T  # (c, n_rx)
        idx = int(np.argmax(vals))
        if vals.flat[idx] > best_val:
            best_val = float(vals.flat[idx])
            best_flat = (start + idx // n_rx) * n_rx + idx % n_rx
    tx = np.unravel_index(best_flat // n_rx, (n,) * cfg.n_t)
    sel = ConfigAssignment(tx=tx, rx=rx_combos[best_flat % n_rx])
    # the factored sums rank the combinations; the reported objective comes
    # from the shared scorer, whose summation order can differ in the last ulp
    return BaselineResult(assignment=sel, objective=objective(g, sel), evaluations=count)


def nsa(g: ChannelMatrix) -> BaselineResult:
    """Norm-based selection.

    Each receive antenna picks the configuration with the largest full row
    norm, then each transmit antenna picks the configuration with the
    largest column norm restricted to the selected rows.  Ties go to the
    smallest configuration index.  Performs exactly
    ``n_states * (n_t + n_r)`` norm computations.
    """
    cfg = g.config
    n = cfg.n_states
    a2 = np.abs(g.entries) ** 2
    row_norms = a2.sum(axis=1)  # squared row norms; argmax unaffected
    rx = tuple(int(np.argmax(row_norms[r * n : (r + 1) * n])) for r in range(cfg.n_r))
    sel_rows = [r * n + c for r, c in enumerate(rx)]
    col_norms = a2[sel_rows, :].sum(axis=0)
    tx = tuple(int(np.argmax(col_norms[t * n : (t + 1) * n])) for t in range(cfg.n_t))
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
