"""Classical selection baselines: exhaustive, norm-based, and random.

Exhaustive search is the optimum reference: it finds the best of all
``n_states ** (n_t + n_r)`` assignments, and refuses to run when that count
exceeds a budget.  It enumerates only the side with fewer antennas and
gives each antenna of the other side its best state, so its work grows as
``n_states ** min(n_t, n_r)``.  Norm-based selection is the cheap two-stage
heuristic (pick per-antenna row norms on one side, then restricted column
norms on the other) costing only ``n_states * (n_t + n_r)`` norm
computations.  Random selection picks a
uniform state per antenna and computes nothing.  Every result reports its
objective through ``channel.objective``, so equal assignments carry
bit-identical objectives whichever method found them.

Every result carries an evaluation count so complexity claims can be
checked, not just quoted: norm computations for norm-based selection, none
for random selection, and for exhaustive search the assignments it decides
among, the paper's count, which the budget is set against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, ConfigAssignment, MimoConfig, objective, score_states

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
    """Globally optimal assignment: the scorer's first maximum over all
    ``n_states ** (n_t + n_r)`` combinations.

    The objective separates once one side is fixed: each antenna of the
    other side then takes its best state on its own.  So only the side with
    fewer antennas is enumerated, and every other antenna's state comes
    from the row (or column) sums.  Those sums add the gains in another
    order than :func:`channel.score_states`, so they only narrow the
    choice: every assignment within rounding of a chunk's best is scored by
    the scorer, which decides.  Ties go to the lexicographically smallest
    ``(tx, rx)`` tuple.  ``evaluations`` is the count of combinations
    decided among.  Raises :class:`BudgetExceededError` (naming the count)
    when that count exceeds ``budget``.
    """
    cfg = g.config
    count = search_space_size(cfg)
    if count > budget:
        raise BudgetExceededError(
            f"exhaustive search needs {count} objective evaluations, over the budget of {budget}"
        )
    n = cfg.n_states
    gains = (np.abs(g.entries) ** 2).reshape(cfg.n_r, n, cfg.n_t, n)
    # gains[a, s, b, u]: antenna a of the enumerated side in state s, antenna
    # b of the other side in state u
    tx_side = cfg.n_t <= cfg.n_r
    side = gains.transpose(2, 3, 0, 1) if tx_side else gains
    n_enum, n_free = side.shape[0], side.shape[2]
    # the row sums and the scorer add the same n_t * n_r non-negative gains in
    # different orders, each within n_t * n_r rounding units of the exact
    # total, so this margin of the best keeps every possible scorer maximum
    rel_tol = 4 * cfg.n_t * cfg.n_r * np.finfo(float).eps
    # cells per combination: its sums, one gathered term and its states
    chunk = max(1, _CHUNK_CELLS // (2 * n_free * n + n_enum))
    best_val, best_row = -np.inf, None
    for start in range(0, n**n_enum, chunk):
        # first antenna most significant, so the combinations walk in order
        flat = np.arange(start, min(start + chunk, n**n_enum))
        enum = np.stack(np.unravel_index(flat, (n,) * n_enum), axis=1)
        sums = np.zeros((len(enum), n_free, n))
        for a in range(n_enum):
            sums += side[a, enum[:, a]]
        peaks = sums.max(axis=2)
        vals = peaks.sum(axis=1)
        top = vals.max()
        slack = top * rel_tol
        for k in np.flatnonzero(vals >= top - slack):
            choices = [np.flatnonzero(row >= peak - slack) for row, peak in zip(sums[k], peaks[k])]
            for rows in _candidate_rows(enum[k], choices, tx_side, cfg.n_t * cfg.n_r):
                scores = score_states(g, rows)
                # rows walk the free side in order with the enumerated side
                # fixed, so the first maximum is the smallest tuple among them
                i = int(np.argmax(scores))
                if scores[i] > best_val or (scores[i] == best_val and tuple(rows[i]) < best_row):
                    best_val, best_row = scores[i], tuple(rows[i])
    sel = ConfigAssignment(tx=best_row[: cfg.n_t], rx=best_row[cfg.n_t :])
    return BaselineResult(assignment=sel, objective=float(best_val), evaluations=count)


def _candidate_rows(fixed, choices, tx_side, cells_per_row):
    """Batches of state rows (transmit states first) pairing the enumerated
    side's states ``fixed`` with every product of the other side's
    ``choices``, in lexicographic order, under ``_CHUNK_CELLS`` cells each."""
    sizes = tuple(len(c) for c in choices)
    total = int(np.prod(sizes))
    batch = max(1, _CHUNK_CELLS // cells_per_row)
    for start in range(0, total, batch):
        picks = np.unravel_index(np.arange(start, min(start + batch, total)), sizes)
        free = np.stack([c[p] for c, p in zip(choices, picks)], axis=1)
        same = np.broadcast_to(fixed, (len(free), len(fixed)))
        yield np.hstack((same, free) if tx_side else (free, same))


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
    rx = tuple(np.argmax(row_norms[r * n : (r + 1) * n]) for r in range(cfg.n_r))
    sel_rows = [r * n + c for r, c in enumerate(rx)]
    col_norms = a2[sel_rows, :].sum(axis=0)
    tx = tuple(np.argmax(col_norms[t * n : (t + 1) * n]) for t in range(cfg.n_t))
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
    tx = rng.integers(0, cfg.n_states, cfg.n_t)
    rx = rng.integers(0, cfg.n_states, cfg.n_r)
    sel = ConfigAssignment(tx=tx, rx=rx)
    return BaselineResult(assignment=sel, objective=objective(g, sel), evaluations=0)
