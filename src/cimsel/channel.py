"""Reconfigurable-MIMO channels and the received-power objective.

A link has ``n_t`` transmit and ``n_r`` receive antennas, each of which can
be switched into one of ``n_states`` configurations.  The *complete* channel
matrix stacks the coefficients of every configuration: entry ``(i, j)`` is
the gain between transmit antenna ``j // n_states`` in configuration
``j % n_states`` and receive antenna ``i // n_states`` in configuration
``i % n_states``.  Selecting one configuration per antenna picks an
``n_r x n_t`` submatrix, and the objective maximised throughout this
package is the squared Frobenius norm of that submatrix (the received-SNR
metric up to constant power/noise factors).

All functions here are pure; channel generation is deterministic given
``(config, seed)`` and may run for distinct instances in parallel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MimoConfig",
    "ChannelMatrix",
    "ConfigAssignment",
    "ChannelFormatError",
    "generate_channel",
    "score_states",
    "objective",
    "write_channel",
    "read_channel",
]


@dataclass(frozen=True)
class MimoConfig:
    """Problem dimensions: antenna counts and configurations per antenna."""

    n_t: int
    n_r: int
    n_states: int

    def __post_init__(self):
        for name in ("n_t", "n_r", "n_states"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    @property
    def n_antennas(self) -> int:
        return self.n_t + self.n_r

    @property
    def d(self) -> int:
        """Number of binary selection variables, one per (antenna, state)."""
        return self.n_states * self.n_antennas

    @property
    def rows(self) -> int:
        return self.n_states * self.n_r

    @property
    def cols(self) -> int:
        return self.n_states * self.n_t


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Complete channel matrix over all configurations, with its seed of record."""

    config: MimoConfig
    entries: np.ndarray
    seed: int

    def __post_init__(self):
        expected = (self.config.rows, self.config.cols)
        if self.entries.shape != expected:
            raise ValueError(
                f"channel entries have shape {self.entries.shape}, expected {expected}"
            )
        # every sum the compiler forms from |g|^2 is bounded by this total
        with np.errstate(over="ignore", invalid="ignore"):
            total = (np.abs(self.entries) ** 2).sum()
        if not np.isfinite(total):
            raise ValueError("channel entries must be finite, with a finite sum of |g|^2")


@dataclass(frozen=True)
class ConfigAssignment:
    """One selected configuration index per transmit and receive antenna.

    By construction an assignment is feasible: exactly one state is active
    at each antenna.
    """

    tx: tuple[int, ...]
    rx: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tx", tuple(int(c) for c in self.tx))
        object.__setattr__(self, "rx", tuple(int(c) for c in self.rx))
        if any(c < 0 for c in self.tx + self.rx):
            raise ValueError("configuration indices must be non-negative")


def generate_channel(config: MimoConfig, seed: int) -> ChannelMatrix:
    """Draw a complete channel matrix with i.i.d. CN(0, 1) entries.

    Real and imaginary parts are independent N(0, 1/2), so each entry has
    unit total variance.  The draw is deterministic given ``(config, seed)``.
    """
    rng = np.random.default_rng(seed)
    shape = (config.rows, config.cols)
    entries = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return ChannelMatrix(config=config, entries=entries, seed=int(seed))


def score_states(g: ChannelMatrix, states: np.ndarray) -> np.ndarray:
    """Objective of each row of per-antenna states (transmit antennas first).

    The one scorer behind every reported objective: row ``k`` scores the
    assignment ``tx = states[k, :n_t]``, ``rx = states[k, n_t:]`` as the sum of
    ``|g[flat(r, rx[r]), flat(t, tx[t])]|**2`` over all antenna pairs.  Rows
    are not validated; :func:`objective` is the checked one-row form.
    """
    cfg = g.config
    a2 = np.abs(g.entries) ** 2
    n = cfg.n_states
    cols = np.arange(cfg.n_t) * n + states[:, : cfg.n_t]
    rows = np.arange(cfg.n_r) * n + states[:, cfg.n_t :]
    return a2[rows[:, :, None], cols[:, None, :]].sum(axis=(1, 2))


def objective(g: ChannelMatrix, sel: ConfigAssignment) -> float:
    """Received-power objective of an assignment.

    Equals the squared Frobenius norm of the selected ``n_r x n_t``
    submatrix, computed by :func:`score_states`.  Always non-negative.
    """
    cfg = g.config
    if len(sel.tx) != cfg.n_t or len(sel.rx) != cfg.n_r:
        raise ValueError(
            f"assignment has {len(sel.tx)} tx / {len(sel.rx)} rx entries, "
            f"config needs {cfg.n_t} / {cfg.n_r}"
        )
    if any(c >= cfg.n_states for c in sel.tx + sel.rx):
        raise ValueError(f"assignment {sel} has a state out of range [0, {cfg.n_states})")
    return float(score_states(g, np.array([sel.tx + sel.rx], dtype=np.int64))[0])


class ChannelFormatError(ValueError):
    """Raised when a channel file is malformed; the message names the field."""


def write_channel(g: ChannelMatrix, path) -> None:
    """Write a channel instance as JSON.

    Schema: ``{"n_t", "n_r", "n_states", "seed", "entries"}`` with entries
    stored row-major as ``{"re": float, "im": float}`` objects,
    ``n_states * n_r`` rows of ``n_states * n_t`` columns each.
    """
    payload = {
        "n_t": g.config.n_t,
        "n_r": g.config.n_r,
        "n_states": g.config.n_states,
        "seed": g.seed,
        "entries": [
            [{"re": float(v.real), "im": float(v.imag)} for v in row]
            for row in g.entries
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_channel(path) -> ChannelMatrix:
    """Read and validate a channel instance written by :func:`write_channel`."""
    with open(path) as fh:
        raw = json.load(fh)
    for field in ("n_t", "n_r", "n_states", "seed", "entries"):
        if field not in raw:
            raise ChannelFormatError(f"channel file {path}: missing field '{field}'")
    config = MimoConfig(n_t=raw["n_t"], n_r=raw["n_r"], n_states=raw["n_states"])
    rows = raw["entries"]
    if not isinstance(rows, list) or len(rows) != config.rows or any(
        not isinstance(r, list) or len(r) != config.cols for r in rows
    ):
        raise ChannelFormatError(
            f"channel file {path}: field 'entries' must be "
            f"{config.rows} rows of {config.cols} columns"
        )
    seed = raw["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ChannelFormatError(
            f"channel file {path}: field 'seed' must be a non-negative integer, got {seed!r}"
        )
    try:
        entries = np.array(
            [[complex(_number(v["re"]), _number(v["im"])) for v in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, KeyError, OverflowError) as exc:
        raise ChannelFormatError(
            f"channel file {path}: field 'entries' must hold re/im objects of numbers"
        ) from exc
    return ChannelMatrix(config=config, entries=entries, seed=seed)


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return value
