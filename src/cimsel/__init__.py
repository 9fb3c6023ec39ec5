"""Antenna-configuration selection for reconfigurable MIMO links.

The constrained received-power maximisation over per-antenna configuration
choices is compiled into an unconstrained Ising instance (one-hot penalty,
auxiliary spin, max-norm scaling) and handed to a classically emulated
amplitude-heterogeneity-corrected Coherent Ising Machine.  Exhaustive,
norm-based and random selection baselines plus a deterministic Monte-Carlo
benchmark harness round out the package.
"""

from .baselines import (
    BaselineResult,
    BudgetExceededError,
    ES_BUDGET_DEFAULT,
    exhaustive_search,
    nsa,
    random_selection,
    search_space_size,
)
from .bench import (
    ExperimentPlan,
    HarnessResult,
    MethodSummary,
    MetricRow,
    run_instance,
    sweep_lambda,
    time_trace,
)
from .channel import (
    ChannelMatrix,
    ConfigAssignment,
    MimoConfig,
    generate_channel,
    objective,
    read_channel,
    score_states,
    write_channel,
)
from .cim import CimParams, readout, solve
from .formulation import (
    IsingInstance,
    compile_instance,
    decode_states,
    write_instance,
)
from .rng import derive_seed, substream, uniform_table

__version__ = "0.1.0"
