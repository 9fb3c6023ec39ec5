"""
Inside the solver: amplitude dynamics and the anneal readout
============================================================

The solver integrates a network of soft-spin amplitudes x_i coupled through
the instance matrix, each paired with an error variable e_i that pushes its
squared amplitude toward a common target.  Below threshold the amplitudes
hover near zero; as the time-ramped coupling takes over they bifurcate into
a +/- pattern whose signs are the candidate spin solution.

This script follows one anneal step by step through the solver's observer,
which sees the run's amplitudes and error variables at each readout step,
then runs a batch of anneals and compares the best decoded assignment
against exhaustive search.
"""

import numpy as np

from cimsel import (
    CimParams,
    ConfigAssignment,
    MimoConfig,
    compile_instance,
    decode_states,
    exhaustive_search,
    generate_channel,
    readout,
    score_states,
    solve,
)

config = MimoConfig(n_t=2, n_r=2, n_states=2)
g = generate_channel(config, seed=99)
inst = compile_instance(g, lam=0.7)
params = CimParams()  # reference constants: 1000 steps of dt = 0.01

# ---------------------------------------------------------------------------
# one anneal under the microscope: an observer called at every step reads
# the amplitudes x and error variables e the solver advances in place
# ---------------------------------------------------------------------------
def show(k, run):
    if k in (1, 10, 100, 300, 500, 1000):
        print(f"{k:>4}  {np.abs(run.x).max():8.4f}  {run.e.min():8.4f}  {run.e.max():8.4f}")


print("step   max|x|    min e     max e")
(anneal,) = solve(inst, CimParams(n_anneals=1), master_seed=1, record_every=1, observer=show)

(feasible,), (states,) = decode_states(anneal.spins[None], config)
decoded = ConfigAssignment(tx=states[: config.n_t], rx=states[config.n_t :])
print(f"\nfinal readout {anneal.spins} -> {decoded if feasible else 'infeasible'}")

# ---------------------------------------------------------------------------
# a trajectory: when does the readout settle?
# ---------------------------------------------------------------------------
readouts = []  # one (dim,) readout per sample, taken as the observer sees it
solve(inst, CimParams(n_anneals=1), master_seed=2, record_every=100,
      observer=lambda k, run: readouts.append(readout(run.x[0])))
trajectory = np.stack(readouts)
flips = (trajectory[1:] != trajectory[:-1]).sum(axis=1).tolist()
print("\nreadout sign flips between consecutive samples (every 100 steps):", flips)

# ---------------------------------------------------------------------------
# many anneals: best decode vs the exhaustive optimum
# ---------------------------------------------------------------------------
anneals = solve(inst, CimParams(n_anneals=100), master_seed=7)
feasible, states = decode_states(anneals.spins, config)  # one row per anneal
n_feasible = int(feasible.sum())
scores = score_states(g, states[feasible])
best = states[feasible][scores.argmax()]
best_obj = scores.max()
best_sel = ConfigAssignment(tx=best[: config.n_t], rx=best[config.n_t :])

es = exhaustive_search(g)
print(f"\n{n_feasible}/100 anneals decoded feasible")
print(f"best decoded assignment: tx={best_sel.tx} rx={best_sel.rx}  objective {best_obj:.4f}")
print(f"exhaustive optimum:      tx={es.assignment.tx} rx={es.assignment.rx}  "
      f"objective {es.objective:.4f}")
print(f"solver reached {best_obj / es.objective:.2%} of the optimum")
