"""
Channels, the selection objective, and the three classical baselines
====================================================================

A reconfigurable-MIMO link with n_t transmit and n_r receive antennas, each
switchable between n_states configurations, is described by one *complete*
channel matrix holding the coefficient of every configuration pair.
Choosing one configuration per antenna picks out an n_r x n_t submatrix;
the objective is that submatrix's total squared gain.

This script draws a channel, scores a few assignments by hand, and then
lets the three classical selection rules loose on it.
"""

import numpy as np

from cimsel import (
    ConfigAssignment,
    MimoConfig,
    exhaustive_search,
    generate_channel,
    nsa,
    objective,
    random_selection,
    substream,
)

config = MimoConfig(n_t=2, n_r=2, n_states=4)
print(f"link: {config.n_t} tx x {config.n_r} rx antennas, {config.n_states} states each")
print(f"complete channel matrix: {config.rows} x {config.cols}, "
      f"{config.d} selection bits\n")

g = generate_channel(config, seed=2024)
print("squared gains (first receive antenna block, all transmit columns):")
print(np.round(np.abs(g.entries[:4]) ** 2, 3), "\n")

# score two hand-picked assignments: all-zeros vs a deliberate spread
for sel in (ConfigAssignment(tx=(0, 0), rx=(0, 0)), ConfigAssignment(tx=(3, 1), rx=(2, 0))):
    print(f"assignment tx={sel.tx} rx={sel.rx}: objective {objective(g, sel):.4f}")
print()

# the three baselines; evaluation counts follow their closed forms
es = exhaustive_search(g)
norm = nsa(g)
rand = random_selection(g, substream(7))
print(f"{'method':<18}{'objective':>10}  {'evaluations':>12}  assignment")
for name, res in (("exhaustive", es), ("norm-based", norm), ("random", rand)):
    print(f"{name:<18}{res.objective:>10.4f}  {res.evaluations:>12}  "
          f"tx={res.assignment.tx} rx={res.assignment.rx}")

print(f"\nexhaustive search decided among {config.n_states}^{config.n_antennas} "
      f"= {es.evaluations} combinations")
print(f"norm-based selection used only {norm.evaluations} norm computations "
      f"and reached {norm.objective / es.objective:.1%} of the optimum")
