"""
Metrics along the solver dynamics
=================================

Instead of reading the spins out only at the end, the harness can sample
the instantaneous sign readout while the dynamics evolve.  Both headline
metrics then become functions of the step index:

* E[objective] climbs as amplitude patterns lock into good assignments,
* P_c (the fraction of feasible raw readouts) climbs from the random-spin
  baseline toward one,

and both flatten out well before the end of the run, which is why a shorter
integration loses nothing.
"""

from cimsel import CimParams, ExperimentPlan, MimoConfig, time_trace

plan = ExperimentPlan(
    config=MimoConfig(n_t=2, n_r=2, n_states=2),
    lambdas=(0.8,),
    cim=CimParams(steps=1000, n_anneals=100),
    n_instances=30,
    master_seed=3,
    trace_stride=50,
)
result = time_trace(plan)
# one cim_best and one cim_avg summary per sampled step; both carry its P_c
best = {s.step: s for s in result.summaries if s.method == "cim_best"}
avg = {s.step: s.e_rho for s in result.summaries if s.method == "cim_avg"}

print(f"penalty weight {plan.lambdas[0]}, {plan.n_instances} instances x "
      f"{plan.cim.n_anneals} anneals\n")
print(f"{'step':>5}  {'E[best]':>8}  {'E[avg]':>8}  {'P_c':>7}")
for step, s in best.items():
    bar = "#" * int(round(30 * s.p_c))
    print(f"{step:>5}  {s.e_rho:>8.4f}  {avg[step]:>8.4f}  {s.p_c:>7.4f}  {bar}")

first, mid, last = best[0], best[500], best[plan.cim.steps]
print(f"\nstep 0 feasibility {first.p_c:.4f} (random signs decode feasible with "
      f"probability 1/16 = 0.0625 at this size)")
print(f"change in E[best] between step 500 and {last.step}: "
      f"{abs(last.e_rho - mid.e_rho) / last.e_rho:.3%}")
