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

print(f"penalty weight {result.lam}, {plan.n_instances} instances x "
      f"{plan.cim.n_anneals} anneals\n")
print(f"{'step':>5}  {'E[best]':>8}  {'E[avg]':>8}  {'P_c':>7}")
for s in result.step_summaries:
    bar = "#" * int(round(30 * s.p_c))
    print(f"{s.step:>5}  {s.e_rho_best:>8.4f}  {s.e_rho_avg:>8.4f}  {s.p_c:>7.4f}  {bar}")

first, last = result.step_summaries[0], result.step_summaries[-1]
mid = next(s for s in result.step_summaries if s.step == 500)
print(f"\nstep 0 feasibility {first.p_c:.4f} (random signs decode feasible with "
      f"probability 1/16 = 0.0625 at this size)")
print(f"change in E[best] between step 500 and {last.step}: "
      f"{abs(last.e_rho_best - mid.e_rho_best) / last.e_rho_best:.3%}")
