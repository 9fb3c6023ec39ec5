"""
From constrained selection to an unconstrained Ising instance
=============================================================

The selection problem is quadratic in the 0/1 activation bits but carries
one-hot constraints (one active state per antenna).  The compilation chain
removes the constraints step by step:

1. objective -> symmetric coupling matrix over the bits,
2. constraints -> a single aggregate quadratic penalty,
3. bits -> spins via b = (s + 1) / 2,
4. linear spin terms -> couplings to one auxiliary spin,
5. zero the diagonals, rescale both matrices to max-entry 1,
6. blend with a penalty weight lam in [0, 1].

The result is a plain symmetric coupling matrix: any Ising-style maximiser
can digest it, and the JSON export at the end is exactly that interchange
surface.
"""

import numpy as np

from cimsel import MimoConfig, compile_instance, generate_channel
from cimsel.formulation import (
    constraint_coupling,
    constraint_matrix,
    instance_to_json,
    objective_coupling,
    qubo_matrix,
    squared_gains,
)

config = MimoConfig(n_t=1, n_r=1, n_states=2)
g = generate_channel(config, seed=5)

t = squared_gains(g)
print("squared-gain table (transmit-major):")
print(np.round(t, 3), "\n")

q = qubo_matrix(t)
print("bit-space coupling matrix (zero diagonal, gains split across the two blocks):")
print(np.round(q, 3), "\n")

r = constraint_matrix(config)
print("aggregate one-hot penalty matrix (all-ones block per antenna):")
print(r, "\n")

j_obj = objective_coupling(q)
j_con = constraint_coupling(r)
print("normalized objective couplings (auxiliary spin = row/col 0):")
print(np.round(j_obj, 3), "\n")
print("normalized penalty couplings:")
print(np.round(j_con, 3), "\n")

for lam in (0.0, 0.5, 1.0):
    inst = compile_instance(g, lam)
    tag = {0.0: "pure objective", 1.0: "pure penalty"}.get(lam, "blend")
    print(f"lam = {lam}: max |coupling| = {np.abs(inst.j).max():.3f}  ({tag})")

payload = instance_to_json(compile_instance(g, 0.5))
print(f"\nexport payload: dim={payload['dim']}, lambda={payload['lambda']}, "
      f"{len(payload['j'])} upper-triangle couplings")
print("first few couplings:", [round(v, 4) for v in payload["j"][:6]])
