"""Discretized solve against the exact three-point answer.

The active-set solver knows nothing about the closed forms; it just
minimizes w' M w over the probability simplex on a grid, a few rounds of
equilibrium solves on a growing support.  On an interval of twice the lag
it should rediscover the three-atom measure, whose atoms are grid nodes.
"""

import numpy as np

from gaussmin import (
    FractionalGaussianNoise,
    Grid,
    c_star,
    discretize,
    energy,
    extract_measure,
    solve,
    three_point,
)

kernel = FractionalGaussianNoise(0.75, 1.0)
grid = Grid(0.0, 2.0, 401)

exact = three_point(0.0, 1.0, c_star(kernel, 1.0))
e_exact = energy(kernel, exact)

problem = discretize(kernel, grid)
result = solve(problem, tol=1e-9)
mu = extract_measure(result, grid, prune=1e-4)

print(f"closed form : {e_exact:.12f}")
print(f"solver      : {result.energy:.12f}  "
      f"(gap {result.equilibrium_gap:.2e}, {result.iterations} iterations, "
      f"converged={result.converged})")
print(f"difference  : {result.energy - e_exact:+.3e}")

print("\nextracted atoms vs closed form:")
for loc, w, w_exact in zip(mu.locations, mu.weights, exact.weights):
    print(f"  t={loc:4.1f}  weight {w:.6f}  exact {w_exact:.6f}  "
          f"error {w - w_exact:+.2e}")

# the gap certificate bounds the energy error: E - E_opt <= gap, so a
# converged run is guaranteed accurate to the tolerance
assert result.energy - e_exact <= max(result.equilibrium_gap, 1e-5)

# most of the simplex carries no mass; count the nodes that do
heavy = int(np.count_nonzero(result.weights > 1e-4))
print(f"\nnodes above 1e-4 weight: {heavy} of {grid.n}")
