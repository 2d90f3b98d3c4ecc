"""Watching the tail probability approach its large-deviation rate.

For Brownian motion on [1, 2] the optimal measure is a point mass at
t=1, sigma*^2 = 1, and log P(min > u) / u^2 should drift toward -1/2 as
u grows.  At desk scale the drift is visible but far from converged;
that slow approach is the expected finite-u behavior, not an error.
"""

from gaussmin import BrownianMotion, dirac, energy, ldp_curve, rate

kernel = BrownianMotion()
sigma_sq = energy(kernel, dirac(1.0))
print(f"sigma*^2 = {sigma_sq}, limit = {rate(sigma_sq)}")

est = ldp_curve(kernel, (1.0, 2.0), 200, (1.0, 1.5, 2.0, 2.5), 200_000, seed=7)

print(f"\n{'u':>4} {'hits':>8} {'p_hat':>10} {'log p / u^2':>12} {'95% ci':>8}")
for i in range(est.u.size):
    print(f"{est.u[i]:>4} {est.hits[i]:>8} {est.p_hat[i]:>10.6f} "
          f"{est.log_p_over_u2[i]:>12.4f} {est.ci_halfwidth[i]:>8.4f}")

print(f"\ntheoretical limit: {rate(sigma_sq)}")

# common random numbers across levels: the estimates share one sample
# set, so p_hat is exactly nonincreasing in u, no luck involved
assert all(a >= b for a, b in zip(est.p_hat, est.p_hat[1:]))

# same seed, same answer, bit for bit
again = ldp_curve(kernel, (1.0, 2.0), 200, (1.0, 1.5, 2.0, 2.5), 200_000, seed=7)
assert (again.hits == est.hits).all()
print("rerun with the same seed reproduced every hit count")
