"""The increment-function view of stationary increment kernels.

Any process X(t) = Y(t+h) - Y(t), with Y pinned at the origin and
having stationary increments, gets its whole covariance from one scalar
function f(t) = V(t+h) - V(t) built on the even extension of the
variance V of Y:

    2 E[X(s) X(t)] = f(t-s) + f(s-t)

The demo measures how far the four-term increment covariance of fBm sits
from that half-sum form (``decomposition_residual``), for random Hurst
indices and lags, and then looks at f and f' for fractional Gaussian
noise, which is ``IncrementOf(FractionalBM(H), h)``.
"""

import numpy as np

from gaussmin import FractionalBM, FractionalGaussianNoise, decomposition_residual

rng = np.random.default_rng(42)

# the identity holds for every H and lag, not just the catalogue defaults
residuals = []
for _ in range(200):
    H = rng.uniform(0.05, 0.95)
    h = rng.uniform(0.1, 2.0)
    s, t = rng.uniform(0.0, 5.0, size=2)
    residuals.append(decomposition_residual(FractionalBM(H), h, s, t))
print(f"largest residual of the half-sum identity over 200 draws: {max(residuals):.3e}")
print(f"median residual:                                          {np.median(residuals):.3e}")

# f is increasing for H > 1/2; its derivative blows up at the endpoints
# of the lag interval but stays positive in between
H, h = 0.75, 1.0
kernel = FractionalGaussianNoise(H, h)
t = np.linspace(-2.5, 2.5, 41)
t = t[(np.abs(t) > 1e-9) & (np.abs(t + h) > 1e-9)]  # skip the singular points
f = kernel.increment(t)
d1 = kernel.increment_d1(t)
print(f"f increasing on the sample: {bool(np.all(np.diff(f) > 0))}")
print(f"f' positive on the sample:  {bool(np.all(d1 > 0))}")
print(f"f' range: [{d1.min():.4f}, {d1.max():.4f}]")
