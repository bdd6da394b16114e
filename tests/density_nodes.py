"""The stationary angle density at nodes over one period, from its modes."""

import math

import numpy as np


def density_at_nodes(modes, n):
    """p(theta) = sum_k modes[N + k] e^{2 i k theta}, |k| <= N, at the
    n + 1 nodes theta = i pi / n, i = 0..n: the mode sum taken directly,
    1024 nodes at a time, as complex values."""
    half = modes.size // 2
    k = np.arange(-half, half + 1)
    theta = math.pi / n * np.arange(n + 1)
    return np.concatenate([np.exp(2j * np.outer(t, k)) @ modes
                           for t in np.array_split(theta, range(1024, n + 1, 1024))])
