"""The stationary angle density of fd over one period: its modes, and its
values at nodes from the modes."""

import math

import numpy as np

from tumorsde.lyapunov import DegeneratePhaseDiffusionError, _fd_solve, _galerkin, _polar_rows


def density_modes(sys):
    """The density's modes p_{-N}..p_N, p(theta) = sum_k modes[N + k]
    e^{2 i k theta} with pi p_0 = 1, at the mode count N that fd's solve
    chose for sys; DegeneratePhaseDiffusionError where fd rejects sys."""
    rows = _polar_rows(sys)[None]
    _, counts, _, _, errors = _fd_solve(rows)
    if errors:
        raise DegeneratePhaseDiffusionError(errors[0])
    (p,) = _galerkin(rows[:, 4:].reshape(1, 10), int(counts[0]))
    return np.concatenate((p[::-1].conj(), [1.0], p)) / math.pi


def density_at_nodes(modes, n):
    """p(theta) = sum_k modes[N + k] e^{2 i k theta}, |k| <= N, at the
    n + 1 nodes theta = i pi / n, i = 0..n: the mode sum taken directly,
    1024 nodes at a time, as complex values."""
    half = modes.size // 2
    k = np.arange(-half, half + 1)
    theta = math.pi / n * np.arange(n + 1)
    return np.concatenate([np.exp(2j * np.outer(t, k)) @ modes
                           for t in np.array_split(theta, range(1024, n + 1, 1024))])
