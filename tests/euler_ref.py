"""The two Euler schemes of tumorsde.integrate over any drift and
diffusion callables, on scalars or arrays: the reference that
simulate's step is pinned to bit for bit (test_integrate) and whose weak
order criterion 5 certifies.
"""

import numpy as np

from tumorsde.integrate import BlowUpError


def _check_finite(x, y):
    """BlowUpError naming the first non-finite component; x and y are
    floats or arrays."""
    if not np.isfinite(x).all():
        raise BlowUpError(1)
    if not np.isfinite(y).all():
        raise BlowUpError(2)


def euler1_step(drift, diffusion, s, dt, g1_inc, g2_inc):
    """One explicit first-order step; works on scalars or arrays."""
    f1, f2 = drift(s)
    g1, g2 = diffusion(s)
    x = s[0] + f1 * dt + g1 * g1_inc
    y = s[1] + f2 * dt + g2 * g2_inc
    _check_finite(x, y)
    return x, y


def euler2_step(drift, diffusion, drift_partials, diffusion_partials,
                s, dt, g1_inc, g2_inc):
    """One second-order step with own-component partials.

    drift_partials / diffusion_partials map a state to
    ((d/dx of component 1, d2/dx2 of component 1),
     (d/dy of component 2, d2/dy2 of component 2)).
    """
    f1, f2 = drift(s)
    g1, g2 = diffusion(s)
    (df1, d2f1), (df2, d2f2) = drift_partials(s)
    (dg1, d2g1), (dg2, d2g2) = diffusion_partials(s)
    x = (s[0] + f1 * dt + g1 * g1_inc
         + g1 * dg1 * (g1_inc * g1_inc - dt) / 2.0
         + (f1 * df1 + 0.5 * g1 * g1 * d2f1) * dt * dt / 2.0
         + (g1 * df1 + f1 * dg1 + 0.5 * g1 * g1 * d2g1) * dt * g1_inc / 2.0)
    y = (s[1] + f2 * dt + g2 * g2_inc
         + g2 * dg2 * (g2_inc * g2_inc - dt) / 2.0
         + (f2 * df2 + 0.5 * g2 * g2 * d2f2) * dt * dt / 2.0
         + (g2 * df2 + f2 * dg2 + 0.5 * g2 * g2 * d2g2) * dt * g2_inc / 2.0)
    _check_finite(x, y)
    return x, y
