"""The left-curtain coupling of two discrete laws in convex order: a test
oracle for two-date bounds that needs no LP.

For a cost h(s_2 - s_1) with h' strictly convex, such as (s_2 - s_1)^3, the
left-curtain coupling is the unique martingale coupling of least expected
cost (Beiglböck & Juillet, Ann. Probab. 2016), so its expectation is the
lower bound.  It sends mu restricted to (-inf, x] onto that measure's
shadow in nu, whose potential is U_nu - conv(U_nu - U_{mu|(-inf, x]}), with
U_eta(t) = sum_y |y - t| eta(y) and conv the convex envelope; each atom of
mu is sent to the difference of two consecutive shadows.  Half the second
derivative of a potential is its measure, so a shadow is nu less half the
slope jumps of that envelope.  Float arithmetic, O(m^2) on m atoms a date.
"""

from __future__ import annotations

import numpy as np

# Atoms of the two dates this close, relative to the largest |atom|, are one
# point of the joint grid.  smooth_pair(m) puts atoms of both dates at one
# point up to rounding (5 such pairs at m = 15, 67 at m = 201, 1e-16 apart at
# most), and a slope across such a gap is noise: without the merge the
# bounds at m = 15, 51 and 201 miss the curtain value.  Its other gaps are
# above 3e-4 up to m = 3201.
TWIN_TOL = 1e-12


def _envelope_jumps(z: np.ndarray, f: np.ndarray, left: float, right: float) -> np.ndarray:
    """The slope jump at each point of ``z`` of the convex envelope of the
    function that is ``f`` on ``z``, linear between them and of slope
    ``left`` and ``right`` beyond them: the lower hull of the points, with
    slopes held to [left, right], as no affine minorant has any other."""
    hull, slopes = [], []  # slopes[k]: into hull[k], from the left
    for j in range(z.size):
        while hull:
            into = (f[j] - f[hull[-1]]) / (z[j] - z[hull[-1]])
            if into > slopes[-1]:
                break
            hull.pop()
            slopes.pop()
        slopes.append((f[j] - f[hull[-1]]) / (z[j] - z[hull[-1]]) if hull else left)
        hull.append(j)
    while len(hull) > 1 and slopes[-1] >= right:
        hull.pop()
        slopes.pop()
    jumps = np.zeros(z.size)
    jumps[hull] = np.diff([*slopes, right])
    return jumps


def left_curtain(mu, nu) -> np.ndarray:
    """The left-curtain coupling of ``mu`` and ``nu`` (discrete measures in
    convex order), dense: the mass sent from each atom of ``mu`` (rows) to
    each atom of ``nu`` (columns).  Potentials are read on the joint grid of
    both dates' atoms, an atom of ``mu`` merged onto an atom of ``nu`` within
    ``TWIN_TOL``."""
    x, p, y, q = mu.points, mu.weights, nu.points, nu.weights
    scale = max(np.abs(x).max(), np.abs(y).max())
    near = np.abs(x[:, None] - y[None, :]).argmin(axis=1)
    twin = np.abs(y[near] - x) <= TWIN_TOL * scale
    z = np.union1d(y, x[~twin])
    x_at = np.searchsorted(z, np.where(twin, y[near], x))
    y_at = np.searchsorted(z, y)
    nu_z = np.zeros(z.size)
    nu_z[y_at] = q
    u_nu = np.abs(z[:, None] - y[None, :]) @ q
    u_mu = np.zeros(z.size)
    shadow = np.zeros(z.size)
    coupling = np.empty((x.size, z.size))
    for i in range(x.size):
        u_mu += p[i] * np.abs(z - z[x_at[i]])
        rest = q.sum() - p[:i + 1].sum()
        new = nu_z - 0.5 * _envelope_jumps(z, u_nu - u_mu, -rest, rest)
        coupling[i] = new - shadow
        shadow = new
    return coupling[:, y_at]
