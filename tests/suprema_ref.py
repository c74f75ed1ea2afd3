"""`Trajectory.last_time_above` as it searched before the walk back from the
run's end: every segment's bound at once on the full ts, ys and qs arrays,
then the last segments whose bound beats the level, each searched for its
last float above it (`_last_above`). The reference that pins the walk bit
for bit (`TestWalkedLastTime`).
"""

import numpy as np

from delayreach.integrator import _bounds, _last_above


def last_time_above(traj, level):
    ts, ys, qs = traj.ts, traj.ys, traj.qs
    bounds = _bounds(ys[:-1], qs)
    for i in np.flatnonzero(bounds.max(axis=1) > level)[::-1]:
        cs = np.vstack([ys[i], qs[i]]).T.tolist()
        ths = [_last_above(c, float(level)) for c, cut in zip(cs, bounds[i]) if cut > level]
        th = max([th for th in ths if th is not None], default=None)
        if th is not None:
            return min(float(ts[i] + th * (ts[i + 1] - ts[i])), float(ts[i + 1]))
    return traj.t_start
