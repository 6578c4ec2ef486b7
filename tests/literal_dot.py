"""The package's dot rule, written out literally for the bitwise tests:
np.vdot of each full chunk of CHUNK elements in turn, np.add.reduce of
those partial sums, then np.vdot of the tail."""

import numpy as np

CHUNK = 8192


def literal_dot(x, y):
    x, y = np.ravel(x), np.ravel(y)
    full = x.size // CHUNK * CHUNK
    partials = [np.vdot(x[i:i + CHUNK], y[i:i + CHUNK]) for i in range(0, full, CHUNK)]
    return np.add.reduce(np.array(partials, dtype=float)) + np.vdot(x[full:], y[full:])
