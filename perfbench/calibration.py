"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host the speed of a core drifts by a fifth or more over tens of
seconds, with the load of its neighbours, and a whole 60-s run can land in
a slow or a fast stretch.  That drift moves every computation alike, so the
benchmark runs this kernel before every operation and scales each latency
by REFERENCE_S over the mean kernel time of the same run.  The kernel uses
numpy only, never mtcover, so a change to mtcover cannot change it.  Its
work mirrors mtcover's: batched 3x3 algebra on arrays the size of one
slice of the constant sweeps, and many calls on single points, as in
Newton steps and `degree`.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the mean kernel time on a 2-core Xeon VM (Python 3.11.7, numpy 2.4.6),
# where the benchmark was defined, so that scaled latencies read close to
# seconds there.  It only sets the scale: never change it, or every later
# comparison breaks.
REFERENCE_S = 0.6

_ROUNDS = 2
_POINT_STEPS = 6000


def _kernel() -> float:
    rng = np.random.default_rng(12345)
    x = rng.random((4096, 2))
    mats = rng.standard_normal((4096, 16, 3, 3))
    freqs = np.array([[0.0, 1.0], [1.0, 0.0]])
    acc = 0.0
    for _ in range(_ROUNDS):
        theta = 2.0 * np.pi * (x @ freqs.T)
        waves = 0.1 * np.sin(theta) + 0.05 * np.cos(theta)
        jac = np.einsum("...t,ti,tj->...ij", waves, freqs, freqs)
        gram = np.einsum("...ji,...jk->...ik", mats, mats)
        low = np.linalg.eigvalsh(gram)[..., 0]
        chain = np.einsum("...ij,...jk,...kl->...il", gram, mats, gram)
        acc += float(low.min() + jac.sum() + np.linalg.norm(chain, axis=(-2, -1)).max())
    point = np.array([0.25, 0.5])
    for step in range(_POINT_STEPS):
        theta = 2.0 * np.pi * (freqs @ point)
        jac = np.eye(2) + 0.1 * np.outer(np.cos(theta), freqs[0])
        point = (point + 0.01 * np.linalg.solve(jac, np.sin(theta))) % 1.0
        acc += float(np.hypot(*point)) + (step % 7) * 0.5
    return acc


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start
