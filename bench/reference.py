"""A fixed reference task that measures the host's current speed.

The host's CPU speed drifts by up to 1.5x over seconds to minutes, because
its cores are shared. The worker runs this task between operations and
scales every time by ``NOMINAL_S / geometric mean(reference times)`` of the
same run, so the reported times read as if the host ran at its nominal
speed.

The task imitates the program's instruction mix without calling it: a
Python loop of small numpy operations over the facets and arcs of a small
hull, a Qhull call and a small dense symmetric eigensolve. Its inputs are
fixed, so a change to ``mixedvol`` never changes its time.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import ConvexHull

# About the time of one run() between ops on the reference machine (2 vCPUs).
NOMINAL_S = 0.002

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20190226)
        self.small = rng.standard_normal((12, 3))
        self.cloud = rng.standard_normal((1500, 3))
        a = rng.standard_normal((120, 120))
        self.sym = a + a.T

    def run(self) -> float:
        """Time one pass of the task, in seconds."""
        start = time.perf_counter()
        hull = ConvexHull(self.small)
        normals = hull.equations[:, :3]
        total = 0.0
        for i, nbrs in enumerate(hull.neighbors):
            for j in nbrs:
                if j < i:
                    continue
                a, b = normals[i], normals[j]
                c = float(np.clip(a @ b, -1.0, 1.0))
                length = float(np.arccos(c))
                e = b - c * a
                e /= np.linalg.norm(e)
                t = 0.5 * length * (_GL_NODES + 1.0)
                u = np.multiply.outer(np.cos(t), a) + np.multiply.outer(np.sin(t), e)
                h = (u @ self.small.T).max(axis=1)
                total += 0.5 * length * float(_GL_WEIGHTS @ (h * h))
        total += ConvexHull(self.cloud).volume
        total += float(np.linalg.eigvalsh(self.sym)[-1])
        elapsed = time.perf_counter() - start
        if not np.isfinite(total):
            raise ArithmeticError("reference task gave a non-finite result")
        return elapsed
