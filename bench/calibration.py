"""Host-speed calibration: a fixed computation timed during a run.

On a shared host the speed of the processor drifts: the same operation
took 4.0 s in one ten-minute stretch and 6.2 s in the next, in process time
as well as in wall time.  A calibration that does the same kinds of work as
the solver, but runs none of multibump's code, slows down with it.  The
benchmark multiplies every time it reports by ``REFERENCE_S`` over the
median calibration pass of the same process, which takes out most of the
drift and leaves changes of the program in place.  The parts mirror the
solver's work: float formatting as in the CSV writer, a Python loop over
small vectors as in the descent, and sparse matrix-vector products as in
the eigensolver.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

# The calibration's typical time on the host the benchmark was defined on
# (2-core Intel Xeon VM at 2.1 GHz); reported times are at that speed.
REFERENCE_S = 0.035


class Calibration:
    """Times passes of the fixed computation and keeps every pass."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 128
        self._laplacian = sp.diags([4.0, -1.0, -1.0, -1.0, -1.0], [0, 1, -1, n, -n],
                                   shape=(n * n, n * n), format="csr")
        self._field = rng.random(n * n)
        self._vector = rng.random(4096)
        self._values = rng.random(4000)
        self.passes: list[float] = []

    def run(self, seconds: float) -> None:
        """Run passes for about ``seconds``, at least one."""
        start = time.perf_counter()
        self._pass()
        while time.perf_counter() - start + self.passes[-1] <= seconds:
            self._pass()

    def _pass(self) -> None:
        start = time.perf_counter()
        "".join(f"{a!r},{b!r}\n" for a, b in zip(self._values, self._values[::-1]))
        u = self._vector.copy()
        for _ in range(600):
            u = u - 1e-3 * (u * u - self._vector)
            float(u @ u)
        y = self._field
        for _ in range(100):
            y = self._laplacian @ y
            y /= 8.0
        self.passes.append(time.perf_counter() - start)

    def to_reference(self, seconds: float) -> float:
        """A time measured in this process, at the reference speed."""
        return seconds * REFERENCE_S / statistics.median(self.passes)
