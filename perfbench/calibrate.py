"""Calibration work that tracks the machine's speed during a run.

The speed of a shared machine can change by a factor of two within minutes
(other tenants, frequency scaling), far more than the changes the benchmark
must resolve.  Every run therefore interleaves a fixed piece of work that
uses neither the library nor the run's inputs, and scales its time metrics
by ``nominal / measured`` calibration time: they read as the time the run
would have taken on a machine where the calibration takes its nominal time.
The unscaled figures are kept in the run record.

In-process workloads calibrate with :func:`kernel`, a Householder reflector
sweep plus QR on a 64x8 frame in plain numpy, the grain of the library's
hot path.  The CLI workload calibrates with this file run as a script: a
fresh interpreter that imports numpy and runs the kernel a few times, the
counterpart of one CLI process.

The nominal times are roughly what the kernel and the process take on a
2-CPU x86-64 sandbox; any fixed values would do, since they cancel when two
commits are compared on one machine.
"""

import numpy as np

KERNEL_NOMINAL_MS = 2.2
PROCESS_NOMINAL_MS = 250.0
PROCESS_REPS = 12

_FRAME = np.random.default_rng(0).standard_normal((64, 8))


def kernel() -> np.ndarray:
    q = np.eye(64, 8)
    for _ in range(10):
        for j in range(8):
            h = _FRAME[:, j]
            u = h / np.sqrt(np.sum(h * h))
            q = q - 2.0 * u[:, None] * (u[None, :] @ q)
        q = np.linalg.qr(q)[0]
    return q


if __name__ == "__main__":
    for _ in range(PROCESS_REPS):
        kernel()
