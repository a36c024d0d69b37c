"""Host-speed probe for reference-speed timing.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.0 GHz) a fixed
pure-Python loop ran anywhere from 80 to 114 ms from one second to the
next, and whole workloads ran 30% faster or slower from one half hour to
the next.  The probe is a fixed mix of
interpreter-bound and small numpy work, about 40 ms; a command's time is
scaled by `REFERENCE_S` over the mean of the probes taken right before and
right after it, which gives seconds at the reference host speed.
"""

import time

import numpy as np

REFERENCE_S = 0.040  # the probe's seconds at the reference host speed


def probe():
    """Seconds for the fixed probe work."""
    t0 = time.perf_counter()
    x = 0
    for i in range(250_000):
        x += i * i
    a = np.arange(1 << 14, dtype=np.int64)  # 128 KiB: leaves the peak RSS alone
    for _ in range(120):
        int(((a * 3 + 1) % 7).sum())
    return time.perf_counter() - t0


def scaled(seconds, before, after):
    """`seconds` at the reference speed, from the probes around it."""
    return seconds * 2 * REFERENCE_S / (before + after)
