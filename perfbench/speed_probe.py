"""Speed probe: times a fixed slice of work every few milliseconds.

Usage: speed_probe.py  (started by run.py; stdin is a pipe from the parent)

The probe runs on the CPU the benchmark is pinned to, alongside the
evaluations, and times a fixed slice of work (a small Kraus einsum like
entlab's channel application, a small eigvalsh and plain interpreter work)
every ``EVERY_S`` seconds. On a shared host whose neighbours slow a CPU
down by up to 1.7x for seconds or minutes at a time, the slice time tracks
how fast that CPU is while an evaluation runs. The probe does not touch
entlab.

Each sample is written to stdout as one line, ``<start> <seconds>``, where
``start`` is a ``time.perf_counter`` value (CLOCK_MONOTONIC, so comparable
across processes). The probe exits when its stdin receives a line or is
closed; a parent that dies closes the pipe, so the probe never outlives it.
"""

import select
import sys
import time

import numpy as np

EVERY_S = 0.02


def main() -> int:
    rng = np.random.default_rng(0)
    kraus = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
    rho = rng.standard_normal((8, 8)) + 0j
    h = rng.standard_normal((16, 16))
    herm = h + h.T
    while True:
        t0 = time.perf_counter()
        for _ in range(8):
            np.einsum("kij,jl,kml->im", kraus, rho, kraus.conj())
        np.linalg.eigvalsh(herm)
        counts = {}
        for i in range(600):
            counts[i % 17] = counts.get(i % 17, 0) + i * i
        print(f"{t0!r} {time.perf_counter() - t0!r}", flush=True)
        ready, _, _ = select.select([sys.stdin], [], [], EVERY_S)
        if ready:
            return 0


if __name__ == "__main__":
    sys.exit(main())
