"""Calibration units that measure how fast the machine runs right now.

A shared host changes the speed of a benchmark's core by 1.3-2x within
seconds (measured on a 2-vCPU VM: a fixed pure-Python loop moved between
23 and 32 ms, CPU time moving with wall time, so the slowdowns are not
steal but a slower core).  Wall times taken there would measure the
neighbours.  The worker therefore times fixed calibration units between
windows of operations and scales each operation's wall time by

    REF_NS[unit] / (mean of the unit's time before and after its window)

which reads as the operation's time on a machine where the unit takes
its REF_NS.  A change to quatsym moves the operations, never the units,
so it moves the scaled times by the same share as the raw ones.

Two units; workloads.calibration_unit picks one per operation:
    "python"  pure-Python integer and dict work: verdicts, norm and conic
              searches, CLI runs, the import
    "numpy"   numpy in-place sorts and searchsorted over int64 arrays:
              isotropy sweeps, whose time goes to np.isin over large arrays

The choice was measured: the same operations were repeated in several
passes with both units timed around every window, and each operation's
log time regressed on the units' log times.  Isotropy sweeps had slopes
of 0.1 on the python unit and 1.0 on the numpy unit; every other kind had
its lowest pass-to-pass spread when scaled by the python unit.  (The
numpy unit then ran np.isin and np.sort on fresh arrays, the same
sort-and-search work; it is in place now because that version added
12 MB to the worker's peak resident size.)

numpy is imported only by the numpy unit, so the import probes can use the
python unit before `import quatsym` without loading numpy early.
"""
from __future__ import annotations

import os
import time

# Nominal time of each unit: about its fast-state time on the 2-vCPU VM
# the benchmark was tuned on.  Changing these rescales every reported time.
REF_NS = {"python": 1.4e6, "numpy": 3.3e6}
WINDOW_NS = 250e6  # operations timed between two calibrations

_PY_STEPS = 12000
_NP_SIZE = 60000
_arrays = None


def _python_unit() -> None:
    s = 0
    d = {}
    for i in range(_PY_STEPS):
        s = (s * 31 + i) % 1000003
        d[i & 255] = s


def _numpy_unit() -> None:
    # Works in place on arrays made once, so that the unit adds under 1 MB
    # to the worker's peak resident size (np.isin and numpy.random added
    # 12 MB to it).  The values are scrambled by a multiplicative hash.
    global _arrays
    if _arrays is None:
        import numpy as np
        a = np.arange(_NP_SIZE, dtype=np.int64) * 2654435761 % (1 << 41) - (1 << 40)
        _arrays = (np, a, np.sort(a[::4]), np.empty_like(a))
    np, a, keys, buf = _arrays
    for k in (3, 5, 7):
        np.multiply(a, k, out=buf)
        buf.sort()
        np.searchsorted(keys, buf)


_UNITS = {"python": _python_unit, "numpy": _numpy_unit}


class Meter:
    """Times calibration units; the constructor warms them up untimed."""

    def __init__(self, units) -> None:
        self.units = tuple(sorted(set(units)))
        self.measure()

    def measure(self) -> dict[str, int]:
        perf = time.perf_counter_ns
        out = {}
        for unit in self.units:
            t = perf()
            _UNITS[unit]()
            out[unit] = perf() - t
        return out

    @staticmethod
    def factor(before: dict[str, int], after: dict[str, int], unit: str) -> float:
        """Scale for wall times taken between two measurements."""
        return REF_NS[unit] * 2 / (before[unit] + after[unit])


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the unit and the
    operations it scales run on the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
