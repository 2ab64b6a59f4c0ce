"""Machine-speed reference, timed in the same process as the workload.

On a shared machine the speed of the same code drifts by 20% and more over
seconds to minutes.  A fixed piece of benchmark-side work, a unit, drifts
in step with saska's own trials: over 20 s blocks of one 3-minute run,
sim-small trial time spread 16% while its ratio to interleaved units spread
2.6%.  So a run interleaves units with its operations, about 5% of its busy
time, and scales each operation's time to the speed at which one unit takes
its nominal time, using the units measured around that operation.  The raw
figures are kept in the run record.

The drift is not the same for all code, so each workload is scaled by a
unit like its own work.  In slow spells the interpreter unit slowed by up
to 90%, while full-size `modp2048` trials slowed by 15% and CLI pairings by
30%.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter_ns

WINDOW = 8  # units averaged for an operation's speed


def interpreter_unit() -> int:
    """Fixed interpreter work, with some small big-integer arithmetic."""
    acc, table, parts = 0, {}, []
    for i in range(4000):
        table[i & 255] = acc
        acc = (acc * 31 + table.get((i * 7) & 255, i)) & 0xFFFFFFFF
        parts.append(i.to_bytes(4, "big"))
    return acc + len(b"".join(parts)) + pow(3 + acc, (1 << 255) + 12345, (1 << 521) - 1)


def bignum_unit() -> int:
    """One 2048-bit modular exponentiation with a 128-bit exponent."""
    return pow(3, (1 << 127) + 12345, (1 << 2048) - 159)


def startup_unit() -> int:
    """Start a bare interpreter and wait for it to end."""
    return subprocess.run([sys.executable, "-c", "pass"], check=True).returncode


# unit name -> (work that does not touch saska; its nominal time, about its
# time on 2 vCPUs of an Intel Xeon at 2.0 GHz with Python 3.11; the share of
# a run's busy time spent on units)
UNITS = {
    "interpreter": (interpreter_unit, 2_000_000, 0.05),
    "bignum": (bignum_unit, 1_800_000, 0.05),
    "startup": (startup_unit, 60_000_000, 0.2),
}


class Calibration:
    """Units interleaved with a run's operations."""

    def __init__(self, unit: str):
        self.unit = unit
        self.samples: list[tuple[int, int]] = []  # (operations done before the unit, its ns)
        self._ns = 0

    def run_unit(self, done: int):
        start = perf_counter_ns()
        UNITS[self.unit][0]()
        ns = perf_counter_ns() - start
        self._ns += ns
        self.samples.append((done, ns))

    def keep_up(self, busy_ns: float, done: int):
        """After `done` operations that took `busy_ns`, run units until they
        have taken the unit's share of that time."""
        while self._ns < UNITS[self.unit][2] * busy_ns or not self.samples:
            self.run_unit(done)

    def as_dict(self) -> dict:
        return {"unit": self.unit, "samples": self.samples}


def speed_factor(calibration: dict) -> float:
    """Nominal ÷ mean measured unit time: below 1 on a machine running
    slower than nominal."""
    samples = calibration["samples"]
    return UNITS[calibration["unit"]][1] * len(samples) / sum(ns for _, ns in samples)


def at_nominal_speed(times: list[float], calibration: dict) -> list[float]:
    """Scale each operation's time by the speed of the WINDOW units measured
    around the first unit that ran after it."""
    samples = calibration["samples"]
    nominal = UNITS[calibration["unit"]][1]
    ns = [unit_ns for _, unit_ns in samples]
    half = WINDOW // 2
    local = [nominal * len(near) / sum(near)
             for near in (ns[max(0, k - half):k + half] for k in range(len(ns)))]
    scaled, k = [], 0
    for op, t in enumerate(times):
        while k < len(samples) - 1 and samples[k][0] <= op:
            k += 1
        scaled.append(t * local[k])
    return scaled
