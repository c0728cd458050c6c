"""Machine-speed reference for the benchmark's end-to-end times.

On a shared host the cores speed up and slow down by up to 1.5x within
minutes, far more than the changes the benchmark must catch. A
reference process runs a fixed pure-Python kernel (JSON round trips and
float arithmetic, like the estimator's own work) at the lowest priority
on the same core as the benchmark and everything it starts. It gets
about 1.5% of that core, in slices between the measured program's, so
it runs under the same conditions. A measured interval is scaled by
the kernel's rate (iterations per second of its own CPU time) over the
same interval:

    normalized = wall * rate / REFERENCE_RATE

A slower machine stretches the wall time and lowers the rate alike and
leaves the result unchanged. The measured programs run on one core, so
a change that makes them use more cores cannot lower these numbers.

``python clock.py`` is the reference process: it loops the kernel and
answers each SIGUSR1 with ``<iterations> <CPU seconds>`` on stdout.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

#: Kernel iterations per CPU-second that normalized times are scaled to,
#: a typical reference rate on the 2-vCPU VM the benchmark was built on.
REFERENCE_RATE = 40_000.0

_DOCUMENT = {"a": [1.5, 2.5, {"b": "xyz", "c": [1, 2, 3]}] * 4, "d": {"e": 1e-9, "f": "text" * 3}}


def kernel() -> float:
    """One iteration of the reference work."""
    decoded = json.loads(json.dumps(_DOCUMENT, sort_keys=True))
    return sum(x * 1.0001 for x in range(20)) + len(decoded["a"])


def _reference_loop() -> None:
    os.nice(19)
    parent = os.getppid()
    count = 0

    def report(signum, frame) -> None:
        sys.stdout.write(f"{count} {time.process_time()}\n")
        sys.stdout.flush()

    signal.signal(signal.SIGUSR1, report)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while count % 4096 or os.getppid() == parent:  # never outlive the benchmark
        kernel()
        count += 1


class SpeedReference:
    """The reference process, pinned with the benchmark to one core.

    Disabled, it starts nothing and every factor is 1: times are plain
    wall times.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.cores = os.sched_getaffinity(0)
        self.proc: subprocess.Popen | None = None
        self.rates: list[float] = []
        if not enabled:
            return
        self.core = max(self.cores)
        os.sched_setaffinity(0, {self.core})
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("speed reference did not start")

    def mark(self) -> tuple[int, float]:
        if self.proc is None:
            return 0, 0.0
        self.proc.send_signal(signal.SIGUSR1)
        count, seconds = self.proc.stdout.readline().split()
        return int(count), float(seconds)

    def factor(self, since: tuple[int, float]) -> float:
        """rate / REFERENCE_RATE over the interval that started at ``since``."""
        if self.proc is None:
            return 1.0
        count, seconds = self.mark()
        rate = (count - since[0]) / (seconds - since[1])
        self.rates.append(rate)
        return rate / REFERENCE_RATE

    def note(self) -> str:
        if not self.rates:
            return "speed reference: none, plain wall times"
        return (
            f"speed reference on core {self.core}: median rate {statistics.median(self.rates):.0f}/s, "
            f"range {min(self.rates):.0f}..{max(self.rates):.0f} (n={len(self.rates)})"
        )

    def __enter__(self) -> "SpeedReference":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
            os.sched_setaffinity(0, self.cores)


if __name__ == "__main__":
    _reference_loop()
