"""Timing at reference speed, span tracing and result reporting.

The host this benchmark was built on drifts in speed in phases a few seconds
long, and process CPU time drifts with it.  Every timed call is therefore
bracketed by a short fixed calibration kernel and converted to *reference
speed*: ``raw × NOMINAL_KERNEL_S / kernel``, where ``kernel`` is the mean of
the kernel times measured just before and just after the call.  Units stay
seconds; a figure reads as "what the call would have taken on a host that
runs the kernel in ``NOMINAL_KERNEL_S``".

Nothing here imports ``repro``: the kernel must not move when the program
under test changes.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Fixed nominal time of one calibration kernel run, in seconds.  It is the
#: kernel's median on the reference machine (see README.md), so reference
#: figures there read close to raw figures.
NOMINAL_KERNEL_S = 0.0045

#: Kernel runs per measurement; the measurement is their median.
KERNEL_REPEATS = 3

_SORT_INPUT = np.random.default_rng(20120326).random(150_000)


def calibration_kernel() -> int:
    """A fixed mix of dict/tuple/str churn, integer arithmetic and a numpy sort.

    The three parts take similar times.  On the reference host each alone
    tracked the program's slow phases worse than the mix: the dict churn
    over-reacted, the arithmetic and the sort under-reacted.
    """
    index: dict[str, list[tuple[str, int]]] = {}
    for i in range(3000):
        key = "s%d" % (i % 997)
        index.setdefault(key, []).append((key, i))
    acc = 0
    for i in range(15000):
        acc += (i * 7) % 13
    ordered = np.sort(_SORT_INPUT)
    return len(index) + acc + int(ordered[0] >= 0.0)


def kernel_time() -> float:
    """Median wall time of ``KERNEL_REPEATS`` kernel runs.

    The collector is paused meanwhile: a collection triggered by the
    kernel's allocations would scan the program's heap and make the kernel
    depend on the program's memory use.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class CheckFailed(Exception):
    """An output check found a wrong result."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


class Meter:
    """Times calls into the program, per round, with optional spans.

    ``op`` is the only way a workload times anything.  During set-up
    (``begin_setup``/``end_setup``) op times add up to one set-up total;
    during measurement each round (``begin_round``/``end_round``) keeps its
    ops, its calibration time and, when the round is traced, the spans
    recorded in it.  Spans hold a name, start, end, parent and cycle (round)
    id; nested spans opened by ``span`` inside an op take the op's
    reference-speed factor.
    """

    def __init__(self) -> None:
        self.kernels: list[float] = []
        self.rounds: list[dict[str, Any]] = []
        self.spans: list[dict[str, Any]] = []
        self.attempted = 0
        self.failed = 0
        self.tracing = False
        self._setup: float | None = None
        self._round: dict[str, Any] | None = None
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    # -- phases ----------------------------------------------------------------

    def begin_setup(self) -> None:
        self._setup = 0.0

    def end_setup(self) -> float:
        total, self._setup = self._setup, None
        return total

    def begin_round(self, index: int, traced: bool) -> None:
        gc.collect()
        self.tracing = traced
        self._round = {
            "index": index, "traced": traced, "ops": [], "kernel_s": 0.0,
            "gc_start": gc.get_stats()[2]["collections"], "started": time.perf_counter(),
        }
        self._stack = []
        if traced:
            self._round["root"] = self._open("round")

    def end_round(self) -> dict[str, Any]:
        rnd, self._round = self._round, None
        rnd["wall_s"] = time.perf_counter() - rnd["started"]
        if "gc_gen2" not in rnd:
            self.mark_ops_done(rnd)
        rnd["ref_s"] = sum(ref for _, _, ref in rnd["ops"])
        if rnd["traced"]:
            self._close(rnd["root"])
            rnd["self_s"] = self._self_times(rnd["root"])
        self.tracing = False
        self.rounds.append(rnd)
        return rnd

    def mark_ops_done(self, rnd: dict[str, Any] | None = None) -> None:
        """Record the round's full-GC count once its last op has run."""
        rnd = self._round if rnd is None else rnd
        if rnd is not None:
            rnd["gc_gen2"] = gc.get_stats()[2]["collections"] - rnd["gc_start"]

    # -- timing ----------------------------------------------------------------

    def _kernel(self) -> float:
        start = time.perf_counter()
        measured = kernel_time()
        self.kernels.append(measured)
        if self._round is not None:
            self._round["kernel_s"] += time.perf_counter() - start
        return measured

    def op(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` between two kernel measurements; return its result."""
        before = self._kernel()
        span = self._open(name) if self.tracing else None
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        if span is not None:
            self._close(span)
        after = self._kernel()
        factor = NOMINAL_KERNEL_S / ((before + after) / 2.0)
        if span is not None:
            for record in self.spans[span:]:
                record["factor"] = factor
        ref = raw * factor
        if self._setup is not None:
            self._setup += ref
        elif self._round is not None:
            self._round["ops"].append((name, raw, ref))
            self.attempted += 1
        return result

    def count(self, failed: bool) -> None:
        """Count an untimed operation of a measured round."""
        if self._round is not None:
            self.attempted += 1
            self.failed += int(failed)

    @contextmanager
    def span(self, name: str):
        """A nested span inside the current op (no-op unless tracing)."""
        if not self.tracing:
            yield
            return
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({
            "name": name, "start": time.perf_counter() - self._origin, "end": None,
            "parent": parent, "cycle": self._round["index"], "factor": 1.0,
        })
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter() - self._origin
        if self._stack and self._stack[-1] == index:
            self._stack.pop()

    def _self_times(self, root: int) -> dict[str, float]:
        """Reference-speed self time per span name inside one round."""
        child_time = [0.0] * len(self.spans)
        for i in range(root + 1, len(self.spans)):
            span = self.spans[i]
            child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for i in range(root + 1, len(self.spans)):
            span = self.spans[i]
            own = (span["end"] - span["start"] - child_time[i]) * span["factor"]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    # -- round series ----------------------------------------------------------

    def untraced(self) -> list[dict[str, Any]]:
        return [rnd for rnd in self.rounds if not rnd["traced"]]

    def traced(self) -> list[dict[str, Any]]:
        return [rnd for rnd in self.rounds if rnd["traced"]]

    def op_samples(self, names: set[str], rounds: list[dict[str, Any]] | None = None):
        """(raw, ref) pairs of every op with one of ``names``."""
        rounds = self.untraced() if rounds is None else rounds
        return [(raw, ref) for rnd in rounds for name, raw, ref in rnd["ops"] if name in names]


# ---------------------------------------------------------------------------
# Statistics and reporting
# ---------------------------------------------------------------------------

def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail(values: list[float]) -> str:
    """Median plus the highest percentile with ten samples beyond it.

    With fewer than forty samples such a percentile would be no tail, so the
    median is reported alone.
    """
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"median {median(values):.6g} (n={n})"
    if n >= 40:
        q = 1.0 - 10.0 / n
        ordered = sorted(values)
        text += f", p{100 * q:.1f} {ordered[min(n - 1, int(q * n))]:.6g}"
    return text


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set size among waited-for child processes, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = root / ".git" / ref
            if loose.exists():
                return loose.read_text().strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "not a git checkout"


def environment_stamp(root: Path, meter: Meter) -> dict[str, Any]:
    return {
        "cores": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(root),
        "kernel_raw_median_ms": 1000.0 * median(meter.kernels),
        "kernel_nominal_ms": 1000.0 * NOMINAL_KERNEL_S,
    }


def emit(line: str = "") -> None:
    print(line, flush=True)


def emit_result(correct: bool, meter: Meter, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the result as one JSON line, the last line of standard output."""
    payload = {
        "correct": correct,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
