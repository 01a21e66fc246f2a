"""Shared configuration for the pytest-benchmark harness.

By default the benchmarks run a *quick* preset (small benchmarks, multiplier
degree 1) so that ``pytest benchmarks/ --benchmark-only`` finishes in a couple
of minutes.  Set the environment variable ``REPRO_BENCH_FULL=1`` to reproduce
the paper's full parameter set (the one ``python -m repro.bench`` runs without
``--quick``; expect several minutes for the largest instances).
"""

from __future__ import annotations

import datetime
import os
import platform
import subprocess
import sys
import threading
import time

try:  # POSIX-only stdlib module; benches degrade gracefully without it
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: Bump when the shared meta block below changes incompatibly, so readers of
#: the BENCH_*.json trajectory can tell which fields to expect.
BENCH_META_SCHEMA_VERSION = 1


def _git(directory: str, *args: str) -> str | None:
    """The stripped stdout of one git command (None when it fails)."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=directory, capture_output=True, text=True, timeout=5
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _git_revision(directory: str | None = None) -> str | None:
    """The short revision the numbers were measured at (None outside git).

    A tree whose tracked files differ from that revision is marked
    ``<rev>-dirty``: a report regenerated before its change is committed
    measures that change, not the parent revision.
    """
    directory = directory or os.path.dirname(os.path.abspath(__file__))
    revision = _git(directory, "rev-parse", "--short", "HEAD")
    if not revision:
        return None
    if _git(directory, "status", "--porcelain", "--untracked-files=no"):
        return f"{revision}-dirty"
    return revision


def _rss_bytes() -> float | None:
    """Resident set size of this process right now (Linux; None elsewhere)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return float(fields[1]) * float(os.sysconf("SC_PAGE_SIZE"))
    except (OSError, IndexError, ValueError):
        return None


class ResourceMonitor:
    """RSS high-water + CPU-time sampling for one benchmark run.

    A daemon thread samples this process's resident set every
    ``interval`` seconds; :meth:`snapshot` folds in ``getrusage`` for the
    process *and its children* — on a pooled engine the worker processes do
    the heavy lifting, so children CPU is where the real cost shows up.
    All fields degrade to ``None``/``0`` where the platform lacks the
    counters rather than failing a bench.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self._started = time.time()
        self._rss_high_water = _rss_bytes() or 0.0
        self._samples = 1 if self._rss_high_water else 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="bench-resource-monitor", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            rss = _rss_bytes()
            if rss is None:
                continue
            with self._lock:
                self._samples += 1
                if rss > self._rss_high_water:
                    self._rss_high_water = rss

    def snapshot(self) -> dict:
        """The resource block to stamp into a report's meta (monitor keeps running)."""
        with self._lock:
            rss_high_water = self._rss_high_water
            samples = self._samples
        block: dict = {
            "rss_high_water_bytes": rss_high_water or None,
            "rss_samples": samples,
            "wall_seconds": time.time() - self._started,
        }
        if _resource is not None:
            own = _resource.getrusage(_resource.RUSAGE_SELF)
            kids = _resource.getrusage(_resource.RUSAGE_CHILDREN)
            block.update(
                {
                    "cpu_user_seconds": own.ru_utime,
                    "cpu_system_seconds": own.ru_stime,
                    "cpu_children_user_seconds": kids.ru_utime,
                    "cpu_children_system_seconds": kids.ru_stime,
                    # ru_maxrss is KiB on Linux; the high-water here covers
                    # the whole process lifetime, not just this monitor.
                    "maxrss_bytes": float(own.ru_maxrss) * 1024.0,
                    "maxrss_children_bytes": float(kids.ru_maxrss) * 1024.0,
                }
            )
        return block

    def stop(self) -> None:
        self._stop.set()


_monitor: ResourceMonitor | None = None


def start_resource_monitor() -> ResourceMonitor:
    """Start (or reuse) the module-level resource monitor of this bench run."""
    global _monitor
    if _monitor is None:
        _monitor = ResourceMonitor()
    return _monitor


def resource_snapshot() -> dict | None:
    """The running monitor's snapshot, or ``None`` when none was started."""
    return _monitor.snapshot() if _monitor is not None else None


def bench_meta(quick: bool) -> dict:
    """The provenance block every BENCH_*.json emitter stamps into its report.

    One shared shape (schema version, git revision, interpreter, UTC
    timestamp, quick flag, resource usage) so the reports of different
    harnesses can be correlated across PRs without per-file parsing rules.
    The ``resources`` block is present when the emitter called
    :func:`start_resource_monitor` early in its ``main``.
    """
    return {
        "schema_version": BENCH_META_SCHEMA_VERSION,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "quick": quick,
        "resources": resource_snapshot(),
    }


def benchmark_options(benchmark):
    """The synthesis options to use for a suite benchmark in the current mode."""
    if FULL_MODE:
        return benchmark.options()
    return benchmark.options(upsilon=1)
