"""Helpers shared by the benchmark's phases: statistics, span arithmetic,
process accounting and the environment stamp.

Nothing here imports the package under test, so the helpers (and their
tests) run without a built checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import time

#: Environment every process the benchmark starts inherits.  One BLAS
#: thread per process: with OpenBLAS at its default thread count, idle
#: worker threads spin on the second core, which the daemon's HTTP thread
#: (or the other pool worker) needs, and campaign wall time doubles from
#: one fresh process to the next.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: The longest one child phase (a campaign, a replay) may take.
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A phase could not run; the benchmark exits nonzero without a result."""


def run_children(cmds: list[list[str]], env: dict) -> list[dict]:
    """Run child phases side by side, each in its own session, and return
    the JSON object on the last line of each one's stdout.  On a timeout
    or failure every session is killed and reaped, pool workers included."""
    procs = [
        subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
        for cmd in cmds
    ]
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    results = []
    try:
        for cmd, proc in zip(cmds, procs):
            try:
                out, err = proc.communicate(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"{cmd[1]} did not finish in time") from None
            if proc.returncode != 0:
                raise BenchError(f"{cmd[1]} failed:\n{err[-2000:]}")
            results.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
    return results


def run_child(cmd: list[str], env: dict) -> dict:
    return run_children([cmd], env)[0]


#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise the sample cannot resolve it and it is withheld.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q: float, min_beyond: int = MIN_SAMPLES_BEYOND):
    """Nearest-rank ``q``-quantile of ``samples``, or None when fewer than
    ``min_beyond`` samples lie above the rank it picks."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return ordered[rank - 1]


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per-span self time: its duration minus the part of it that its
    direct children cover.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where
    ``parent`` is the index of the enclosing span or None.  Children are
    clipped to their parent's interval before their union is taken, so
    overlapping or straggling children never drive self time negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for i, (_name, start, end, _parent) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(i, ())
            if min(e, end) > max(s, start)
        ]
        result.append((end - start) - covered(clipped))
    return result


def layer_summary(spans) -> dict[str, dict]:
    """Per span name: call count, total and p50 self time (seconds)."""
    selfs = self_times(spans)
    by_name: dict[str, list[float]] = {}
    for (name, *_rest), own in zip(spans, selfs):
        by_name.setdefault(name, []).append(own)
    return {
        name: {
            "calls": len(values),
            "self_s": sum(values),
            "self_p50_s": statistics.median(values),
        }
        for name, values in by_name.items()
    }


def span_coverage(spans, wall_s: float) -> float:
    """Share of ``wall_s`` that the self times of non-root spans cover.

    Root spans (no parent) are the entry points whose self time absorbs
    everything no inner layer accounts for, so they are left out: a
    layer that is not wrapped lowers the coverage.
    """
    selfs = self_times(spans)
    inner = sum(own for span, own in zip(spans, selfs) if span[3] is not None)
    return inner / wall_s


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (VmHWM) in MiB."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def tree_digests(root: pathlib.Path) -> dict[str, str]:
    """sha256 of every regular file under ``root``, keyed by relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def source_revision(root: pathlib.Path) -> str:
    """The git commit of ``root``, or a content hash of its ``src`` tree
    when the checkout is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        # A checkout that is not a repository may sit inside one.
        if out.returncode == 0 and pathlib.Path(lines[0]) == root.resolve():
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for rel, sha in sorted(tree_digests(root / "src").items()):
        if "__pycache__" not in rel:
            digest.update(f"{rel}\0{sha}\n".encode())
    return "src-sha256:" + digest.hexdigest()


def environment_stamp(root: pathlib.Path) -> dict:
    """Machine and software facts every result is recorded with."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "revision": source_revision(root),
        "loadavg_start": list(os.getloadavg()),
    }
