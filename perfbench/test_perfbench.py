"""Tests of the benchmark's own helpers and a tiny run of each workload.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    covered,
    layer_summary,
    percentile,
    self_times,
    span_coverage,
)
from streams import WORKLOADS, cold_stream, hot_pairs, hot_stream  # noqa: E402


# -- percentile rule -----------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 1001))  # nearest rank 990 leaves 10 above it
    assert percentile(samples, 0.99) == 990
    assert percentile(samples[:-1], 0.99) is None


def test_percentile_median_and_empty():
    assert percentile([5, 1, 3, 2, 4] * 5, 0.5) == 3
    assert percentile([], 0.5) is None
    assert percentile([1.0, 2.0], 0.5, min_beyond=0) == 1.0
    with pytest.raises(ValueError):
        percentile([1.0], 1.0)


# -- self-time arithmetic --------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 6.0, 0),
        ("a.child", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_unions_overlap_and_clips_stragglers():
    spans = [
        ("root", 0.0, 10.0, None),
        ("x", 1.0, 5.0, 0),
        ("y", 3.0, 7.0, 0),  # overlaps x: union 1..7
        ("z", 9.0, 12.0, 0),  # runs past the parent: clipped to 9..10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_covered_and_layer_summary():
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    summary = layer_summary([
        ("root", 0.0, 4.0, None),
        ("leaf", 0.0, 1.0, 0),
        ("leaf", 2.0, 5.0, 0),
    ])
    assert summary["leaf"]["calls"] == 2
    assert summary["leaf"]["self_s"] == pytest.approx(4.0)
    assert summary["root"]["self_s"] == pytest.approx(1.0)


def test_span_coverage_leaves_root_self_time_out():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("root", 10.0, 12.0, None),  # a request no inner layer covers
    ]
    assert span_coverage(spans, 12.0) == pytest.approx(3.0 / 12.0)
    # Unwrapping the inner layer moves its time into the root: lost.
    assert span_coverage(spans[:1], 12.0) == 0.0


# -- seeded generators -----------------------------------------------------------


def _take(stream, n):
    return list(itertools.islice(stream, n))


def test_hot_stream_is_deterministic_and_seeded():
    pairs = hot_pairs()
    assert len(pairs) == 24 and len({p.key for p in pairs}) == 24
    assert _take(hot_stream(7, 0), 50) == _take(hot_stream(7, 0), 50)
    starts = {_take(hot_stream(seed, 0), 1)[0] for seed in range(20)}
    assert len(starts) > 1


def test_hot_connections_keep_to_their_own_device_lane():
    pairs = hot_pairs()
    for seed in range(10):
        first = _take(hot_stream(seed, 0), 48)
        second = _take(hot_stream(seed, 1), 48)
        assert {r.device for r in first} == {"titan-x"}
        assert {r.device for r in second} == {"p100"}
        assert {r.key for r in first + second} == {p.key for p in pairs}


def test_cold_stream_is_deterministic():
    assert _take(cold_stream(3, 0), 20) == _take(cold_stream(3, 0), 20)
    assert _take(cold_stream(3, 0), 5) != _take(cold_stream(4, 0), 5)


def test_cold_stream_never_repeats_a_source_within_a_run():
    seen = set()
    for connection in range(2):
        for request in _take(cold_stream(11, connection), 400):
            assert request.source not in seen
            seen.add(request.source)
    assert len(seen) == 800


def test_every_workload_says_why_as_benchmark_json_does():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    for workload in WORKLOADS.values():
        assert workload.why and "\n" not in workload.why
        assert len(workload.why) <= 200


# -- runs ------------------------------------------------------------------------


def _run(cwd, workload, seconds="1", trace="0", timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", seconds, "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result, json.loads(lines[-2])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_of_each_workload(workload):
    result, info = _result(_run(HERE.parent, workload))
    metrics = result["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    withheld = set(declared) - set(metrics)
    # Too few samples to resolve p99 in a one-second run: withheld.
    assert withheld <= {"latency_p99_ms"}
    assert bool(withheld) == (info["serve_samples"] < 1000)
    for name, metric in metrics.items():
        assert metric["unit"] == declared[name]
        assert metric["value"] > 0, name
    assert metrics["ok_frac"]["value"] == 1.0
    assert info["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_tiny_traced_run_reports_every_layer():
    result, _info = _result(_run(HERE.parent, "serve-cold", trace="1"))
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["cache.hit_frac"]["value"] == 0.0
    assert metrics["clkernel.lower.calls"]["value"] > 0
    assert metrics["obs.serve_span_coverage"]["value"] >= 0.9
    assert metrics["obs.train_span_coverage"]["value"] >= 0.9


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "serve-hot", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
