"""The repository benchmark: train, score and serve at paper scale.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs the same three phases over one fresh store, weighted
differently (see ``streams.WORKLOADS`` for why each exists):

* train -- ``repro.campaign.run_campaign`` (paper recipe, exact trainer,
  ``workers=2``) in a fresh process per campaign, at least twice.
  ``train-campaign`` repeats it over every registered device until
  ``--seconds`` have passed; the serve workloads train titan-x and p100,
  the store they serve.  Every repeat must publish byte-identical
  bundles.
* score -- untimed: Fig. 6/7 RMSE and Table 2 mean D(P*, P') of the
  published titan-x bundle on the 12 test kernels.
* serve -- ``repro serve-daemon --port 0 --reload-interval 0`` over that
  store in its own process, and a closed loop of two keep-alive
  connections sending ``POST /predict?format=text``.  The daemon starts
  three times; each process gets a warm-up and then a third of the
  ``--seconds`` window.  Set-up, throughput, server CPU and peak memory
  are medians over the three processes; latency percentiles pool every
  window's samples.  Afterwards every response is compared byte for byte
  with ``FleetService.predict`` + ``format_front`` run offline on the
  same store.

Every run reports every end-to-end metric BENCHMARK.json names, so each
workload exercises all three phases: a serve workload's ``train_rows_per_s`` comes from the
campaign that builds its store, and ``train-campaign``'s serving figures
from the daemon over the store it just published.  ``setup_s`` and
``peak_rss_mb`` belong to the workload's primary phase: the daemon for
the serve workloads (spawn to the first ``/healthz`` 200 with every device
loaded; VmHWM), the campaign for ``train-campaign`` (spawn to the first
``campaign.sweep`` span; peak RSS over the campaign process and its pool
workers).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: the campaign runs twice more at ``workers=1``
(once plain, once with span recorders around the training path; both
must publish the pooled run's bundles byte for byte), the daemon's
``/stats`` counters are read after the window, and the stream is replayed
in process along the calls a daemon lane makes, plain and with span
recorders around the serving path.  Serve-layer ``*_ms`` values are
per-call median self times; train-layer ``*_ms`` values are self time
summed over one campaign.  Span coverage counts only the self time of
spans below the roots (``campaign.run``, ``serve.request``), so a layer
left unwrapped shows as lost coverage.

The last line of stdout is the result object; the line before it carries
the environment stamp and sample counts, also written with the spans
under ``.perfbench_out/``.  Any failed operation or output check makes
the exit code nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from common import BLAS_ENV  # noqa: E402

# Before numpy loads anywhere in this process or the ones it starts.
os.environ.update(BLAS_ENV)

from common import (  # noqa: E402
    environment_stamp,
    layer_summary,
    median,
    percentile,
    span_coverage,
)
from streams import SERVE_DEVICES, WORKLOADS, stream_for  # noqa: E402

#: Campaigns per timed run; ``train_rows_per_s`` is their median, and
#: ``train-campaign`` adds more until ``--seconds`` have passed.
MIN_CAMPAIGNS = 2
#: Closed-loop connections: one per device lane (see streams.hot_stream).
CONNECTIONS = 2
#: Daemon processes per run, each measured for an equal share of the
#: window; set-up, throughput and server CPU are medians over them.
DAEMON_STARTS = 3
#: In-process replay length for the traced run, per stream kind: about
#: two seconds of untraced work each.
REPLAY_REQUESTS = {"hot": 1500, "cold": 250}

#: Every metric the benchmark prints, with its unit, as BENCHMARK.json
#: declares it.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class Outcome:
    """Operations attempted and the ones that failed, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def record_many(self, total: int, ok: int, what: str) -> None:
        self.attempted += total
        self.failures.extend([what] * (total - ok))


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def train_phase(workload, devices, seconds, trace, work, out, tag, outcome):
    """Campaign(s) into fresh stores; returns (campaigns, layer metrics)."""
    from tracing import read_spans
    from train import spawn_campaign

    env = child_env()
    campaigns = []
    started = time.perf_counter()
    least = 1 if trace else MIN_CAMPAIGNS
    timed = workload.primary == "train" and not trace
    while len(campaigns) < least or (
        timed and time.perf_counter() - started < seconds
    ):
        store = work / f"store-{len(campaigns)}"
        campaigns.append(spawn_campaign(store, devices, 2, env))
        outcome.record(
            campaigns[-1]["bundles"] == campaigns[0]["bundles"],
            "campaign repeat published different bundles",
        )
    layers = {}
    if trace:
        plain = spawn_campaign(work / "store-serial", devices, 1, env)
        spans_path = out / f"{tag}-train-spans.jsonl"
        traced = spawn_campaign(work / "store-traced", devices, 1, env,
                                spans_out=spans_path)
        for run in (plain, traced):
            outcome.record(run["bundles"] == campaigns[0]["bundles"],
                           "workers=1 campaign differs from workers=2")
        layers = train_layers(read_spans(spans_path), traced, plain,
                              campaigns[0])
    return campaigns, layers


#: Train-path span → metric prefix.  Lowering and feature extraction also
#: run on the serving path, so their training-side names say so.
TRAIN_LAYERS = {
    "measure.sweep": "measure.sweep",
    "trace.write": "trace.write",
    "trace.compact": "trace.compact",
    "dataset.assemble": "dataset.assemble",
    "ml.scaler_fit": "ml.scaler_fit",
    "ml.speedup_fit": "ml.speedup_fit",
    "ml.energy_fit": "ml.energy_fit",
    "store.publish": "store.publish",
    "clkernel.lower": "train.clkernel.lower",
    "features.extract": "train.features.extract",
    "campaign.run": "campaign.self",
}


def train_layers(spans, traced, plain, pooled) -> dict:
    """Self time summed over the traced ``workers=1`` campaign, per layer,
    plus work counts; utilization and spans come from the pooled run."""
    from tracing import span_tuples
    from train import bundle_support_vectors

    tuples = span_tuples(spans)
    summary = layer_summary(tuples)
    metrics = {}
    for span_name, prefix in TRAIN_LAYERS.items():
        layer = summary.get(span_name, {"calls": 0, "self_s": 0.0})
        metrics[f"{prefix}_ms"] = layer["self_s"] * 1e3
        metrics[f"{prefix}.calls"] = layer["calls"]
    energy = [s["labels"] for s in spans if s["name"] == "ml.energy_fit"]
    support = bundle_support_vectors(pooled["store"], SERVE_DEVICES)
    for device, count in support.items():
        metrics[f"ml.energy_support_vectors.{device}"] = count
    rows = [s["labels"]["rows"] for s in spans
            if s["name"] == "dataset.assemble" and s["labels"]]
    metrics.update({
        "measure.sweeps": pooled["sweeps"],
        "trace.bytes": pooled["trace_bytes"],
        "dataset.rows": sum(rows),
        "ml.energy_fit_epochs": median(e["epochs"] for e in energy),
        "ml.energy_support_vectors": sum(e["support_vectors"] for e in energy),
        "store.bundle_bytes": pooled["bundle_bytes"],
        "campaign.worker_util": pooled["worker_util"],
        "campaign.sweep_span_s": pooled["sweep_span_s"],
        "campaign.train_span_s": pooled["train_span_s"],
        "obs.train_span_coverage": span_coverage(tuples, traced["wall_s"]),
        "obs.train_trace_overhead_frac": (
            (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
        ),
    })
    return metrics


def serve_phase(workload, store, seed, window, trace, work, out, tag,
                outcome):
    """Daemon starts, one timed window each, the oracle check and (traced)
    the in-process replay.  Returns (end-to-end parts, layer metrics, info)."""
    import serve

    env = child_env()
    streams = [stream_for(workload.stream, seed, c) for c in range(CONNECTIONS)]
    setups, windows, peaks = [], [], []
    counters = {}
    for i in range(DAEMON_STARTS):
        daemon = serve.Daemon(store, env, work / "daemon.log")
        try:
            setups.append(daemon.ready_s)
            windows.append(serve.drive(daemon, streams, window / DAEMON_STARTS))
            peaks.append(daemon.peak_rss_mb())
            if trace and i == DAEMON_STARTS - 1:
                counters = serve.stats_counters(daemon)
        finally:
            daemon.stop()
    # Arrival order interleaves the connections, as the daemon saw them.
    records = sorted((r for w in windows for r in w["records"]),
                     key=lambda r: r[5])
    requests = [r[0] for r in records]
    answers = serve.oracle(store, requests, env, work)
    outcome.record_many(len(records), serve.check(records, answers),
                        "serve response differs from offline rendering")
    metrics = serve.serve_metrics(windows)
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = median(peaks)
    latencies = [lat for w in windows for lat in w["latencies"]]
    info = {
        "serve_setups_s": setups,
        "serve_window_pred_per_s": [w["pred_per_s"] for w in windows],
        "serve_samples": len(latencies),
        "serve_requests": len(records),
    }
    layers = {}
    if trace:
        layers = serve_layers(workload.stream, store, requests, latencies,
                              counters, work, out, tag)
    return metrics, layers, info


def serve_layers(kind, store, requests, latencies, counters, work, out,
                 tag) -> dict:
    """Replay the stream's first requests in process along the daemon
    lane's path (fresh processes, plain then traced) and fold the spans
    into per-layer figures."""
    import serve
    from common import run_child
    from tracing import read_spans, span_tuples

    replayed = requests[:REPLAY_REQUESTS[kind]]
    stream_file = work / "replay.json"
    serve.write_stream(stream_file, [r.key for r in replayed])
    cmd = serve.replay_cmd(store, stream_file, "lane")
    spans_path = out / f"{tag}-serve-spans.jsonl"
    plain = run_child(cmd, child_env())
    traced = run_child(cmd + ["--trace", "1", "--spans-out", str(spans_path)],
                       child_env())
    spans = read_spans(spans_path)
    tuples = span_tuples(spans)
    summary = layer_summary(tuples)
    metrics = {}
    for name in ("fleet.route", "service.predict_batch", "store.bundle_load",
                 "cache.get", "clkernel.lower", "features.extract",
                 "features.design_matrix", "ml.speedup_predict",
                 "ml.energy_predict", "pareto.front", "predictor.assemble",
                 "render.format"):
        layer = summary.get(name, {"calls": 0, "self_p50_s": 0.0})
        metrics[f"{name}_ms"] = layer["self_p50_s"] * 1e3
        metrics[f"{name}.calls"] = layer["calls"]
    energy = [s for s in spans if s["name"] == "ml.energy_predict"]
    for device in SERVE_DEVICES:
        own = [s["end"] - s["start"] for s in energy
               if replayed[s["request"]].device == device]
        metrics[f"ml.energy_predict_ms.{device}"] = (median(own) or 0.0) * 1e3
    in_process_p50 = percentile(plain["per_request"], 0.5, min_beyond=0)
    daemon_p50 = percentile(latencies, 0.5, min_beyond=0)
    metrics.update(counters)
    metrics.update({
        "ml.predict_rows": median(s["labels"]["rows"] for s in energy) or 0.0,
        "daemon.overhead_ms": (daemon_p50 - in_process_p50) * 1e3,
        "serve.in_process_p50_ms": in_process_p50 * 1e3,
        "obs.serve_span_coverage": span_coverage(tuples, traced["wall_s"]),
        "obs.serve_trace_overhead_frac": (
            (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
        ),
    })
    return metrics


def run(workload_name, seed, seconds, trace, work, out) -> tuple[dict, dict]:
    from repro.gpusim.device import DEVICE_REGISTRY

    import train

    workload = WORKLOADS[workload_name]
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}"
    stamp = environment_stamp(ROOT)
    outcome = Outcome()
    devices = (
        tuple(DEVICE_REGISTRY) if workload.primary == "train" else SERVE_DEVICES
    )
    campaigns, train_layer_metrics = train_phase(
        workload, devices, seconds, trace, work, out, tag, outcome
    )
    store = campaigns[0]["store"]
    accuracy = train.score(store)
    serve_primary = workload.primary == "serve"
    serve_parts, serve_layer_metrics, info = serve_phase(
        workload, store, seed, seconds, trace, work, out, tag, outcome
    )

    if trace:
        metrics = {**train_layer_metrics, **serve_layer_metrics}
        primary = "serve" if serve_primary else "train"
        metrics["obs.trace_overhead_frac"] = metrics[
            f"obs.{primary}_trace_overhead_frac"
        ]
        metrics["obs.span_coverage"] = metrics[f"obs.{primary}_span_coverage"]
    else:
        metrics = dict(serve_parts)
        metrics.update(accuracy)
        metrics["train_rows_per_s"] = median(c["rows_per_s"] for c in campaigns)
        if not serve_primary:
            metrics["setup_s"] = median(c["setup_s"] for c in campaigns)
            metrics["peak_rss_mb"] = median(c["peak_rss_mb"] for c in campaigns)
        metrics["ok_frac"] = (
            (outcome.attempted - len(outcome.failures)) / outcome.attempted
        )

    stamp["loadavg_end"] = list(os.getloadavg())
    info.update({
        "workload": workload_name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": stamp,
        "campaigns": [
            {k: v for k, v in c.items() if k not in ("bundles", "store")}
            for c in campaigns
        ],
        "failures": sorted(set(outcome.failures)),
    })
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in sorted(metrics.items())
            if value is not None
        },
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from common import BenchError

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, info = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), work, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (out / f"{info['workload']}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n"
    )
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
