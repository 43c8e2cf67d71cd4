"""One campaign in a fresh process: ``repro.campaign.run_campaign`` into a
new store, then a JSON summary on stdout.

The parent times set-up from the moment it spawns this process to the
first ``campaign.sweep`` span start in the store's ``spans.jsonl``, so
interpreter start, imports and pool start-up all count.  With
``--trace 1`` the span recorders wrap the training path and the spans
land in ``--spans-out``.

Usage: python3 campaign_child.py --store DIR --devices a,b --workers N
       [--trace 0|1 --spans-out FILE]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import tree_digests  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--devices", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    from repro.campaign import CampaignPlan
    from repro.campaign import engine
    from repro.obs import read_spans
    from repro.store.layout import MODELS_SUBDIR, SPANS_FILENAME

    plan = CampaignPlan(
        devices=tuple(args.devices.split(",")),
        recipe="paper",
        workers=args.workers,
        trainer="exact",
    )
    store = pathlib.Path(args.store)
    tracer = None
    if args.trace:
        from tracing import TRAIN_POINTS, Tracer, installed

        tracer = Tracer()
        with installed(tracer, TRAIN_POINTS):
            start = time.perf_counter()
            report = engine.run_campaign(plan, store)
            wall = time.perf_counter() - start
        tracer.write(args.spans_out)
    else:
        start = time.perf_counter()
        report = engine.run_campaign(plan, store)
        wall = time.perf_counter() - start

    events = read_spans(store / SPANS_FILENAME)
    starts = {e["id"]: e for e in events if e.get("event") == "start"}
    spans: dict[str, list[tuple[float, float]]] = {}
    for event in events:
        if event.get("event") == "end" and event["id"] in starts:
            begun = starts[event["id"]]["unix_ts"]
            spans.setdefault(event["name"], []).append(
                (begun, begun + event["duration_seconds"])
            )

    def union_span(name: str) -> float:
        intervals = spans.get(name, [])
        if not intervals:
            return 0.0
        return max(e for _s, e in intervals) - min(s for s, _e in intervals)

    first_sweep = min(
        e["unix_ts"] for e in events
        if e.get("event") == "start" and e["name"] == "campaign.sweep"
    )
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    json.dump(
        {
            "rows": report.n_samples,
            "campaign_s": report.seconds,
            "wall_s": wall,
            "first_sweep_unix": first_sweep,
            "peak_rss_mb": peak_kb / 1024.0,
            "worker_util": report.progress.utilization(),
            "sweeps": report.progress.done,
            "sweep_span_s": union_span("campaign.sweep"),
            "train_span_s": union_span("campaign.train"),
            "bundles": tree_digests(store / MODELS_SUBDIR),
            "bundle_bytes": sum(
                p.stat().st_size for p in (store / MODELS_SUBDIR).rglob("*")
                if p.is_file()
            ),
            "trace_bytes": sum(
                p.stat().st_size for p in (store / "traces").rglob("*")
                if p.is_file()
            ),
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
