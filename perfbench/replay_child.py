"""Replay a request stream in a fresh process: bundle load, then one
prediction plus ``format_front`` per request.

Two paths:

* ``offline`` -- ``FleetService.predict``, the rendering ``repro predict``
  prints and a daemon's ``?format=text`` answer must equal byte for byte;
* ``lane`` -- the calls a daemon lane makes for a lone request (see
  :func:`lane_predict`), so in-process timings and spans explain the
  daemon's own latency.

A fresh process per replay, because lowering and the analysis passes are
memoized process-wide: a second replay in one process would find every
cold kernel already lowered.  With ``--trace 1`` the span recorders wrap
the serving path and the spans land in ``--spans-out``; each request runs
under a ``serve.request`` root span carrying its index as request id.

Usage: python3 replay_child.py --store DIR --requests FILE
       [--path offline|lane] [--trace 0|1 --spans-out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def lane_predict(fleet, device: str, source: str, kernel_name: str):
    """What a daemon lane does for a batch of one: resolve the device's
    service, validate the kernel (a feature-cache lookup), then one
    ``predict_batch`` pass."""
    service = fleet._service_for_slug(fleet.slug_for(device))
    service.features_for(source, kernel_name)
    return service.predict_batch([(source, kernel_name)])[0]


def offline_predict(fleet, device: str, source: str, kernel_name: str):
    return fleet.predict(source, kernel_name=kernel_name, device=device)


PATHS = {"offline": offline_predict, "lane": lane_predict}


def replay(store, requests, predict, tracer=None) -> dict:
    from repro.harness import report
    from repro.serve.fleet import FleetService

    started = time.perf_counter()
    fleet = FleetService.from_campaign_store(store)
    fleet.warm()
    per_request, bodies = [], []
    for index, (device, kernel_name, source) in enumerate(requests):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.request_id = index
            root = tracer.begin("serve.request")
        result = predict(fleet, device, source, kernel_name)
        bodies.append(report.format_front(result))
        if tracer is not None:
            tracer.end(root)
        per_request.append(time.perf_counter() - t0)
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "per_request": per_request,
        "sha256": [
            hashlib.sha256((body + "\n").encode("utf-8")).hexdigest()
            for body in bodies
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--requests", required=True)
    parser.add_argument("--path", choices=sorted(PATHS), default="offline")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    requests = json.loads(Path(args.requests).read_text())
    predict = PATHS[args.path]
    if args.trace:
        from tracing import SERVE_POINTS, Tracer, installed

        tracer = Tracer()
        with installed(tracer, SERVE_POINTS):
            result = replay(args.store, requests, predict, tracer)
        tracer.write(args.spans_out)
    else:
        result = replay(args.store, requests, predict)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
