"""Span recorders installed around the package's public entry points.

Only traced runs install them; timed runs execute the package untouched.
A span records its name, start, end, parent span and request id; spans
stay in memory and are written out once, at the end.  Recording is
single-threaded by design: the traced serve replay and the ``workers=1``
campaign both run inline in one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

#: Serving path, as a daemon lane runs it for one request (see
#: ``replay_child.lane_predict``): route to the device's service, look
#: the kernel up in the feature cache, one ``predict_batch`` pass, render.
#: A span name is the layer it attributes self time to.
SERVE_POINTS = (
    ("repro.serve.fleet", "FleetService._service_for_slug", "fleet.route"),
    ("repro.serve.registry", "ModelRegistry.get", "store.bundle_load"),
    ("repro.serve.service", "PredictionService.predict_batch",
     "service.predict_batch"),
    ("repro.serve.cache", "KernelFeatureCache.get", "cache.get"),
    ("repro.features.extractor", "lower_source", "clkernel.lower"),
    ("repro.features.extractor", "FeatureExtractor.extract_from_ir",
     "features.extract"),
    ("repro.core.pipeline", "build_batch_design_matrix",
     "features.design_matrix"),
    ("repro.core.pipeline", "TrainedModels.predict_speedup",
     "ml.speedup_predict"),
    ("repro.core.pipeline", "TrainedModels.predict_energy", "ml.energy_predict"),
    ("repro.core.predictor", "pareto_front_masks", "pareto.front"),
    ("repro.core.predictor", "ParetoPredictor.predict_batch",
     "predictor.assemble"),
    ("repro.harness.report", "format_front", "render.format"),
)

#: Training path, traced inside ``run_campaign`` at ``workers=1``.
TRAIN_POINTS = (
    ("repro.campaign.engine", "run_campaign", "campaign.run"),
    ("repro.measure.simulator", "SimulatorBackend.measure", "measure.sweep"),
    ("repro.workloads", "lower_source", "clkernel.lower"),
    ("repro.features.extractor", "lower_source", "clkernel.lower"),
    ("repro.features.extractor", "FeatureExtractor.extract_from_ir",
     "features.extract"),
    ("repro.measure.trace", "TraceWriter.write_measurements", "trace.write"),
    ("repro.measure.trace", "TraceWriter.close", "trace.write"),
    ("repro.measure.trace_registry", "TraceRegistry.compact", "trace.compact"),
    ("repro.core.dataset", "DatasetAssembler.add", "dataset.assemble"),
    ("repro.core.dataset", "DatasetAssembler.finish", "dataset.assemble"),
    ("repro.ml.scaling", "StandardScaler.fit", "ml.scaler_fit"),
    ("repro.ml.svr", "SVR.fit", "ml.svr_fit"),
    ("repro.serve.registry", "ModelRegistry.put", "store.publish"),
)


class Tracer:
    """In-memory span log with a parent stack."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, request id, labels]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request_id: int | None = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.request_id, None]
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, labels: dict | None = None) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        if labels:
            span[5] = labels

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, request, labels in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "labels": labels,
                }) + "\n")


def read_spans(path) -> list[dict]:
    """Spans a :meth:`Tracer.write` call left in ``path``."""
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def span_tuples(spans: list[dict]) -> list[tuple]:
    """``(name, start, end, parent)`` of every finished span."""
    return [(s["name"], s["start"], s["end"], s["parent"])
            for s in spans if s["end"] is not None]


def _span_name(name: str, args) -> str:
    if name == "ml.svr_fit":
        from repro.ml.kernels import LinearKernel

        # One SVR class fits both objectives: the linear kernel is the
        # speedup model, the RBF kernel the energy model.
        linear = isinstance(args[0].kernel, LinearKernel)
        return "ml.speedup_fit" if linear else "ml.energy_fit"
    return name


def _labels(name: str, args, result) -> dict | None:
    """The work counts the benchmark reports, recorded where the work
    happens."""
    if name == "ml.energy_predict":
        return {"rows": int(args[1].shape[0])}
    if name == "ml.energy_fit":
        model = args[0]
        return {"epochs": int(model.n_epochs_),
                "support_vectors": int(model.n_support_)}
    if name == "dataset.assemble" and hasattr(result, "n_samples"):
        return {"rows": int(result.n_samples)}
    return None


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = _span_name(name, args)
        index = tracer.begin(span_name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.end(index, _labels(span_name, args, result))

    return wrapper


class installed:
    """Context manager: wrap ``points`` with ``tracer``'s recorders and
    restore the originals on exit."""

    def __init__(self, tracer: Tracer, points) -> None:
        self.tracer = tracer
        self.points = points
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module_name, dotted, name in self.points:
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.tracer, name, original))
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
