"""Train phase: paper-recipe campaigns in fresh processes, and the
untimed accuracy score of the published titan-x bundle."""

from __future__ import annotations

import pathlib
import sys
import time

from common import run_child

HERE = pathlib.Path(__file__).resolve().parent
#: The bundle scored for accuracy: the paper's test platform.
SCORED_DEVICE = "titan-x"


def spawn_campaign(store, devices, workers: int, env: dict,
                   spans_out=None) -> dict:
    """Run ``campaign_child.py`` and return its summary plus ``setup_s``:
    spawn to the first ``campaign.sweep`` span start."""
    cmd = [sys.executable, str(HERE / "campaign_child.py"),
           "--store", str(store), "--devices", ",".join(devices),
           "--workers", str(workers)]
    if spans_out is not None:
        cmd += ["--trace", "1", "--spans-out", str(spans_out)]
    spawned = time.time()
    summary = run_child(cmd, env)
    summary["setup_s"] = summary["first_sweep_unix"] - spawned
    summary["rows_per_s"] = summary["rows"] / summary["campaign_s"]
    summary["store"] = pathlib.Path(store)
    return summary


def score(store) -> dict:
    """Fig. 6/7 RMSE and Table 2 mean D(P*, P') of the scored bundle on
    the 12 test kernels, over the paper recipe's 40 sampled settings."""
    from repro.core.config import modeled_subset
    from repro.core.predictor import ParetoPredictor
    from repro.gpusim.device import resolve_device
    from repro.gpusim.executor import GPUSimulator
    from repro.harness.errors import prediction_errors
    from repro.harness.evaluation import evaluate_suite
    from repro.campaign import CampaignPlan
    from repro.serve.registry import ModelRegistry
    from repro.store.layout import MODELS_SUBDIR
    from repro.suite import test_benchmarks

    device = resolve_device(SCORED_DEVICE)
    plan = CampaignPlan(devices=(SCORED_DEVICE,), recipe="paper")
    models = ModelRegistry(pathlib.Path(store) / MODELS_SUBDIR).get(
        plan.model_key(device)
    )
    settings = plan.settings_for(device)
    sim = GPUSimulator(device)
    specs = test_benchmarks()
    speedup = prediction_errors(sim, models, specs, settings, "speedup")
    energy = prediction_errors(sim, models, specs, settings, "energy")
    predictor = ParetoPredictor(
        models, device, candidates=modeled_subset(device, settings)
    )
    rows = evaluate_suite(sim, predictor, specs, settings)
    return {
        "speedup_rmse_pct": speedup.overall_rmse(),
        "energy_rmse_pct": energy.overall_rmse(),
        "pareto_distance": sum(r.coverage_diff for r in rows) / len(rows),
    }


def bundle_support_vectors(store, devices) -> dict[str, int]:
    """Energy-model support vectors of each device's published bundle."""
    from repro.campaign import CampaignPlan
    from repro.gpusim.device import resolve_device
    from repro.serve.registry import ModelRegistry
    from repro.store.layout import MODELS_SUBDIR

    registry = ModelRegistry(pathlib.Path(store) / MODELS_SUBDIR)
    plan = CampaignPlan(devices=tuple(devices), recipe="paper")
    return {
        device: int(
            registry.get(plan.model_key(resolve_device(device)))
            .energy_model.n_support_
        )
        for device in devices
    }

