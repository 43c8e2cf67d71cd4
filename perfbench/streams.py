"""Seeded request streams and the workload table.

The seed is the benchmark's argument; the daemon only ever sees the
generated requests.  Each connection of the closed loop draws from its
own stream, so two connections never share a cold kernel and the order
of a hot stream depends on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: The devices every serve phase routes to: the paper's platform and its
#: portability target, alternating request by request.
SERVE_DEVICES = ("titan-x", "p100")

#: Feature classes the cold generator mixes (the synthetic pattern names).
COLD_FEATURES = (
    "int_add", "int_mul", "int_div", "int_bw", "float_add",
    "float_mul", "float_div", "sf", "gl_access", "loc_access",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "hot" repeats the 24 (kernel, device) pairs; "cold" never repeats.
    stream: str
    #: Which phase's set-up and memory the workload reports.  A "train"
    #: workload trains every registered device, a "serve" one only
    #: SERVE_DEVICES, the devices it serves.
    primary: str  # "serve" or "train"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-hot",
            "12 test kernels x 2 devices on repeat: feature-cache hits, so "
            "the HTTP lane and the model pass dominate",
            stream="hot", primary="serve",
        ),
        Workload(
            "serve-cold",
            "every request a never-seen synthetic kernel: cache misses, so "
            "lowering and the feature passes dominate",
            stream="cold", primary="serve",
        ),
        Workload(
            "train-campaign",
            "paper-recipe campaign over every registered device: sweeps and "
            "the RBF SVR fit dominate",
            stream="hot", primary="train",
        ),
    )
}


@dataclass(frozen=True)
class Request:
    device: str
    kernel_name: str
    source: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.device, self.kernel_name, self.source)

    def payload(self) -> bytes:
        return json.dumps(
            {"device": self.device, "source": self.source,
             "kernel_name": self.kernel_name}
        ).encode("utf-8")


def hot_pairs() -> list[Request]:
    """The paper's 12 test kernels on each serve device (24 pairs)."""
    from repro.suite import test_benchmarks

    return [
        Request(device, spec.kernel_name or spec.name, spec.source)
        for spec in test_benchmarks()
        for device in SERVE_DEVICES
    ]


def hot_stream(seed: int, connection: int):
    """Endless cycle over one device's pairs from a seeded offset.

    Each connection keeps to its own device, so each device lane has one
    closed-loop caller and at most one request in flight: no two
    requests are ever batched or coalesced, whatever the timing, and the
    daemon does the same work per request on every run.  Together the
    connections cover all 24 pairs.
    """
    device = SERVE_DEVICES[connection % len(SERVE_DEVICES)]
    own = [p for p in hot_pairs() if p.device == device]
    i = random.Random(f"hot:{seed}:{connection}").randrange(len(own))
    while True:
        yield own[i % len(own)]
        i += 1


def cold_kernel(rng: random.Random, name: str) -> str:
    """One synthetic mix kernel: 2-5 feature classes at seeded intensities."""
    from repro.synthetic.mixes import MixRecipe, render_mix

    features = rng.sample(COLD_FEATURES, rng.randint(2, 5))
    ops = {feature: rng.randint(1, 24) for feature in features}
    return render_mix(MixRecipe(name=name, ops=ops))


def cold_stream(seed: int, connection: int):
    """Endless never-repeating kernels for the connection's device.

    Names carry seed, connection and index, and the name is the kernel
    function's, so no two sources of one run are equal.
    """
    rng = random.Random(f"cold:{seed}:{connection}")
    device = SERVE_DEVICES[connection % len(SERVE_DEVICES)]
    i = 0
    while True:
        name = f"cold_s{seed}_c{connection}_{i}"
        yield Request(device, name, cold_kernel(rng, name))
        i += 1


def stream_for(kind: str, seed: int, connection: int):
    if kind == "hot":
        return hot_stream(seed, connection)
    if kind == "cold":
        return cold_stream(seed, connection)
    raise ValueError(f"unknown stream kind {kind!r}")
