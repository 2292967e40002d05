"""Microbenchmarks of the autograd substrate.

Not a paper artifact, but the substrate's cost model is what every
experiment above stands on: forward, backward, and double-backward
passes of the convolutional stack, the PTQ sweep primitives, and the
dataset-generation pipeline that feeds them (see
``benchmarks/bench_datagen.py`` for the full datagen axis).

Besides the pytest-benchmark timings, a standalone smoke mode records a
tracemalloc allocation profile per engine pass (transient peak bytes,
net live blocks, and the bytes the warm-up call left allocated, i.e.
what the engine keeps between steps) for resnet8 and for the
sweep-smoke MobileNetV2 — the machine-independent axis CI archives
alongside wall-clock::

    PYTHONPATH=src python benchmarks/bench_engine.py --json results/engine_alloc.json
"""

import argparse
import json
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.data import generate_dataset, resolve_spec
from repro.data.synthetic import _class_prototypes, _sample_images, _sample_images_loop, _split_labels
from repro.models import create_model
from repro.quant import QuantScheme, quantize_array
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def conv_setup():
    rng = np.random.default_rng(0)
    model = create_model("resnet8", num_classes=10, scale=1.0, seed=0)
    x = rng.standard_normal((32, 3, 8, 8))
    y = rng.integers(0, 10, 32)
    loss_fn = nn.CrossEntropyLoss()
    # Warm the conv row-index cache.
    loss_fn(model(Tensor(x)), y)
    return model, loss_fn, x, y


def test_forward_pass(benchmark, conv_setup):
    model, loss_fn, x, y = conv_setup

    def forward():
        return float(loss_fn(model(Tensor(x)), y).data)

    benchmark.pedantic(forward, rounds=10, iterations=1, warmup_rounds=2)


def test_forward_backward(benchmark, conv_setup):
    model, loss_fn, x, y = conv_setup

    def forward_backward():
        model.zero_grad()
        loss = loss_fn(model(Tensor(x)), y)
        loss.backward()
        return float(loss.data)

    benchmark.pedantic(forward_backward, rounds=10, iterations=1, warmup_rounds=2)


def test_double_backward(benchmark, conv_setup):
    model, loss_fn, x, y = conv_setup
    params = list(model.parameters())

    def double_backward():
        model.zero_grad()
        loss = loss_fn(model(Tensor(x)), y)
        loss.backward(create_graph=True)
        grads = [p.grad for p in params if p.grad is not None]
        model.zero_grad()
        penalty = None
        for g in grads:
            term = (g * g).sum()
            penalty = term if penalty is None else penalty + term
        penalty.backward()
        return float(penalty.data)

    benchmark.pedantic(double_backward, rounds=5, iterations=1, warmup_rounds=1)


def test_quantize_large_tensor(benchmark):
    rng = np.random.default_rng(0)
    w = rng.standard_normal((256, 128, 3, 3))
    scheme = QuantScheme(4)
    benchmark.pedantic(
        lambda: quantize_array(w, scheme), rounds=10, iterations=1, warmup_rounds=1
    )


# ----------------------------------------------------------------------
# Dataset generation (the bench_datagen axis at engine-bench scale)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def datagen_setup():
    spec = resolve_spec("cifar10_like", train_size=8192)
    prototypes = _class_prototypes(spec, np.random.default_rng(spec.seed))
    labels = _split_labels(spec, spec.train_size, np.random.default_rng(spec.seed + 1))
    return spec, prototypes, labels


@pytest.mark.parametrize("sampler", ["loop", "vectorized"])
def test_datagen_sampler(benchmark, datagen_setup, sampler):
    spec, prototypes, labels = datagen_setup
    fn = _sample_images_loop if sampler == "loop" else _sample_images

    def draw():
        return fn(spec, prototypes, labels, np.random.default_rng(spec.seed + 1))

    benchmark.pedantic(draw, rounds=5, iterations=1, warmup_rounds=1)


def test_datagen_sharded(benchmark):
    spec = resolve_spec("cifar10_like", train_size=50_000)
    benchmark.pedantic(
        lambda: generate_dataset(spec), rounds=3, iterations=1, warmup_rounds=1
    )


# ----------------------------------------------------------------------
# Allocation profile (standalone smoke mode — no pytest-benchmark)
# ----------------------------------------------------------------------
#: (model, scale, batch) of each profiled model: resnet8, and
#: MobileNetV2-fast at the smoke profile (0.35 x 0.5), as sweep-smoke trains it.
ENGINE_MODELS = (("resnet8", 1.0, 32), ("mobilenetv2", 0.175, 64))


def _engine_passes(model_name, scale, batch):
    """Named closures over one model: the three engine pass shapes."""
    rng = np.random.default_rng(0)
    model = create_model(model_name, num_classes=10, scale=scale, seed=0)
    x = rng.standard_normal((batch, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 10, batch)
    loss_fn = nn.CrossEntropyLoss()
    params = list(model.parameters())

    def forward():
        return float(loss_fn(model(Tensor(x)), y).data)

    def forward_backward():
        model.zero_grad()
        loss = loss_fn(model(Tensor(x)), y)
        loss.backward()
        return float(loss.data)

    def double_backward():
        model.zero_grad()
        loss = loss_fn(model(Tensor(x)), y)
        loss.backward(create_graph=True)
        grads = [p.grad for p in params if p.grad is not None]
        model.zero_grad()
        penalty = None
        for g in grads:
            term = (g * g).sum()
            penalty = term if penalty is None else penalty + term
        penalty.backward()
        return float(penalty.data)

    return [
        ("forward", forward),
        ("forward_backward", forward_backward),
        ("double_backward", double_backward),
    ]


def _alloc_profile(fn):
    """(peak_bytes, net_blocks) of one warmed call to ``fn``, and the
    bytes the warm-up call left allocated (index caches, gradients)."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        fn()  # warm-up: index caches
        warm, _ = tracemalloc.get_traced_memory()
        before = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        current0, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot()
        net_blocks = sum(
            stat.count_diff for stat in after.compare_to(before, "filename")
        )
        return int(peak - current0), int(net_blocks), int(warm - start)
    finally:
        tracemalloc.stop()


def run_alloc_smoke():
    """Allocation profile of each engine pass of each profiled model."""
    results = {"runs": []}
    for model_name, scale, batch in ENGINE_MODELS:
        for name, fn in _engine_passes(model_name, scale, batch):
            peak, net_blocks, retained = _alloc_profile(fn)
            results["runs"].append(
                {
                    "model": model_name,
                    "scale": scale,
                    "batch": batch,
                    "pass": name,
                    "alloc_peak_bytes": peak,
                    "alloc_net_blocks": net_blocks,
                    "retained_bytes": retained,
                }
            )
            print(
                f"{model_name:>12} {name:>17}: peak {peak / 1e6:7.1f} MB, "
                f"net {net_blocks:+d} blocks, retained {retained / 1e6:6.2f} MB"
            )
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="tracemalloc allocation profile of the engine passes"
    )
    parser.add_argument("--json", default=None, help="write the profile to this path")
    args = parser.parse_args(argv)
    results = run_alloc_smoke()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"profile -> {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
