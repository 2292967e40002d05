"""The HERO arm of Fig. 2, traced: the engine and trainer layers.

Run as a script, this file is the traced training process::

    python perfbench/fig2_hero.py --seed 3 --out result.json --trace DIR

It trains ``make_config("ResNet20-fast", "cifar10_like", "hero",
profile="fast", seed=...)`` — resnet8, 30 epochs of 4 steps x 64
samples, eval every epoch — with ``fig2_callbacks(config)`` (the
per-epoch ||Hz|| probe and the generalization gap) through
``run_training(config, callbacks=..., cache_dir=None)``, and writes
what it saw to ``--out``.  One op is one optimizer step, timed by the
``StepTimer`` callback from one ``on_step_end`` to the next.  The timer
is registered last, so its ``on_epoch_end`` restarts the clock after
eval and the probe.

The span wrappers are installed for every odd epoch and removed for
every even one, so traced and untraced steps of the same process give
the tracing overhead.

``fig2-hero`` is not an end-to-end workload of the benchmark (see
``METRICS.md``): its step time drifted by up to 34% (IQR over median)
across ten runs on a shared 2-vCPU VM, beyond any allowed bound.  The
traced run of the benchmark still trains it once, so the ``tensor``,
``nn``, ``core``, ``optim``, ``data`` and ``hessian`` layers keep their
per-layer metrics.  Imported, this file provides :func:`traced`.
"""

import argparse
import math
import os
import statistics
import sys
import time

import common
from tracing import Trace, Tracer, install_modules

NAME = "fig2-hero"
UNIT_TIMEOUT = 150.0

#: Final train loss, test accuracy and last ||Hz|| of 18 seeds (0-15, 21,
#: 24) at the pinned config.  Each check accepts a value within five
#: standard deviations of their mean (loss and ||Hz|| on a log scale; the
#: loss has a heavy tail across seeds), so a change that only reorders
#: floating-point reductions still passes while a broken step, probe or
#: eval does not.
REFERENCE = {
    "train_loss": [
        0.006509, 0.008635, 0.008580, 0.011885, 0.007400, 0.006719, 0.009929, 0.008835, 0.006712,
        0.007320, 0.017954, 0.006661, 0.009080, 0.009908, 0.011820, 0.012799, 0.024679, 0.025033,
    ],
    "test_acc": [
        0.618750, 0.596875, 0.546875, 0.509375, 0.550000, 0.546875, 0.568750, 0.650000, 0.546875,
        0.612500, 0.593750, 0.603125, 0.596875, 0.550000, 0.618750, 0.659375, 0.628125, 0.587500,
    ],
    "hz_norm": [
        6.1318, 10.1820, 9.9156, 10.3378, 15.9735, 7.3875, 12.9126, 9.8094, 9.4853,
        6.2901, 14.7829, 8.0687, 16.6010, 12.3517, 9.2389, 10.6892, 10.2838, 14.8775,
    ],
}
LOG_SCALE = ("train_loss", "hz_norm")
TOLERANCE_SD = 5.0


def check_outputs(outputs):
    """List of reasons ``outputs`` is off the pinned reference (empty = ok)."""
    problems = []
    for name, samples in REFERENCE.items():
        value = outputs.get(name)
        if value is None or not math.isfinite(value) or (name in LOG_SCALE and value <= 0):
            problems.append(f"{name}={value!r} is not a finite positive number")
            continue
        transform = math.log if name in LOG_SCALE else float
        points = [transform(v) for v in samples]
        center, spread = statistics.mean(points), statistics.stdev(points)
        if abs(transform(value) - center) > TOLERANCE_SD * spread:
            problems.append(f"{name}={value:.6g} outside the seed band of the reference")
    return problems


# ----------------------------------------------------------------------
# Workload process
# ----------------------------------------------------------------------
def make_step_timer(tracer):
    from repro.core.trainer import Callback

    class StepTimer(Callback):
        """Times steps and toggles tracing per epoch."""

        def __init__(self):
            self.steps = []  # [step, seconds, traced]
            self.traced = False
            self._last = None

        def on_train_begin(self, trainer):
            self._last = time.perf_counter()

        def on_step_end(self, trainer, step):
            now = time.perf_counter()
            self.steps.append([step, now - self._last, self.traced])
            self._last = now
            tracer.op = step + 1

        def on_epoch_end(self, trainer, epoch, logs):
            self.traced = epoch % 2 == 0
            if self.traced:
                install(tracer)
            else:
                tracer.uninstall()
            self._last = time.perf_counter()

    return StepTimer()


def install(tracer):
    """Wrap the engine, layers, trainer, optimizer, loader and probe."""
    from repro.core import Trainer
    from repro.core.callbacks import HessianNormCallback
    from repro.core.hero import HEROTrainer
    from repro.data import DataLoader
    from repro.nn import BatchNorm2d, Conv2d, Linear, Module
    from repro.nn import activation, activation_extra, losses
    from repro.optim import SGD
    from repro.tensor import Tensor
    from repro.tensor.function import Function

    def step(trainer, x, y, _inner=HEROTrainer.__dict__["training_step"]):
        tracer.op = trainer.global_step
        tracer.begin("core.step")
        try:
            return _inner(trainer, x, y)
        finally:
            tracer.end()

    tracer.replace(HEROTrainer, "training_step", step)
    tracer.wrap(Trainer, "evaluate", "core.evaluate")
    tracer.wrap(HessianNormCallback, "on_epoch_end", "hessian.hz_norm")
    tracer.wrap(SGD, "step", "optim.step")

    def backward(tensor, grad=None, create_graph=False, _inner=Tensor.__dict__["backward"]):
        tracer.begin("tensor.backward_graph" if create_graph else "tensor.backward")
        try:
            return _inner(tensor, grad, create_graph)
        finally:
            tracer.end()

    tracer.replace(Tensor, "backward", backward)

    def batches(loader, _inner=DataLoader.__dict__["__iter__"]):
        iterator = _inner(loader)
        while True:
            tracer.begin("data.next_batch")
            try:
                item = next(iterator)
            except StopIteration:
                tracer.cancel()
                return
            tracer.end()
            yield item

    tracer.replace(DataLoader, "__iter__", batches)
    # resnet8 applies ReLU through ``Tensor.relu``, not a module, so the
    # activation layer is the Tensor activation methods plus any
    # activation module.
    for method in ("relu", "sigmoid", "tanh"):
        tracer.wrap(Tensor, method, "nn.act")
    install_modules(tracer, Module, {
        Conv2d: "nn.conv",
        BatchNorm2d: "nn.bn",
        Linear: "nn.linear",
        **{cls: "nn.act" for cls in _module_classes(activation, activation_extra)},
        **{cls: "nn.loss" for cls in _module_classes(losses)},
    })
    install_engine(tracer, Function)


def _module_classes(*modules):
    from repro.nn import Module

    return [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Module) and value is not Module
    ]


#: Engine ops grouped by the numpy kernel their methods run.
KERNELS = {
    "MatMul": "matmul",
    "TakeFlat": "gather",
    "ScatterAddFlat": "scatter",
    "Reshape": "shape",
    "Transpose": "shape",
    "Expand": "shape",
    "Pad": "shape",
    "Slice": "shape",
    "Unslice": "shape",
    "Concat": "shape",
}
#: The adjoint of a gather is a scatter-add and vice versa.
BACKWARD_KERNELS = {"TakeFlat": "scatter", "ScatterAddFlat": "gather"}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install_engine(tracer, function_base):
    """Count ``Function.apply`` nodes; span each op's forward/backward methods."""
    inner_apply = function_base.__dict__["apply"].__func__

    def apply(cls, *tensors, **kwargs):
        tracer.count("tensor.nodes")
        return inner_apply(cls, *tensors, **kwargs)

    tracer.replace(function_base, "apply", classmethod(apply))
    for sub in set(_subclasses(function_base)):
        for method in ("forward", "backward", "backward_raw"):
            if method not in sub.__dict__:
                continue
            kernel = KERNELS.get(sub.__name__, "elementwise")
            if method != "forward":
                kernel = BACKWARD_KERNELS.get(sub.__name__, kernel)
            tracer.wrap(sub, method, f"tensor.{kernel}")


def workload(argv=None):
    parser = argparse.ArgumentParser(description="traced fig2-hero training process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", required=True, help="directory for the span file")
    args = parser.parse_args(argv)

    from repro.experiments.config import make_config
    from repro.experiments.fig2 import fig2_callbacks
    from repro.experiments.runner import run_training

    tracer = Tracer(keep=("core.step", "tensor.backward", "tensor.backward_graph"))
    config = make_config("ResNet20-fast", "cifar10_like", "hero", profile="fast", seed=args.seed)
    timer = make_step_timer(tracer)
    result = run_training(config, callbacks=list(fig2_callbacks(config)) + [timer], cache_dir=None)
    tracer.uninstall()
    tracer.flush(os.path.join(args.trace, "fig2.json"))
    history = result.history
    hz = [v for v in history["hessian_norm"] if v is not None]
    common.write_json(
        args.out,
        {
            "steps": timer.steps,
            "outputs": {
                "train_loss": history["train_loss"][-1],
                "test_acc": result.test_acc,
                "hz_norm": hz[-1] if hz else None,
            },
        },
    )
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def traced(run_dir, seed):
    """Per-layer rows ``{name: (value, unit, n)}`` from one traced unit."""
    path, env = run_dir.env("fig2")
    out = os.path.join(path, "out.json")
    trace_dir = os.path.join(path, "trace")
    script = os.path.join(common.BENCH_DIR, "fig2_hero.py")
    argv = [sys.executable, script, "--seed", str(seed), "--out", out, "--trace", trace_dir]
    common.run_child(argv, env, path, UNIT_TIMEOUT)
    result = common.read_json(out)
    trace = Trace([os.path.join(trace_dir, "fig2.json")])
    steps = trace.named("core.step")
    n = len(steps)
    step_ops = {span[2] for span in steps}

    def per_step(name, field):
        return trace.total(name, root="core.step", op=step_ops.__contains__, field=field) / n * 1e3

    def per_call(name):
        return trace.per_call_ms(name, root=name)

    def ms_row(value, count):
        return value, "ms", count

    # A step splits at the end of its first plain backward (clean
    # gradient) and at the end of its create_graph backward (perturbed
    # gradient); the rest is the penalty backward and the combine.
    ends = {}
    for name, root, op, _start, end in trace.spans:
        if root == "core.step" and name != "core.step":
            ends.setdefault((op, name), end)
    phases = {"clean": [], "perturbed": [], "penalty": []}
    for _name, _root, op, start, end in steps:
        clean, graph = ends[(op, "tensor.backward")], ends[(op, "tensor.backward_graph")]
        phases["clean"].append(clean - start)
        phases["perturbed"].append(graph - clean)
        phases["penalty"].append(end - graph)
    nodes = [
        count
        for name, root, op, count in trace.counts
        if name == "tensor.nodes" and root == "core.step" and op in step_ops
    ]
    traced_steps = [s[1] for s in result["steps"] if s[2]]
    plain_steps = [s[1] for s in result["steps"] if not s[2]]
    step_ms = common.mean([s[4] - s[3] for s in steps]) * 1e3
    optim_ms, optim_n = per_call("optim.step")
    batch_ms, batch_n = per_call("data.next_batch")
    latency_ms = common.mean(traced_steps) * 1e3
    rows = {
        "core.step_ms": (step_ms, "ms", n),
        **{f"core.phase_{phase}_ms": (common.mean(v) * 1e3, "ms", n) for phase, v in phases.items()},
        "nn.forward_ms": (per_step("nn.forward", "duration"), "ms", n),
        **{
            f"nn.{layer}_self_ms": (per_step(f"nn.{layer}", "self"), "ms", n)
            for layer in ("conv", "bn", "linear", "act")
        },
        "tensor.nodes_per_step": (statistics.median(nodes), "count", len(nodes)),
        **{
            f"tensor.{kernel}_ms": (per_step(f"tensor.{kernel}", "self"), "ms", n)
            for kernel in ("matmul", "gather", "scatter", "shape", "elementwise")
        },
        "optim.step_ms": ms_row(optim_ms, optim_n),
        "data.next_batch_ms": ms_row(batch_ms, batch_n),
        "core.evaluate_ms": ms_row(*per_call("core.evaluate")),
        "hessian.hz_norm_ms": ms_row(*per_call("hessian.hz_norm")),
        "fig2-hero.traced_step_ms": (latency_ms, "ms", len(traced_steps)),
        "fig2-hero.step_accounted_frac": ((step_ms + optim_ms + batch_ms) / latency_ms, "ratio", n),
        "fig2-hero.trace_overhead_pct": (
            (statistics.median(traced_steps) / statistics.median(plain_steps) - 1.0) * 100.0,
            "%",
            len(plain_steps),
        ),
    }
    problems = check_outputs(result["outputs"])
    if len(set(nodes)) != 1:
        problems.append(f"tensor.nodes_per_step differs between steps: {sorted(set(nodes))}")
    failed = len(result["steps"]) if problems else 0
    return rows, problems, len(result["steps"]), failed


if __name__ == "__main__":
    sys.exit(workload())
