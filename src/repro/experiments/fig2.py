"""Figure 2 — Hessian norm and generalization gap across training.

Paper: (a) the ``||Hz||`` metric (z per Eq. 15, averaged over the
training set) per epoch for HERO / GRAD-L1 / SGD; (b) the
generalization gap (train acc - test acc) in the final epochs.
Claims: the Hessian norm grows as models overfit, HERO keeps it lowest
at convergence, and correspondingly shows the smallest gap.
"""

from functools import partial

from ..core.callbacks import GeneralizationGapCallback, HessianNormCallback
from ..data import DataLoader
from ..nn import CrossEntropyLoss
from .config import make_config
from .reporting import format_series
from .runner import load_experiment_data
from .sweep import train_runs

METHODS = ("hero", "grad_l1", "sgd")


def fig2_callbacks(config, max_batches=2):
    """Per-config training callbacks measuring ``||Hz||`` and the gap.

    Module-level (and used with :func:`functools.partial`) so the sweep
    engine can ship it to worker processes and build the callbacks
    inside each worker.
    """
    train, _test, _spec = load_experiment_data(config)
    probe_loader = DataLoader(train, batch_size=config.batch_size, shuffle=True, seed=99)
    return [
        HessianNormCallback(
            probe_loader, CrossEntropyLoss(), h=config.h, max_batches=max_batches
        ),
        GeneralizationGapCallback(),
    ]


def fig2_configs(profile="fast", seed=0, model="ResNet20-fast", dataset="cifar10_like"):
    """The figure's three training arms as a sweep spec."""
    return [
        make_config(model, dataset, method, profile=profile, seed=seed)
        for method in METHODS
    ]


def run_fig2(
    profile="fast",
    cache_dir=None,
    seed=0,
    model="ResNet20-fast",
    dataset="cifar10_like",
    max_batches=2,
    gap_window=10,
    workers=None,
    force=False,
):
    """Train the three methods with per-epoch ``||Hz||`` tracking.

    Note: unlike the other experiments this one *always* retrains when
    its metrics are missing from cache, because the measurement happens
    inside training callbacks.  Every run trains with the callbacks
    attached (inside each worker on the parallel path), so fresh cache
    entries already carry the measured columns.
    """
    configs = fig2_configs(profile=profile, seed=seed, model=model, dataset=dataset)
    factory = partial(fig2_callbacks, max_batches=max_batches)
    results = list(
        train_runs(
            configs, workers=workers, cache_dir=cache_dir, force=force, callback_factory=factory
        )
    )
    # Cache hits trained by *other* experiments never ran the callbacks;
    # force-retrain exactly those, with measurement enabled.
    stale = [
        index
        for index, result in enumerate(results)
        if result.from_cache and not any(result.history["hessian_norm"])
    ]
    if stale:
        retrained = train_runs(
            [configs[index] for index in stale],
            workers=workers,
            cache_dir=cache_dir,
            force=True,
            callback_factory=factory,
        )
        for index, result in zip(stale, retrained):
            results[index] = result
    series = {}
    for method, result in zip(METHODS, results):
        history = result.history
        series[method] = {
            "epoch": history["epoch"],
            "hessian_norm": history["hessian_norm"],
            "generalization_gap": history["generalization_gap"],
            "final_test_acc": result.test_acc,
        }
    return {"series": series, "gap_window": gap_window, "profile": profile}


def check_fig2(result):
    """Paper-shape assertions: HERO ends with the lowest ||Hz|| and gap."""
    violations = []
    finals = {}
    gaps = {}
    window = result["gap_window"]
    for method, data in result["series"].items():
        values = [v for v in data["hessian_norm"] if v is not None]
        gap_values = [v for v in data["generalization_gap"] if v is not None]
        if not values or not gap_values:
            violations.append(f"{method}: missing hessian/gap series")
            continue
        finals[method] = values[-1]
        tail = gap_values[-window:]
        gaps[method] = sum(tail) / len(tail)
    if finals and min(finals, key=finals.get) != "hero":
        violations.append(f"final ||Hz|| lowest for {min(finals, key=finals.get)}, not hero: {finals}")
    if gaps and min(gaps, key=gaps.get) != "hero":
        violations.append(f"final gap lowest for {min(gaps, key=gaps.get)}, not hero: {gaps}")
    return violations


def format_fig2(result):
    """Render the two panels as aligned series."""
    lines = ["Figure 2(a): ||Hz|| across training"]
    for method, data in result["series"].items():
        epochs = [e for e, v in zip(data["epoch"], data["hessian_norm"]) if v is not None]
        values = [v for v in data["hessian_norm"] if v is not None]
        lines.append(format_series(f"  {method}", epochs, values, "epoch", "||Hz||"))
    lines.append("")
    lines.append(f"Figure 2(b): generalization gap (last {result['gap_window']} epochs)")
    for method, data in result["series"].items():
        pairs = [
            (e, v)
            for e, v in zip(data["epoch"], data["generalization_gap"])
            if v is not None
        ][-result["gap_window"]:]
        lines.append(
            format_series(
                f"  {method}",
                [p[0] for p in pairs],
                [p[1] for p in pairs],
                "epoch",
                "gap",
            )
        )
    return "\n".join(lines)
