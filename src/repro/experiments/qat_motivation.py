"""The paper's motivating claim about QAT vs robust training (Sec. 2.2).

"Quantization-aware training regains the quantization performance via
retraining on a specific quantization precision, yet they fail to
perform well when the precision is changed on the fly."

This experiment trains (a) QAT at a fixed target precision, (b) HERO
and (c) plain SGD, then deploys each at *every* precision.  The
expected shape: the QAT curve peaks at its target precision but decays
away from it (and at full precision!), while HERO stays uniformly
strong — the property that motivates the whole paper.
"""

from ..data import DataLoader
from ..quant import precision_sweep
from .config import make_config
from .reporting import format_series
from .runner import (
    accuracy_eval_fn,
    build_model,
    build_trainer,
    default_cache_dir,
    load_experiment_data,
)
from .sweep import train_runs


def qat_motivation_configs(profile="fast", seed=0, model="ResNet20-fast", dataset="cifar10_like"):
    """The cacheable arms (HERO, SGD) as a sweep spec; QAT trains inline."""
    return [
        make_config(model, dataset, method, profile=profile, seed=seed)
        for method in ("hero", "sgd")
    ]


def run_qat_motivation(
    profile="fast",
    cache_dir=None,
    seed=0,
    model="ResNet20-fast",
    dataset="cifar10_like",
    qat_bits=4,
    bits=(3, 4, 5, 6, 8),
    workers=None,
    force=False,
):
    """Deploy QAT@{qat_bits}, HERO and SGD models at every precision."""
    configs = qat_motivation_configs(profile=profile, seed=seed, model=model, dataset=dataset)
    cache_dir = default_cache_dir() if cache_dir is None else cache_dir
    results = train_runs(configs, workers=workers, cache_dir=cache_dir, force=force)
    curves = {}
    # HERO and SGD come from the shared cached runs.
    for config, result in zip(configs, results):
        _train, test, _spec = load_experiment_data(config, cache_dir)
        curves[config.method] = precision_sweep(
            result.model, accuracy_eval_fn(test), bits_list=bits
        )

    # QAT has no TrainConfig method entry (its bits hyperparameter is
    # specific to this experiment), so it trains directly.
    config = make_config(model, dataset, "sgd", profile=profile, seed=seed)
    train, test, spec = load_experiment_data(config, cache_dir)
    qat_model = build_model(config, spec)
    base_trainer = build_trainer(config, qat_model)
    from ..core import QATTrainer

    trainer = QATTrainer(
        qat_model,
        base_trainer.loss_fn,
        base_trainer.optimizer,
        scheduler=base_trainer.scheduler,
        bits=qat_bits,
    )
    loader = DataLoader(train, batch_size=config.batch_size, shuffle=True, seed=config.seed + 1)
    trainer.fit(loader, config.epochs)
    curves[f"qat@{qat_bits}bit"] = precision_sweep(
        qat_model, accuracy_eval_fn(test), bits_list=bits
    )

    return {
        "curves": curves,
        "bits": list(bits),
        "qat_bits": qat_bits,
        "model": model,
        "dataset": dataset,
        "profile": profile,
    }


def check_qat_motivation(result):
    """Shape checks for the Sec. 2.2 claim."""
    violations = []
    qat_key = f"qat@{result['qat_bits']}bit"
    qat = result["curves"][qat_key]
    hero = result["curves"]["hero"]
    target_index = result["bits"].index(result["qat_bits"])
    # QAT at its own precision should be at least near its full-precision self.
    if qat["accuracy"][target_index] < qat["full_precision"] - 0.05:
        violations.append(
            f"QAT not strong at its target precision: "
            f"{qat['accuracy'][target_index]:.3f} vs full {qat['full_precision']:.3f}"
        )
    # HERO should beat QAT somewhere *away* from the QAT target.
    off_target = [
        hero["accuracy"][i] - qat["accuracy"][i]
        for i, b in enumerate(result["bits"])
        if b != result["qat_bits"]
    ]
    if max(off_target) <= 0:
        violations.append("HERO never beats QAT off-target (unexpected)")
    return violations


def format_qat_motivation(result):
    """Render the deployment curves."""
    lines = [
        f"QAT motivation (Sec. 2.2): {result['model']}/{result['dataset']}, "
        f"QAT trained at {result['qat_bits']} bits"
    ]
    for name, curve in result["curves"].items():
        xs = result["bits"] + ["full"]
        ys = curve["accuracy"] + [curve["full_precision"]]
        lines.append(format_series(f"  {name}", xs, ys, "bits", "accuracy"))
    lines.append(
        "\nExpected shape: QAT peaks at its target precision; HERO stays"
        "\nuniformly strong across the sweep (the paper's motivation)."
    )
    return "\n".join(lines)
