"""Design-choice ablations beyond the paper's Table 3.

DESIGN.md calls out the implementation decisions HERO leaves open;
each gets an experiment here:

* ``perturbation``: layer-adaptive Eq. 15 scaling vs a single global
  scale (Sec. 4.1 argues per-layer adaptation is needed);
* ``penalty``: ``||.||_2`` (Algorithm 1) vs ``||.||^2`` (Eq. 13);
* ``h_sensitivity``: the probe step around its tuned value;
* ``gamma_grid``: the paper's Hessian-strength grid search.
"""

from ..data import DataLoader
from ..quant import QuantScheme, evaluate_quantized
from .config import expand_grid, make_config
from .reporting import format_table
from .runner import (
    RunResult,
    accuracy_eval_fn,
    build_model,
    build_trainer,
    default_cache_dir,
    evaluate_accuracy,
    load_experiment_data,
)
from .sweep import train_runs

DEFAULT_MODEL = "ResNet20-fast"
DEFAULT_DATASET = "cifar10_like"

H_FACTORS = (0.5, 1.0, 2.0)
GAMMAS = (0.01, 0.05, 0.2)


def _studies(profile, seed, factors=H_FACTORS, gammas=GAMMAS):
    """``{study: [(variant, config), ...]}`` for the four cached ablations."""
    base = make_config(DEFAULT_MODEL, DEFAULT_DATASET, "hero", profile=profile, seed=seed)
    perturbation = expand_grid(base, perturbation=["layer_adaptive", "global"])
    penalty = expand_grid(base, penalty=["norm", "sq_norm"])
    h = expand_grid(base, h=[base.h * factor for factor in factors])
    gamma = expand_grid(base, gamma=list(gammas))
    return {
        "perturbation": [(config.perturbation, config) for config in perturbation],
        "penalty": [(config.penalty, config) for config in penalty],
        "h_sensitivity": [(f"h={config.h:g}", config) for config in h],
        "gamma_grid": [(f"gamma={config.gamma:g}", config) for config in gamma],
    }


def ablation_configs(profile="fast", seed=0, factors=H_FACTORS, gammas=GAMMAS):
    """Every cacheable ablation variant as one combined sweep spec.

    Covers the perturbation, penalty, h-sensitivity and gamma-grid
    studies (the regularizer ablation's ``exact_hvp`` arm trains
    outside the cache); the sweep engine deduplicates the shared
    baseline config.
    """
    studies = _studies(profile, seed, factors=factors, gammas=gammas)
    return [config for variants in studies.values() for _variant, config in variants]


def _row(variant, config, result, cache_dir, low_bits=4):
    _train, test, _spec = load_experiment_data(config, cache_dir)
    eval_fn = accuracy_eval_fn(test)
    q_low, _ = evaluate_quantized(result.model, QuantScheme(bits=low_bits), eval_fn)
    return {
        "variant": variant,
        "test_acc": result.test_acc,
        "train_acc": result.train_acc,
        f"q{low_bits}_acc": q_low,
    }


def _run_studies(names, profile, cache_dir, seed, workers, force, **axes):
    """One block per study in ``names``; their grids train as one ``train_runs`` call."""
    studies = _studies(profile, seed, **axes)
    configs = [config for name in names for _variant, config in studies[name]]
    cache_dir = default_cache_dir() if cache_dir is None else cache_dir
    results = train_runs(configs, workers=workers, cache_dir=cache_dir, force=force)
    return [
        {
            "name": name,
            "rows": [
                _row(variant, config, next(results), cache_dir)
                for variant, config in studies[name]
            ],
        }
        for name in names
    ]


def run_perturbation_ablation(profile="fast", cache_dir=None, seed=0, workers=None, force=False):
    """Eq. 15 layer-adaptive scaling vs one global scale."""
    return _run_studies(["perturbation"], profile, cache_dir, seed, workers, force)[0]


def run_penalty_ablation(profile="fast", cache_dir=None, seed=0, workers=None, force=False):
    """Algorithm-1 norm penalty vs Eq. 13 squared-norm penalty."""
    return _run_studies(["penalty"], profile, cache_dir, seed, workers, force)[0]


def run_h_sensitivity(
    profile="fast", cache_dir=None, seed=0, factors=H_FACTORS, workers=None, force=False
):
    """Probe-step sensitivity around the tuned ``h``."""
    return _run_studies(["h_sensitivity"], profile, cache_dir, seed, workers, force, factors=factors)[0]


def _train_with_regularizer(config, regularizer, cache_dir):
    """Train ``config`` in this process, uncached, with HERO's ``regularizer``.

    ``TrainConfig`` has no regularizer field (it is an implementation
    ablation, not a paper hyperparameter), so the ``exact_hvp`` arm
    trains here, on the data of the run cache ``cache_dir``.  With
    ``"finite_diff"`` this reproduces the cached
    :func:`~repro.experiments.runner.run_training` run of ``config``.
    """
    train, test, spec = load_experiment_data(config, cache_dir)
    model = build_model(config, spec)
    trainer = build_trainer(config, model)
    trainer.regularizer = regularizer
    loader = DataLoader(train, batch_size=config.batch_size, seed=config.seed + 1)
    history = trainer.fit(loader, config.epochs)
    return RunResult(
        config, model, history, evaluate_accuracy(model, train), evaluate_accuracy(model, test)
    )


def run_regularizer_ablation(profile="fast", cache_dir=None, seed=0, force=False):
    """Eq. 14 finite-difference proxy vs exact-HVP penalty (3rd order).

    The ``finite_diff`` arm is the ablations' base config — the same
    HERO trainer and loader seed — so it is read through
    :func:`~repro.experiments.sweep.train_runs`; only ``exact_hvp``
    trains here (:func:`_train_with_regularizer`).
    """
    config = make_config(DEFAULT_MODEL, DEFAULT_DATASET, "hero", profile=profile, seed=seed)
    cache_dir = default_cache_dir() if cache_dir is None else cache_dir
    (finite_diff,) = train_runs([config], workers=1, cache_dir=cache_dir, force=force)
    exact_hvp = _train_with_regularizer(config, "exact_hvp", cache_dir)
    rows = [
        _row("finite_diff", config, finite_diff, cache_dir),
        _row("exact_hvp", config, exact_hvp, cache_dir),
    ]
    return {"name": "regularizer", "rows": rows}


def run_gamma_grid(
    profile="fast", cache_dir=None, seed=0, gammas=GAMMAS, workers=None, force=False
):
    """The paper's gamma grid search (scaled to this substrate)."""
    return _run_studies(["gamma_grid"], profile, cache_dir, seed, workers, force, gammas=gammas)[0]


def run_ablations(profile="fast", cache_dir=None, seed=0, workers=None, force=False):
    """All five blocks; the four cached grids train as one ``train_runs`` call."""
    studies = ["perturbation", "penalty", "h_sensitivity", "gamma_grid"]
    blocks = _run_studies(studies, profile, cache_dir, seed, workers, force)
    # That union trained the regularizer's finite_diff arm (the base
    # config) too, so the last block reads it back in this process.
    blocks.append(run_regularizer_ablation(profile=profile, cache_dir=cache_dir, seed=seed))
    return {"ablations": blocks}


def format_ablation(result):
    """Render one ablation block."""
    keys = [k for k in result["rows"][0] if k != "variant"]
    headers = ["Variant"] + keys
    body = [[row["variant"]] + [row[k] for k in keys] for row in result["rows"]]
    return format_table(headers, body, title=f"Ablation: {result['name']}")
