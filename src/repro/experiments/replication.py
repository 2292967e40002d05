"""Multi-seed replication: mean +- std for any experiment cell.

The paper reports single numbers; at this reproduction's small scale
seed variance is non-negligible, so the harness offers seed-replicated
versions of any config — used by the full profile and available to
users who want error bars.
"""

import numpy as np

from .sweep import train_runs


def run_with_seeds(config, seeds=(0, 1, 2), cache_dir=None, workers=None, force=False):
    """Run ``config`` under each seed; returns per-seed results + stats.

    The seed is injected with ``config.with_overrides(seed=s)`` so data
    splits, init and shuffling all move together, like the paper's
    independent runs.  ``workers > 1`` trains the seeds in parallel.
    """
    results = train_runs(
        [config.with_overrides(seed=seed) for seed in seeds],
        workers=workers,
        cache_dir=cache_dir,
        force=force,
    )
    return _seed_stats(config, seeds, list(results))


def _seed_stats(config, seeds, results):
    test_accs = np.array([r.test_acc for r in results])
    train_accs = np.array([r.train_acc for r in results])
    return {
        "config": config,
        "seeds": list(seeds),
        "results": results,
        "test_acc_mean": float(test_accs.mean()),
        "test_acc_std": float(test_accs.std(ddof=1)) if len(seeds) > 1 else 0.0,
        "train_acc_mean": float(train_accs.mean()),
        "train_acc_std": float(train_accs.std(ddof=1)) if len(seeds) > 1 else 0.0,
    }


def compare_methods_with_seeds(
    make_config_fn,
    methods=("hero", "sgd"),
    seeds=(0, 1, 2),
    cache_dir=None,
    workers=None,
    force=False,
):
    """Seed-replicated method comparison.

    ``make_config_fn(method)`` builds the config for each method; the
    return value maps method name to the :func:`run_with_seeds` stats,
    plus a ``"significant"`` flag per non-reference method: whether its
    mean beats the last method's mean by more than the pooled std
    (a coarse effect-size screen, not a formal test).

    The whole methods × seeds grid trains as one
    :func:`~repro.experiments.sweep.train_runs` call, so ``workers``
    parallelism spans methods as well as seeds.
    """
    configs = {method: make_config_fn(method) for method in methods}
    results = train_runs(
        [configs[method].with_overrides(seed=seed) for method in methods for seed in seeds],
        workers=workers,
        cache_dir=cache_dir,
        force=force,
    )
    stats = {
        method: _seed_stats(configs[method], seeds, [next(results) for _seed in seeds])
        for method in methods
    }
    reference = methods[-1]
    for method in methods[:-1]:
        gap = stats[method]["test_acc_mean"] - stats[reference]["test_acc_mean"]
        pooled = np.sqrt(
            0.5 * (stats[method]["test_acc_std"] ** 2 + stats[reference]["test_acc_std"] ** 2)
        )
        stats[method]["gap_vs_reference"] = float(gap)
        stats[method]["significant"] = bool(gap > pooled)
    return stats
