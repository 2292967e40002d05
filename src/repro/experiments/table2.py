"""Table 2 — test accuracy under symmetric label noise.

Paper: ResNet20 and MobileNetV2 on CIFAR-10 with 20-80% of training
labels resampled uniformly; HERO retains the best clean-test accuracy
at every ratio and degrades most gracefully at 80%.

The fast profile uses the ``-fast`` model variants (a 6n+2=8 ResNet and
a narrower MobileNetV2) so the 24-run grid stays within a CPU bench
budget; the architecture families match the paper's.
"""

from .config import make_config
from .reporting import format_table
from .sweep import train_runs

METHODS = ("hero", "grad_l1", "sgd")
NOISE_RATIOS = (0.2, 0.4, 0.6, 0.8)
MODELS = ("ResNet20-fast", "MobileNetV2-fast")


def table2_configs(profile="fast", seed=0, models=MODELS, noise_ratios=NOISE_RATIOS):
    """The noisy-label grid as a sweep spec."""
    return [
        make_config(
            model, "cifar10_like", method, profile=profile, seed=seed, label_noise=ratio
        )
        for model in models
        for ratio in noise_ratios
        for method in METHODS
    ]


def run_table2(
    profile="fast",
    cache_dir=None,
    seed=0,
    models=MODELS,
    noise_ratios=NOISE_RATIOS,
    workers=None,
    force=False,
):
    """Train each (model, noise ratio, method) cell on noisy labels."""
    configs = table2_configs(profile=profile, seed=seed, models=models, noise_ratios=noise_ratios)
    results = train_runs(configs, workers=workers, cache_dir=cache_dir, force=force)
    panels = {}
    for model in models:
        rows = []
        for ratio in noise_ratios:
            entry = {"noise_ratio": ratio}
            for method in METHODS:
                entry[method] = next(results).test_acc
            rows.append(entry)
        panels[model] = rows
    return {"panels": panels, "profile": profile}


def check_table2(result):
    """Paper-shape assertions: HERO best at every noise ratio."""
    violations = []
    for model, rows in result["panels"].items():
        for row in rows:
            best = max(METHODS, key=lambda m: row[m])
            if best != "hero":
                violations.append(
                    f"{model} @ {int(100 * row['noise_ratio'])}% noise: best is "
                    f"{best} ({row[best]:.3f}) not hero ({row['hero']:.3f})"
                )
    return violations


def format_table2(result):
    """Render both panels in the paper's layout."""
    blocks = []
    for model, rows in result["panels"].items():
        headers = ["Noise ratio"] + [f"{int(100 * r['noise_ratio'])}%" for r in rows]
        body = []
        for method, label in (("hero", "HERO"), ("grad_l1", "GRAD L1"), ("sgd", "SGD")):
            body.append([label] + [row[method] for row in rows])
        blocks.append(
            format_table(headers, body, title=f"Table 2 ({model}): accuracy under noisy labels")
        )
    return "\n\n".join(blocks)
