"""Table 1 — test accuracy across models, datasets and methods.

Paper: HERO vs GRAD-L1 vs SGD on {ResNet20, MobileNetV2, VGG19BN} x
{CIFAR-10, CIFAR-100}, plus ResNet18 on ImageNet.  Here: the same
grid over the synthetic stand-ins (see DESIGN.md for the mapping).
The claim under test: HERO achieves the highest test accuracy in every
row, while GRAD-L1 is not consistently better than SGD.
"""

from .config import make_config
from .reporting import format_table
from .sweep import train_runs

METHODS = ("hero", "grad_l1", "sgd")

ROWS = (
    ("cifar10_like", "ResNet20"),
    ("cifar10_like", "MobileNetV2"),
    ("cifar10_like", "VGG19BN"),
    ("cifar100_like", "ResNet20"),
    ("cifar100_like", "MobileNetV2"),
    ("cifar100_like", "VGG19BN"),
    ("imagenet_like", "ResNet18"),
)


def table1_configs(profile="fast", seed=0, rows=ROWS):
    """The table's grid as a sweep spec (one config per cell)."""
    return [
        make_config(model, dataset, method, profile=profile, seed=seed)
        for dataset, model in rows
        for method in METHODS
    ]


def run_table1(profile="fast", cache_dir=None, seed=0, rows=ROWS, workers=None, force=False):
    """Train every (dataset, model, method) cell; return the table data.

    The grid trains through :func:`~repro.experiments.sweep.train_runs`:
    in parallel with ``workers > 1`` (or ``REPRO_WORKERS`` set), in
    order in this process otherwise.

    Returns ``{"rows": [...], "profile": profile}`` where each row is a
    dict with the dataset, model and one test accuracy per method.
    """
    configs = table1_configs(profile=profile, seed=seed, rows=rows)
    results = train_runs(configs, workers=workers, cache_dir=cache_dir, force=force)
    table_rows = []
    for dataset, model in rows:
        entry = {"dataset": dataset, "model": model}
        for method in METHODS:
            result = next(results)
            entry[method] = result.test_acc
            entry[f"{method}_train"] = result.train_acc
        table_rows.append(entry)
    return {"rows": table_rows, "profile": profile}


def check_table1(result):
    """Paper-shape assertions: HERO is the best method in each row.

    Returns a list of human-readable violations (empty = fully
    consistent with the paper's ordering).
    """
    violations = []
    for row in result["rows"]:
        best = max(METHODS, key=lambda m: row[m])
        if best != "hero":
            violations.append(
                f"{row['dataset']}/{row['model']}: best is {best} "
                f"({row[best]:.3f}) not hero ({row['hero']:.3f})"
            )
    return violations


def format_table1(result):
    """Render in the paper's layout."""
    headers = ["Dataset", "Model", "HERO", "GRAD L1", "SGD"]
    rows = [
        [row["dataset"], row["model"], row["hero"], row["grad_l1"], row["sgd"]]
        for row in result["rows"]
    ]
    return format_table(headers, rows, title="Table 1: Test accuracy (reproduction)")
