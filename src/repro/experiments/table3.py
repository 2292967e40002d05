"""Table 3 — ablation: HERO vs first-order-only vs SGD under PTQ.

Paper: MobileNetV2 on CIFAR-10, post-training weight quantization at
4/6/8 bits plus full precision.  Claims: (a) HERO beats the SAM-style
first-order-only rule at full precision (~1% in the paper), and
(b) HERO's accuracy *drop* from full precision to 4 bits is smaller —
the Hessian term is necessary, not just the perturbed gradient.
"""

from ..quant import QuantScheme, evaluate_quantized
from .config import make_config
from .reporting import format_table
from .runner import accuracy_eval_fn, load_experiment_data
from .sweep import train_runs

METHODS = ("hero", "first_order", "sgd")
BITS = (4, 6, 8)


def table3_configs(profile="fast", seed=0, model="MobileNetV2"):
    """The ablation's three training arms as a sweep spec."""
    return [
        make_config(model, "cifar10_like", method, profile=profile, seed=seed)
        for method in METHODS
    ]


def run_table3(
    profile="fast", cache_dir=None, seed=0, model="MobileNetV2", workers=None, force=False
):
    """Train the three arms and sweep PTQ at the paper's precisions."""
    configs = table3_configs(profile=profile, seed=seed, model=model)
    results = train_runs(configs, workers=workers, cache_dir=cache_dir, force=force)
    rows = []
    for method, config, result in zip(METHODS, configs, results):
        _train, test, _spec = load_experiment_data(config)
        eval_fn = accuracy_eval_fn(test)
        entry = {"method": method, "full": result.test_acc}
        for bits in BITS:
            scheme = QuantScheme(bits=bits)
            entry[f"q{bits}"], _report = evaluate_quantized(result.model, scheme, eval_fn)
        rows.append(entry)
    return {"rows": rows, "bits": list(BITS), "profile": profile}


def check_table3(result):
    """Paper-shape assertions for the ablation."""
    by_method = {row["method"]: row for row in result["rows"]}
    violations = []
    if by_method["hero"]["full"] <= by_method["sgd"]["full"]:
        violations.append("HERO full-precision accuracy does not beat SGD")
    if by_method["hero"]["q4"] <= by_method["sgd"]["q4"]:
        violations.append("HERO 4-bit accuracy does not beat SGD")
    hero_drop = by_method["hero"]["full"] - by_method["hero"]["q4"]
    first_drop = by_method["first_order"]["full"] - by_method["first_order"]["q4"]
    sgd_drop = by_method["sgd"]["full"] - by_method["sgd"]["q4"]
    if hero_drop > sgd_drop:
        violations.append(
            f"HERO 4-bit drop ({hero_drop:.3f}) exceeds SGD's ({sgd_drop:.3f})"
        )
    if hero_drop > first_drop + 0.05:
        violations.append(
            f"HERO 4-bit drop ({hero_drop:.3f}) well above first-order-only ({first_drop:.3f})"
        )
    return violations


def format_table3(result):
    """Render in the paper's layout."""
    headers = ["Quantization (bit)"] + [str(b) for b in result["bits"]] + ["Full"]
    label = {"hero": "HERO", "first_order": "First-order only", "sgd": "SGD"}
    body = []
    for row in result["rows"]:
        body.append(
            [label[row["method"]]]
            + [row[f"q{bits}"] for bits in result["bits"]]
            + [row["full"]]
        )
    return format_table(headers, body, title="Table 3: gradient-rule ablation under PTQ")
