"""Figure 1 — post-training quantization accuracy vs precision.

Paper: seven panels, (a)-(c) ResNet20/MobileNetV2/VGG19BN on CIFAR-10,
(d)-(f) the same on CIFAR-100, (g) ResNet18 on ImageNet; three curves
per panel (HERO, GRAD-L1, SGD) over weight precisions.  Claims: HERO's
curve dominates at every precision, with the gap widening at low bits;
GRAD-L1 sits between HERO and SGD at low precision.

Reuses the cached Table 1 training runs (identical configs).
"""

from ..quant import precision_sweep
from .config import make_config
from .reporting import format_series
from .runner import accuracy_eval_fn, default_cache_dir, load_experiment_data
from .sweep import train_runs

METHODS = ("hero", "grad_l1", "sgd")
PANELS = (
    ("a", "cifar10_like", "ResNet20"),
    ("b", "cifar10_like", "MobileNetV2"),
    ("c", "cifar10_like", "VGG19BN"),
    ("d", "cifar100_like", "ResNet20"),
    ("e", "cifar100_like", "MobileNetV2"),
    ("f", "cifar100_like", "VGG19BN"),
    ("g", "imagenet_like", "ResNet18"),
)
DEFAULT_BITS = (3, 4, 5, 6, 7, 8)


def fig1_configs(profile="fast", seed=0, panels=PANELS):
    """The seven-panel training grid as a sweep spec.

    Identical to Table 1's configs for the shared panels, so a warm
    cache from either artifact serves both.
    """
    return [
        make_config(model, dataset, method, profile=profile, seed=seed)
        for _panel_id, dataset, model in panels
        for method in METHODS
    ]


def run_fig1(
    profile="fast",
    cache_dir=None,
    seed=0,
    panels=PANELS,
    bits=DEFAULT_BITS,
    symmetric=True,
    per_channel=False,
    workers=None,
    force=False,
):
    """Sweep PTQ precision for every panel and method."""
    configs = fig1_configs(profile=profile, seed=seed, panels=panels)
    cache_dir = default_cache_dir() if cache_dir is None else cache_dir
    runs = zip(configs, train_runs(configs, workers=workers, cache_dir=cache_dir, force=force))
    results = {}
    for panel_id, dataset, model in panels:
        curves = {}
        for method in METHODS:
            config, run = next(runs)
            _train, test, _spec = load_experiment_data(config, cache_dir)
            curves[method] = precision_sweep(
                run.model,
                accuracy_eval_fn(test),
                bits_list=bits,
                symmetric=symmetric,
                per_channel=per_channel,
            )
        results[panel_id] = {"dataset": dataset, "model": model, "curves": curves}
    return {"panels": results, "bits": list(bits), "profile": profile}


SCHEMES = {
    "symmetric/per-tensor": {"symmetric": True, "per_channel": False},
    "asymmetric/per-tensor": {"symmetric": False, "per_channel": False},
    "symmetric/per-channel": {"symmetric": True, "per_channel": True},
    "asymmetric/per-channel": {"symmetric": False, "per_channel": True},
}


def run_fig1_schemes(
    profile="fast",
    cache_dir=None,
    seed=0,
    dataset="cifar10_like",
    model="ResNet20",
    bits=4,
    workers=None,
    force=False,
):
    """The paper's "beats GRAD-L1 under all quantization schemes" claim.

    Fixes one panel and precision and varies the quantizer: symmetric/
    asymmetric x per-tensor/per-channel.  Reuses cached training runs,
    each loaded once for all four schemes.
    """
    from ..quant import QuantScheme, evaluate_quantized

    configs = fig1_configs(profile=profile, seed=seed, panels=[(None, dataset, model)])
    cache_dir = default_cache_dir() if cache_dir is None else cache_dir
    runs = list(train_runs(configs, workers=workers, cache_dir=cache_dir, force=force))
    _train, test, _spec = load_experiment_data(configs[0], cache_dir)
    eval_fn = accuracy_eval_fn(test)
    rows = []
    for scheme_name, kwargs_scheme in SCHEMES.items():
        entry = {"scheme": scheme_name}
        scheme = QuantScheme(bits=bits, **kwargs_scheme)
        for method, run in zip(METHODS, runs):
            entry[method], _report = evaluate_quantized(run.model, scheme, eval_fn)
        rows.append(entry)
    return {"rows": rows, "bits": bits, "model": model, "dataset": dataset}


def check_fig1_schemes(result):
    """HERO should beat GRAD-L1 under every scheme (paper Sec. 5.3)."""
    violations = []
    for row in result["rows"]:
        if row["hero"] < row["grad_l1"]:
            violations.append(
                f"{row['scheme']}: hero {row['hero']:.3f} < grad_l1 {row['grad_l1']:.3f}"
            )
    return violations


def format_fig1_schemes(result):
    """Render the scheme comparison table."""
    from .reporting import format_table

    headers = ["Scheme"] + list(METHODS)
    body = [[row["scheme"]] + [row[m] for m in METHODS] for row in result["rows"]]
    return format_table(
        headers,
        body,
        title=(
            f"Fig. 1 scheme robustness: {result['model']}/{result['dataset']} "
            f"at {result['bits']} bits"
        ),
    )


def check_fig1(result, low_bits=4):
    """Paper-shape assertions: HERO dominates at and below ``low_bits``."""
    violations = []
    for panel_id, panel in result["panels"].items():
        curves = panel["curves"]
        for i, bit in enumerate(result["bits"]):
            if bit > low_bits:
                continue
            hero = curves["hero"]["accuracy"][i]
            for other in ("grad_l1", "sgd"):
                if hero < curves[other]["accuracy"][i]:
                    violations.append(
                        f"panel {panel_id} ({panel['model']}/{panel['dataset']}) "
                        f"at {bit} bits: hero {hero:.3f} < {other} "
                        f"{curves[other]['accuracy'][i]:.3f}"
                    )
    return violations


def format_fig1(result):
    """Render every panel as aligned accuracy-vs-bits series."""
    blocks = []
    for panel_id, panel in result["panels"].items():
        lines = [f"Figure 1({panel_id}): {panel['model']} on {panel['dataset']}"]
        for method in METHODS:
            curve = panel["curves"][method]
            xs = result["bits"] + ["full"]
            ys = curve["accuracy"] + [curve["full_precision"]]
            lines.append(format_series(f"  {method}", xs, ys, "bits", "accuracy"))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
