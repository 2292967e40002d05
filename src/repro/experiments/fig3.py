"""Figure 3 — loss contours around converged weights (HERO vs SGD).

Paper: 2-D loss surfaces along two random filter-normalized directions
(Li et al. [15] tool), plotted at the same scale for a ResNet20 trained
with HERO and with SGD on CIFAR-10.  Claim: HERO's surface is smoother,
with a visibly larger region inside the +0.1-loss contour.

We report the surfaces, the *flat-area fraction* at the paper's +0.1
tolerance (the quantitative version of "larger inner contour"), and an
ASCII rendering for terminal inspection.
"""

from ..data import DataLoader
from ..landscape import (
    ascii_contour,
    flat_area_fraction,
    loss_surface,
    make_plot_directions,
    max_loss_increase,
)
from ..nn import CrossEntropyLoss
from .config import make_config
from .runner import load_experiment_data
from .sweep import train_runs

METHODS = ("hero", "sgd")


def fig3_configs(profile="fast", seed=0, model="ResNet20-fast", dataset="cifar10_like"):
    """The two training arms (HERO vs SGD) as a sweep spec."""
    return [
        make_config(model, dataset, method, profile=profile, seed=seed)
        for method in METHODS
    ]


def run_fig3(
    profile="fast",
    cache_dir=None,
    seed=0,
    model="ResNet20-fast",
    dataset="cifar10_like",
    radius=0.5,
    steps=13,
    tolerance=0.1,
    max_batches=2,
    direction_seed=7,
    workers=None,
    force=False,
):
    """Evaluate the 2-D loss surface around each method's optimum.

    Both surfaces use the same random seed for the plot directions and
    the same grid radius — the paper's "plotted under the same scale".
    """
    configs = fig3_configs(profile=profile, seed=seed, model=model, dataset=dataset)
    results = train_runs(configs, workers=workers, cache_dir=cache_dir, force=force)
    surfaces = {}
    for method, config, result in zip(METHODS, configs, results):
        train, _test, _spec = load_experiment_data(config)
        loader = DataLoader(train, batch_size=config.batch_size, shuffle=False, seed=0)
        batches = []
        for index, batch in enumerate(loader):
            if index >= max_batches:
                break
            batches.append(batch)
        params = list(result.model.parameters())
        d1, d2 = make_plot_directions(params, seed=direction_seed)
        surface = loss_surface(
            result.model,
            CrossEntropyLoss(),
            batches,
            d1,
            d2,
            radius=radius,
            steps=(steps, steps),
        )
        surfaces[method] = {
            "surface": surface,
            "flat_area": flat_area_fraction(surface, tolerance=tolerance),
            "max_increase": max_loss_increase(surface),
            "center_loss": surface["center_loss"],
        }
    return {
        "surfaces": surfaces,
        "radius": radius,
        "tolerance": tolerance,
        "profile": profile,
    }


def check_fig3(result):
    """Paper-shape assertion: HERO's flat region is at least SGD's."""
    hero = result["surfaces"]["hero"]
    sgd = result["surfaces"]["sgd"]
    violations = []
    if hero["flat_area"] < sgd["flat_area"]:
        violations.append(
            f"hero flat-area {hero['flat_area']:.3f} < sgd {sgd['flat_area']:.3f}"
        )
    return violations


def format_fig3(result):
    """Render both contours plus the flat-area comparison."""
    lines = [
        "Figure 3: loss contour around converged weights "
        f"(radius {result['radius']}, tolerance +{result['tolerance']})"
    ]
    for method in METHODS:
        data = result["surfaces"][method]
        lines.append(
            f"\n({method}) center loss {data['center_loss']:.4f}, "
            f"flat area {100 * data['flat_area']:.1f}%, "
            f"max increase {data['max_increase']:.3f}"
        )
        lines.append(ascii_contour(data["surface"]))
    return "\n".join(lines)
