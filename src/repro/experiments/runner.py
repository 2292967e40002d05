"""Deterministic experiment runner with on-disk memoization.

``run_training(config)`` trains a model exactly as the config says and
returns a :class:`RunResult`; results are cached under
``.cache/runs/<key>`` so that e.g. the Fig. 1 bench reuses the models
trained for Table 1 instead of retraining them.
"""

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn, optim
from ..core import make_trainer
from ..core.metrics import History
from ..data import DataLoader, corrupt_dataset, make_dataset, standard_augment
from ..data.pipeline import dataset_cache_dir
from ..io import DirectoryCache
from ..models import create_model
from ..tensor import Tensor, dtype_context, no_grad
from .config import TrainConfig
from .reporting import RunRecord


def default_cache_dir():
    """Resolve the run-cache directory.

    ``REPRO_CACHE_DIR`` wins when set; otherwise the cache lives in
    ``.cache/runs`` under the repository root.  Always returns a
    normalized absolute path so forked/spawned workers and the parent
    agree on the location regardless of their working directory.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return os.path.abspath(os.path.expanduser(env))
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))
    return os.path.join(root, ".cache", "runs")


#: Sentinel distinguishing "use the default cache" from "no cache" (None).
_DEFAULT_CACHE = object()


@dataclass
class RunResult:
    """Everything a table/figure needs from one training run."""

    config: TrainConfig
    model: object
    history: History
    train_acc: float
    test_acc: float
    from_cache: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def generalization_gap(self):
        """``train_acc - test_acc`` (Fig. 2b's quantity)."""
        return self.train_acc - self.test_acc


def load_experiment_data(config, cache_dir=_DEFAULT_CACHE):
    """Datasets for a config: ``(train, test, spec)``, label noise applied.

    The data is produced in the config's resolved dtype (not the
    ambient policy), so a driver evaluating a ``dtype='float64'`` run
    from a float32 process sees exactly the arrays the run trained on.
    Label noise (seeded by the run seed) corrupts a copy of the
    targets; the inputs are shared.

    ``cache_dir`` is the run cache, as for :func:`run_training` (the
    default run cache unless given): the arrays are memory-mapped from,
    or streamed into, its dataset cache
    (:func:`~repro.data.pipeline.dataset_cache_dir`: ``REPRO_DATASET_CACHE``,
    else ``<cache_dir>/datasets``), and ``None`` generates them in RAM.
    Each call reopens the mapped entry (or regenerates in RAM); a
    driver passes the run cache its training used, so its analysis
    phase reads the same on-disk entry as the training runs.
    """
    if cache_dir is _DEFAULT_CACHE:
        cache_dir = default_cache_dir()
    with dtype_context(config.resolved_dtype()):
        train, test, spec = make_dataset(
            config.dataset,
            train_size=config.train_size,
            test_size=config.test_size,
            cache_dir=dataset_cache_dir(cache_dir),
        )
    if config.label_noise > 0:
        train, _mask = corrupt_dataset(
            train, config.label_noise, spec.num_classes, seed=config.seed + 17
        )
    return train, test, spec


def build_model(config, spec):
    """Instantiate the config's model for the dataset's shape."""
    return create_model(
        config.model,
        num_classes=spec.num_classes,
        in_channels=spec.channels,
        scale=config.model_scale,
        seed=config.seed,
        image_size=spec.image_size,
    )


def build_trainer(config, model, callbacks=()):
    """Optimizer + scheduler + method trainer per the config."""
    loss_fn = nn.CrossEntropyLoss()
    optimizer = optim.SGD(
        model.parameters(),
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    scheduler = optim.CosineAnnealingLR(optimizer, t_max=config.epochs)
    method_kwargs = {}
    if config.grad_clip is not None:
        method_kwargs["grad_clip"] = config.grad_clip
    if config.method == "hero":
        method_kwargs.update(
            h=config.h,
            gamma=config.gamma,
            penalty=config.penalty,
            perturbation=config.perturbation,
        )
    elif config.method == "first_order":
        method_kwargs.update(h=config.h, perturbation=config.perturbation)
    elif config.method == "cure":
        method_kwargs.update(h=config.h, gamma=config.gamma, penalty=config.penalty)
    elif config.method == "grad_l1":
        method_kwargs.update(lambda_l1=config.lambda_l1)
    return make_trainer(
        config.method,
        model,
        loss_fn,
        optimizer,
        scheduler=scheduler,
        callbacks=callbacks,
        **method_kwargs,
    )


def evaluate_accuracy(model, dataset, batch_size=160):
    """Top-1 accuracy of ``model`` on ``dataset`` (in eval mode; the
    caller's mode is put back)."""
    correct = 0
    with nn.eval_mode(model), no_grad():
        for start in range(0, len(dataset), batch_size):
            idx = np.arange(start, min(start + batch_size, len(dataset)))
            x, y = dataset[idx]
            logits = model(Tensor(x)).data
            correct += int((logits.argmax(axis=1) == y).sum())
    return correct / len(dataset)


def accuracy_eval_fn(dataset, batch_size=160):
    """Closure evaluating models on ``dataset`` (for PTQ sweeps)."""
    return lambda model: evaluate_accuracy(model, dataset, batch_size=batch_size)


def run_training(config, callbacks=(), cache_dir=_DEFAULT_CACHE, force=False, verbose=False):
    """Train (or load from cache) the run described by ``config``.

    The whole run — dataset generation, model init, training, eval —
    executes under the config's engine dtype
    (:meth:`TrainConfig.resolved_dtype`), so a single process can mix
    float32 and float64 runs and each lands in its own cache entry.

    Caching stores the final state dict, history and metrics; a cached
    run restores the exact trained weights, so downstream analysis
    (quantization sweeps, landscapes) is identical to a fresh run.
    Runs that attach callbacks producing per-epoch extras are cached
    too — the callback-computed columns live inside the history.

    The cache is safe under concurrent access: entries are written to a
    temp directory and atomically renamed into place while holding a
    per-key inter-process lock, so parallel sweep workers never observe
    (or produce) a torn ``.cache/runs/<key>`` entry.
    """
    with dtype_context(config.resolved_dtype()):
        return _run_training(
            config, callbacks=callbacks, cache_dir=cache_dir, force=force, verbose=verbose
        )


def _run_training(config, callbacks, cache_dir, force, verbose):
    if cache_dir is _DEFAULT_CACHE:
        cache_dir = default_cache_dir()
    train, test, spec = load_experiment_data(config, cache_dir)
    model = build_model(config, spec)

    cache = DirectoryCache(cache_dir, _CACHE_FILES) if cache_dir else None
    if cache is not None and not force:
        cached = cache.fetch(config.cache_key(), _cache_load)
        if cached is not None:
            state, history, metrics = cached
            model.load_state_dict(state)
            return RunResult(
                config=config,
                model=model,
                history=history,
                train_acc=metrics["train_acc"],
                test_acc=metrics["test_acc"],
                from_cache=True,
            )

    trainer = build_trainer(config, model, callbacks=callbacks)
    transform = standard_augment() if config.augment else None
    train_loader = DataLoader(
        train,
        batch_size=config.batch_size,
        shuffle=True,
        transform=transform,
        seed=config.seed + 1,
    )
    test_loader = DataLoader(test, batch_size=160, shuffle=False, seed=config.seed + 2)
    history = trainer.fit(train_loader, config.epochs, test_loader=test_loader, verbose=verbose)

    train_acc = evaluate_accuracy(model, train)
    test_acc = evaluate_accuracy(model, test)
    result = RunResult(
        config=config,
        model=model,
        history=history,
        train_acc=train_acc,
        test_acc=test_acc,
    )
    if cache is not None:
        _cache_store(cache, config.cache_key(), model, history, train_acc, test_acc)
    return result


def execute_record(
    config, cache_dir=_DEFAULT_CACHE, force=False, callback_factory=None, extra_callbacks=()
):
    """Run one config and contain any crash as a :class:`RunRecord`.

    The single execution step shared by every sweep path — the serial
    loop and the queued scheduler's work-stealing workers drive the
    same code, which is what makes their results interchangeable.  ``callback_factory`` (if any) is
    called here, *inside* the executing process, so unpicklable
    callback state never crosses a process boundary.
    ``extra_callbacks`` are appended to the factory's callbacks —
    harness-owned hooks (the queue worker's lease-renewal heartbeat)
    that must ride every run regardless of what the experiment itself
    attaches.  They observe training only; the run's cache key and
    results are unaffected.  An exception anywhere in the run comes
    back as an ``error`` record instead of propagating.
    """
    start = time.perf_counter()
    try:
        callbacks = tuple(callback_factory(config)) if callback_factory is not None else ()
        callbacks += tuple(extra_callbacks)
        result = run_training(
            config, callbacks=callbacks, cache_dir=cache_dir, force=force
        )
        return RunRecord(
            key=config.cache_key(),
            config=config,
            status="ok",
            from_cache=result.from_cache,
            seconds=time.perf_counter() - start,
            train_acc=result.train_acc,
            test_acc=result.test_acc,
            pid=os.getpid(),
        )
    except Exception as exc:
        return RunRecord(
            key=config.cache_key(),
            config=config,
            status="error",
            seconds=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
            pid=os.getpid(),
        )


# ----------------------------------------------------------------------
# Cache plumbing (a DirectoryCache over the run-cache directory)
# ----------------------------------------------------------------------
#: Files that make up one complete cache entry.
_CACHE_FILES = ("state.npz", "history.json", "metrics.json")


def _cache_complete(path):
    return all(os.path.exists(os.path.join(path, name)) for name in _CACHE_FILES)


def _cache_store(cache, key, model, history, train_acc, test_acc):
    """Publish one run-cache entry atomically via :class:`DirectoryCache`.

    When two workers race to store the same key the last writer wins
    atomically — results are deterministic per config, so either copy
    is correct.
    """

    def build(tmp):
        np.savez(os.path.join(tmp, "state.npz"), **model.state_dict())
        with open(os.path.join(tmp, "history.json"), "w") as fh:
            json.dump(history.to_dict(), fh)
        with open(os.path.join(tmp, "metrics.json"), "w") as fh:
            json.dump({"train_acc": train_acc, "test_acc": test_acc}, fh)

    cache.publish(key, build)


def _cache_load(path):
    with np.load(os.path.join(path, "state.npz")) as archive:
        state = {name: archive[name] for name in archive.files}
    with open(os.path.join(path, "history.json")) as fh:
        columns = json.load(fh)
    history = History()
    if columns:
        length = max(len(col) for col in columns.values())
        for i in range(length):
            row = {
                key: col[i]
                for key, col in columns.items()
                if i < len(col) and col[i] is not None
            }
            history.log(**row)
    with open(os.path.join(path, "metrics.json")) as fh:
        metrics = json.load(fh)
    return state, history, metrics
