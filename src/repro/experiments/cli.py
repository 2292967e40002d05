"""Command-line interface for the experiment harness.

Usage::

    python -m repro.experiments table1 --profile fast --workers 4
    python -m repro.experiments fig1 --profile smoke --json out/fig1.json
    python -m repro.experiments all --profile fast
    python -m repro.experiments sweep --profile smoke --workers 4
    python -m repro.experiments sweep --spec grid.json --json report.json
    python -m repro.experiments sweep --workers 0   # submit to a fleet
    python -m repro.experiments worker --queue grid-1a2b3c4d5e6f
    python -m repro.experiments serve --workers 4
    python -m repro.experiments queue-status --json -
    python -m repro.experiments datagen --datasets cifar10_like --train-size 50000
    python -m repro.experiments publish-artifact --paper-model ResNet20-fast \\
        --weight-bits 8 --act-bits 8
    python -m repro.experiments list-artifacts --json -
    python -m repro.experiments serve-model --artifact 1a2b3c4d5e6f7a8b --workers 2

Each artifact prints its rendered table/figure and the paper-shape
check result; ``--json`` additionally dumps the raw numbers.  The
``sweep`` verb executes an experiment grid directly through the sweep
engine and reports per-run status, wall-clock and cache hits; with
``--workers 2`` or more (the verb's default) the grid runs on the
durable, resumable work-stealing queue.  The ``worker`` verb joins
such a queue from any process — any machine sharing the cache
directory — and drains tasks until the queue is empty (see
``docs/scheduler.md``).  The ``serve`` verb runs the long-lived fleet
supervisor (:mod:`repro.service`): a resident pool of multi-queue
workers that survives across sweeps, restarts workers that die and
quarantines poison configs; ``sweep --workers 0`` submits a grid to such a fleet without spawning any processes of its
own.  ``queue-status`` prints (or with ``--json`` dumps) the fleet's
versioned health snapshot — built entirely from lock-free reads, safe
to run while workers are live (see ``docs/fleet.md``).  The serving
verbs (see ``docs/serving.md``) turn trained runs into durable
deployables: ``publish-artifact`` trains (or reuses) one configuration,
optionally folds BN and applies weight/activation PTQ, and publishes
the result into the content-addressed artifact store;
``list-artifacts`` enumerates it; ``serve-model`` runs the
micro-batched inference server over a published artifact.  The ``datagen`` verb pre-warms the on-disk
dataset cache that sweep workers memory-map — datasets stream
shard-by-shard straight into the staged entry (resumable after an
interrupt, ~one shard resident; see
``docs/data-pipeline.md`` and ``docs/memory-model.md``) and the
per-shard generated/cached mix is reported for each split.
"""

import argparse
import json
import math
import os
import sys
import time

from . import (
    check_fig1,
    check_fig2,
    check_fig3,
    check_table1,
    check_table2,
    check_table3,
    format_ablation,
    format_fig1,
    format_fig2,
    format_fig3,
    format_table1,
    format_table2,
    format_table3,
    run_fig1,
    run_fig2,
    run_fig3,
    run_ablations,
    run_qat_motivation,
    check_qat_motivation,
    format_qat_motivation,
    run_table1,
    run_table2,
    run_table3,
    save_json,
)
from ..core import available_methods
from ..data import PROFILES as DATASET_PROFILES
from ..data.pipeline import dataset_cache_dir, resolve_spec
from ..messages import SchemaError
from ..tensor import set_default_dtype
from .config import PAPER_MODELS, TrainConfig, make_grid
from .runner import default_cache_dir
from .sweep import (
    WORKERS_ENV,
    format_sweep,
    resolve_workers,
    run_sweep,
)


def _format_ablations(result):
    return "\n\n".join(format_ablation(r) for r in result["ablations"])


ARTIFACTS = {
    "table1": (run_table1, format_table1, check_table1),
    "table2": (run_table2, format_table2, check_table2),
    "table3": (run_table3, format_table3, check_table3),
    "fig1": (run_fig1, format_fig1, check_fig1),
    "fig2": (run_fig2, format_fig2, check_fig2),
    "fig3": (run_fig3, format_fig3, check_fig3),
    "ablations": (run_ablations, _format_ablations, None),
    "qat": (run_qat_motivation, format_qat_motivation, check_qat_motivation),
}

#: Default grid for the bare ``sweep`` verb: the fast table-2 models
#: crossed with the paper's three methods (6 runs).
SWEEP_DEFAULT_MODELS = "ResNet20-fast,MobileNetV2-fast"
SWEEP_DEFAULT_DATASETS = "cifar10_like"
SWEEP_DEFAULT_METHODS = "hero,grad_l1,sgd"


def build_parser():
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the HERO paper's tables and figures.",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(ARTIFACTS)
        + [
            "all",
            "sweep",
            "worker",
            "serve",
            "queue-status",
            "datagen",
            "publish-artifact",
            "list-artifacts",
            "serve-model",
        ],
        help="which paper artifact to regenerate, 'sweep' to run a grid "
        "directly, 'worker' to join a sweep queue as a work-stealing "
        "worker, 'serve' to run the long-lived fleet supervisor, "
        "'queue-status' to print the fleet health snapshot, "
        "'datagen' to pre-warm the dataset cache, 'publish-artifact' / "
        "'list-artifacts' to manage the model-artifact store, or "
        "'serve-model' to run the micro-batched inference server",
    )
    parser.add_argument(
        "--profile",
        default="fast",
        choices=("smoke", "fast", "full"),
        help="execution scale (default: fast)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="experiment seed (default: 0)"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="retrain instead of reusing cached runs",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes of the table/figure verbs and all (default: "
        f"${WORKERS_ENV} or serial), sweep (default: ${WORKERS_ENV} or 2-4 "
        "queue workers; 0 submits the grid to a running fleet), serve and "
        "serve-model (default: 2; at least 1)",
    )
    parser.add_argument(
        "--dtype",
        default=None,
        choices=("float32", "float64"),
        help="engine precision for every run in this invocation "
        "(default: the REPRO_DTYPE policy, float32)",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        help="also dump raw results to this JSON path ('-' or no value: stdout)",
    )
    sweep_group = parser.add_argument_group("sweep grid (sweep verb only)")
    sweep_group.add_argument(
        "--models",
        default=SWEEP_DEFAULT_MODELS,
        help=f"comma-separated paper model names (default: {SWEEP_DEFAULT_MODELS})",
    )
    sweep_group.add_argument(
        "--datasets",
        default=SWEEP_DEFAULT_DATASETS,
        help=f"comma-separated datasets (default: {SWEEP_DEFAULT_DATASETS})",
    )
    sweep_group.add_argument(
        "--methods",
        default=SWEEP_DEFAULT_METHODS,
        help=f"comma-separated training methods (default: {SWEEP_DEFAULT_METHODS})",
    )
    sweep_group.add_argument(
        "--seeds",
        default=None,
        help="comma-separated seeds (default: --seed)",
    )
    sweep_group.add_argument(
        "--spec",
        default=None,
        help="JSON file with a list of TrainConfig dicts; overrides the grid flags",
    )
    queue_group = parser.add_argument_group("queue scheduler (sweep/worker verbs)")
    queue_group.add_argument(
        "--queue",
        default=None,
        help="queue name (or directory) to use; sweep derives one from the "
        "grid by default, worker picks the only live queue when unambiguous, "
        "serve/queue-status restrict the fleet view to this queue",
    )
    queue_group.add_argument(
        "--lease-timeout",
        type=_positive_float,
        default=None,
        help="seconds before a dead worker's leased task may be stolen "
        "(set at queue creation; default: scheduler default)",
    )
    queue_group.add_argument(
        "--max-tasks",
        type=_positive_int,
        default=None,
        help="worker verb: exit after executing this many tasks",
    )
    queue_group.add_argument(
        "--no-wait",
        action="store_true",
        help="worker verb: exit at the first idle scan instead of waiting "
        "for the queue to drain",
    )
    fleet_group = parser.add_argument_group("fleet service (serve/queue-status verbs)")
    fleet_group.add_argument(
        "--poll",
        type=_positive_float,
        default=None,
        help="serve: seconds between supervision passes (default: 0.25)",
    )
    fleet_group.add_argument(
        "--heartbeat-interval",
        type=_positive_float,
        default=None,
        help="serve: seconds between worker heartbeat writes (default: 2)",
    )
    fleet_group.add_argument(
        "--until-drained",
        action="store_true",
        help="serve: exit once every queue is terminal instead of waiting "
        "for new sweeps (the CI drill mode)",
    )
    fleet_group.add_argument(
        "--max-seconds",
        type=_non_negative_float,
        default=None,
        help="serve: hard wall-clock bound on the supervisor",
    )
    serving_group = parser.add_argument_group(
        "model serving (publish-artifact/list-artifacts/serve-model verbs)"
    )
    serving_group.add_argument(
        "--paper-model",
        choices=sorted(PAPER_MODELS),
        default="ResNet20-fast",
        help="publish-artifact: paper model name to train/reuse "
        "(default: ResNet20-fast)",
    )
    serving_group.add_argument(
        "--dataset",
        choices=sorted(DATASET_PROFILES),
        default="cifar10_like",
        help="publish-artifact: dataset profile (default: cifar10_like)",
    )
    serving_group.add_argument(
        "--method",
        choices=available_methods(),
        default="hero",
        help="publish-artifact: training method (default: hero)",
    )
    serving_group.add_argument(
        "--weight-bits",
        type=_bit_width,
        default=None,
        help="publish-artifact: uniform weight PTQ bit width (default: none)",
    )
    serving_group.add_argument(
        "--act-bits",
        type=_bit_width,
        default=None,
        help="publish-artifact: calibrated activation PTQ bit width "
        "(requires --weight-bits; default: none)",
    )
    serving_group.add_argument(
        "--bn-fold",
        action="store_true",
        help="publish-artifact: fold BatchNorm into convolutions first",
    )
    serving_group.add_argument(
        "--artifact",
        dest="artifact_key",
        default=None,
        help="serve-model: artifact key to serve (see list-artifacts)",
    )
    serving_group.add_argument(
        "--server-name",
        default=None,
        help="serve-model: server directory name (default: srv-<key prefix>)",
    )
    serving_group.add_argument(
        "--max-batch",
        type=_positive_int,
        default=8,
        help="serve-model: micro-batch size ceiling (default: 8)",
    )
    serving_group.add_argument(
        "--max-delay-ms",
        type=_non_negative_float,
        default=10.0,
        help="serve-model: longest a request waits while a batch is open; "
        "an idle server ships at once (default: 10ms)",
    )
    datagen_group = parser.add_argument_group("dataset generation (datagen verb)")
    datagen_group.add_argument(
        "--train-size", type=_positive_int, default=None, help="override each profile's train size"
    )
    datagen_group.add_argument(
        "--test-size", type=_positive_int, default=None, help="override each profile's test size"
    )
    datagen_group.add_argument(
        "--shard-size",
        type=_positive_int,
        default=None,
        help="samples per generation shard (default: repro.data.pipeline default)",
    )
    return parser


def _positive_int(text):
    """argparse type of the dataset sizes, ``--max-batch`` and
    ``--max-tasks``: an integer of at least 1."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _bit_width(text):
    """argparse type of ``--weight-bits`` and ``--act-bits``: an integer
    in [2, 16], the widths :class:`~repro.quant.QuantScheme` accepts."""
    value = _int(text)
    if not 2 <= value <= 16:
        raise argparse.ArgumentTypeError(f"must be in [2, 16], got {value}")
    return value


def _non_negative_float(text):
    """argparse type of ``--max-delay-ms`` and ``--max-seconds``: a number of at least 0."""
    value = _float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _positive_float(text):
    """argparse type of ``--lease-timeout``, ``--poll`` and
    ``--heartbeat-interval``: a finite number greater than 0."""
    value = _float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number greater than 0, got {value}")
    return value


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _float(text):
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _csv(value):
    return [item.strip() for item in value.split(",") if item.strip()]


def sweep_configs_from_args(args):
    """Build the sweep's config list from ``--spec`` or the grid flags."""
    if args.spec:
        with open(args.spec) as fh:
            payload = json.load(fh)
        return [TrainConfig.from_dict(entry) for entry in payload]
    seeds = [int(s) for s in _csv(args.seeds)] if args.seeds else [args.seed]
    return make_grid(
        _csv(args.models),
        _csv(args.datasets),
        _csv(args.methods),
        seeds=seeds,
        profile=args.profile,
    )


def run_sweep_command(args, out=sys.stdout):
    """The ``sweep`` verb: execute a grid, print the report.

    Returns the number of failed runs (shell-exit-code shaped).  An
    invalid grid or ``--spec`` entry exits non-zero before anything is
    enqueued or trained.
    """
    try:
        configs = sweep_configs_from_args(args)
    except (SchemaError, KeyError) as exc:
        raise SystemExit(f"invalid sweep spec: {exc.args[0]}") from None
    if args.workers is not None:
        workers = args.workers
    elif os.environ.get(WORKERS_ENV):
        workers = resolve_workers(None)
    else:
        workers = min(4, max(2, os.cpu_count() or 2))
    report = run_sweep(
        configs,
        workers=workers,
        force=args.no_cache,
        queue_name=args.queue,
        lease_timeout=args.lease_timeout,
    )
    print(format_sweep(report), file=out)
    if args.json:
        save_json(report.to_dict(), args.json)
        print(f"\nraw report -> {args.json}", file=out)
    return report.n_errors


def resolve_queue_root(name, cache_dir=None):
    """Resolve a ``--queue`` value (name, directory, or None) to a root.

    ``None`` is accepted only when exactly one queue exists under the
    cache — the common "I started one sweep, join it" case; anything
    ambiguous raises with the candidate names so the operator can pick.
    """
    from .scheduler import QUEUE_SUBDIR, discover_queues, queue_root

    cache_dir = cache_dir or default_cache_dir()
    if name:
        root = os.path.abspath(name) if os.path.isdir(name) else queue_root(cache_dir, name)
        if not os.path.exists(os.path.join(root, "meta.json")):
            raise SystemExit(f"no queue at {root}; start one with 'sweep --workers N'")
        return root
    candidates = discover_queues(cache_dir)
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise SystemExit(f"no queues under {os.path.join(cache_dir, QUEUE_SUBDIR)}; start one with "
                         "'sweep --workers N' or pass --queue")
    raise SystemExit(
        "multiple queues exist; pass --queue one of: "
        + ", ".join(os.path.basename(root) for root in candidates)
    )


def run_worker_command(args, out=sys.stdout):
    """The ``worker`` verb: drain tasks from a queue until it is empty.

    Any number of these can run concurrently — same machine or any
    other machine mounting the cache directory.  Returns 0 when the
    queue drained with no errors, 1 otherwise.
    """
    from .scheduler import TaskQueue, format_queue, worker_identity, worker_loop

    root = resolve_queue_root(args.queue)
    queue = TaskQueue(root)
    if args.lease_timeout is not None:
        # The documented recovery path: joining with an explicit (usually
        # shorter) lease timeout updates the live queue, so leases
        # orphaned by a dead sweep become stealable immediately.
        queue = TaskQueue.create(
            queue.cache_dir, os.path.basename(root), lease_timeout=args.lease_timeout
        )
    worker = worker_identity()
    print(f"worker {worker} joining {root}", file=out)
    executed = worker_loop(
        root,
        worker=worker,
        max_tasks=args.max_tasks,
        until="idle" if args.no_wait else "drained",
    )
    counts = queue.counts()
    print(f"worker {worker} executed {executed} task(s)", file=out)
    print(format_queue(queue), file=out)
    return 1 if counts["error"] else 0


def _fleet_queue_names(args):
    """``--queue`` as a fleet restriction (name or directory) or ``None``."""
    if not args.queue:
        return None
    return [os.path.basename(os.path.normpath(args.queue))]


def run_serve_command(args, out=sys.stdout):
    """The ``serve`` verb: run the long-lived fleet supervisor.

    Starts ``--workers`` resident multi-queue workers over every queue
    under the run cache (``--queue`` to restrict) and supervises them
    until interrupted: dead workers are restarted, erroring tasks are
    retried then quarantined, and the supervisor/heartbeat state files
    feed ``queue-status``.  ``--until-drained`` turns it into a
    bounded drill that exits once every queue is terminal.
    """
    from ..service import FleetSupervisor, build_status, format_status

    cache_dir = default_cache_dir()
    kwargs = {}
    if args.poll is not None:
        kwargs["poll"] = args.poll
    if args.heartbeat_interval is not None:
        kwargs["heartbeat_interval"] = args.heartbeat_interval
    supervisor = FleetSupervisor(
        cache_dir,
        workers=args.workers if args.workers is not None else 2,
        queues=_fleet_queue_names(args),
        **kwargs,
    )
    print(
        f"fleet supervisor: {supervisor.workers} worker(s) over {cache_dir}",
        file=out,
    )
    try:
        supervisor.serve(
            until_drained=args.until_drained, max_seconds=args.max_seconds
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    print(format_status(build_status(cache_dir, queues=supervisor.queues)), file=out)
    return 0


def run_queue_status_command(args, out=sys.stdout):
    """The ``queue-status`` verb: print the fleet health snapshot.

    Assembled entirely from lock-free reads (journal snapshots,
    heartbeat files, the supervisor state file), so it is always safe
    to run against a live fleet.  ``--json [PATH]`` additionally dumps
    the versioned machine-readable document (``-``/no value: stdout).
    """
    from ..service import build_status, format_status

    status = build_status(default_cache_dir(), queues=_fleet_queue_names(args))
    print(format_status(status), file=out)
    if args.json:
        save_json(status, args.json)
        if args.json != "-":
            print(f"raw snapshot -> {args.json}", file=out)
    return 0


def _quant_summary(manifest):
    """One-line PTQ description of an artifact manifest."""
    parts = []
    if manifest.bn_folded:
        parts.append("bn-folded")
    wq = manifest.weight_quant
    if wq is not None:
        if wq.mode == "uniform":
            parts.append(f"w{wq.bits}")
        else:
            bits = sorted(set(wq.assignment.values()))
            parts.append("w-mixed[" + ",".join(str(b) for b in bits) + "]")
    if manifest.activation_quant is not None:
        parts.append(f"a{manifest.activation_quant.bits}")
    return "+".join(parts) if parts else "float"


def run_publish_artifact_command(args, out=sys.stdout):
    """The ``publish-artifact`` verb: train (or reuse) a run, publish it.

    Builds the configuration from the serving flags, trains it through
    the cached runner (a warm cache makes this instant), optionally
    folds BatchNorm and applies uniform weight PTQ — with calibrated
    activation PTQ when ``--act-bits`` is also given — then publishes
    the result into the content-addressed artifact store and prints the
    key ``serve-model`` needs.
    """
    from ..data import DataLoader
    from ..quant import QuantScheme, fold_batchnorms, quantize_model
    from ..quant import quantize_weights_and_activations
    from ..serving import model_spec, publish_artifact, uniform_weight_quant
    from .config import make_config
    from .runner import load_experiment_data, run_training

    if args.act_bits is not None and args.weight_bits is None:
        raise SystemExit("--act-bits requires --weight-bits")
    config = make_config(
        args.paper_model, args.dataset, args.method, profile=args.profile, seed=args.seed
    )
    print(
        f"training {args.paper_model} / {args.dataset} / {args.method} "
        f"({args.profile} profile)...",
        file=out,
    )
    result = run_training(config, force=args.no_cache)
    train, _test, spec = load_experiment_data(config)
    model = result.model
    if args.bn_fold:
        model, folded = fold_batchnorms(model)
        model.eval()
        print(f"folded {folded} conv+BN pair(s)", file=out)
    weight_quant = None
    if args.weight_bits is not None and args.act_bits is not None:
        loader = DataLoader(train, batch_size=config.batch_size, shuffle=False, seed=0)
        calibration = [next(iter(loader))]
        model = quantize_weights_and_activations(
            model, weight_bits=args.weight_bits, act_bits=args.act_bits,
            batches=calibration,
        )
        weight_quant = uniform_weight_quant(args.weight_bits)
    elif args.weight_bits is not None:
        model, _report = quantize_model(model, QuantScheme(bits=args.weight_bits))
        weight_quant = uniform_weight_quant(args.weight_bits)
    manifest = publish_artifact(
        model,
        model_spec(
            config.model,
            spec.num_classes,
            spec.channels,
            config.model_scale,
            spec.image_size,
        ),
        source=f"run:{config.cache_key()}",
        weight_quant=weight_quant,
        bn_folded=args.bn_fold,
    )
    print(
        f"published {manifest.key}: {manifest.model.name} "
        f"x{manifest.model.scale:g} ({_quant_summary(manifest)}, "
        f"{manifest.params} params, {manifest.dtype})",
        file=out,
    )
    print(f"serve it:  python -m repro.experiments serve-model "
          f"--artifact {manifest.key}", file=out)
    if args.json:
        save_json(manifest.to_dict(), args.json)
        print(f"manifest -> {args.json}", file=out)
    return 0


def run_list_artifacts_command(args, out=sys.stdout):
    """The ``list-artifacts`` verb: enumerate the artifact store."""
    from ..serving import artifact_cache, list_artifacts

    manifests = list_artifacts()
    if not manifests:
        print(
            f"no artifacts under {artifact_cache().root}; publish one with "
            "'publish-artifact'",
            file=out,
        )
        return 0
    print(f"{'key':16s}  {'model':20s}  {'quant':16s}  {'params':>9s}  dtype", file=out)
    for manifest in manifests:
        model = f"{manifest.model.name} x{manifest.model.scale:g}"
        print(
            f"{manifest.key:16s}  {model:20s}  {_quant_summary(manifest):16s}  "
            f"{manifest.params:9d}  {manifest.dtype}",
            file=out,
        )
    if args.json:
        save_json([manifest.to_dict() for manifest in manifests], args.json)
        if args.json != "-":
            print(f"manifests -> {args.json}", file=out)
    return 0


def run_serve_model_command(args, out=sys.stdout):
    """The ``serve-model`` verb: run the micro-batched inference server.

    Starts the batcher plus ``--workers`` model workers over a server
    directory any client (or machine sharing the cache) can drop
    requests into; serves until interrupted or ``--max-seconds``
    elapses, then prints the final stats snapshot.
    """
    from ..serving import InferenceServer

    if not args.artifact_key:
        raise SystemExit("serve-model requires --artifact KEY (see list-artifacts)")
    try:
        server = InferenceServer(
            args.artifact_key,
            name=args.server_name,
            workers=args.workers if args.workers is not None else 2,
            max_batch=args.max_batch,
            max_delay=args.max_delay_ms / 1000.0,
            lease_timeout=args.lease_timeout
            if args.lease_timeout is not None
            else 5.0,
        )
    except KeyError as exc:
        raise SystemExit(str(exc)) from exc
    print(
        f"serving {args.artifact_key} at {server.root} "
        f"(workers={server.workers}, max_batch={server.max_batch}, "
        f"max_delay={server.max_delay * 1000:g}ms)",
        file=out,
    )
    deadline = (
        time.monotonic() + args.max_seconds if args.max_seconds is not None else None
    )
    with server:
        try:
            while deadline is None or time.monotonic() < deadline:
                time.sleep(0.05)
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
    stats = server.write_stats()
    print(
        f"served {stats.served_total} request(s) in {stats.batches_total} "
        f"batch(es); re-served {stats.re_served_total}",
        file=out,
    )
    if args.json:
        save_json(stats.to_dict(), args.json)
    return 0


def run_datagen_command(args, out=sys.stdout):
    """The ``datagen`` verb: pre-warm the on-disk dataset cache.

    Generates every ``--datasets`` profile at the requested sizes into
    the dataset cache the sweep workers will memory-map, streamed
    shard by shard in this process.  Each dataset is reported at
    **shard granularity**: shards generated this run vs shards served
    from the cache (a resumed interrupt shows up as a mix).  Returns 0
    on success (a warm entry counts as success); returns 1 when the
    dataset cache is disabled, since there is nothing to warm.
    """
    from ..data import stream_dataset

    profiles = _csv(args.datasets)
    try:
        specs = [resolve_spec(p, train_size=args.train_size, test_size=args.test_size) for p in profiles]
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    cache_dir = dataset_cache_dir(default_cache_dir())
    if not cache_dir:
        print(
            "dataset cache is disabled (REPRO_DATASET_CACHE=off); "
            "nothing to warm",
            file=out,
        )
        return 1
    results = []
    for profile, spec in zip(profiles, specs):
        report = stream_dataset(spec, cache_dir, shard_size=args.shard_size)
        key, hit, seconds = report.key, report.hit, report.seconds
        splits = report.to_dict()["splits"]
        results.append(
            {"profile": profile, "key": key, "hit": hit, "seconds": seconds, "splits": splits}
        )
        if hit:
            status = "cached"
        elif report.n_generated == 0:
            # every shard was journaled done; this run only committed
            status = f"resumed in {seconds:.2f}s"
        else:
            status = f"generated in {seconds:.2f}s"
        print(
            f"{profile}: {spec.train_size}+{spec.test_size} samples -> "
            f"{key} ({status})",
            file=out,
        )
        for split in splits:
            shards = split["shards"]
            parts = []
            if split["generated"]:
                parts.append(f"{len(split['generated'])} generated")
            if split["cached"]:
                parts.append(f"{split['cached']} cached")
            print(
                f"  {split['split']}: {shards} shard(s) — " + ", ".join(parts),
                file=out,
            )
    print(f"dataset cache: {cache_dir}", file=out)
    if args.json:
        save_json({"cache_dir": cache_dir, "datasets": results}, args.json)
        print(f"raw report -> {args.json}", file=out)
    return 0


def run_artifact(
    name, profile, seed=0, force=False, json_path=None, workers=None, out=sys.stdout
):
    """Run one artifact; returns the number of paper-shape violations."""
    run_fn, format_fn, check_fn = ARTIFACTS[name]
    result = run_fn(profile=profile, seed=seed, workers=workers, force=force)
    print(format_fn(result), file=out)
    violations = check_fn(result) if check_fn else []
    if violations:
        print("\nDeviations vs the paper's claims:", file=out)
        for violation in violations:
            print(f"  - {violation}", file=out)
    elif check_fn:
        print("\nPaper-shape checks passed.", file=out)
    if json_path:
        save_json(result, json_path)
        print(f"\nraw results -> {json_path}", file=out)
    return len(violations)


def main(argv=None):
    """CLI entry point; returns a shell exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.artifact in ("serve", "serve-model") and args.workers is not None and args.workers < 1:
        # `sweep --workers 0` submits to a fleet; a server needs a worker.
        parser.error(f"{args.artifact}: --workers must be at least 1, got {args.workers}")
    if args.dtype:
        set_default_dtype(args.dtype)
    if args.artifact == "sweep":
        return 1 if run_sweep_command(args) else 0
    if args.artifact == "worker":
        return run_worker_command(args)
    if args.artifact == "serve":
        return run_serve_command(args)
    if args.artifact == "queue-status":
        return run_queue_status_command(args)
    if args.artifact == "datagen":
        return run_datagen_command(args)
    if args.artifact == "publish-artifact":
        return run_publish_artifact_command(args)
    if args.artifact == "list-artifacts":
        return run_list_artifacts_command(args)
    if args.artifact == "serve-model":
        return run_serve_model_command(args)
    names = sorted(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    total_violations = 0
    for name in names:
        if len(names) > 1:
            print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        json_path = args.json if len(names) == 1 else None
        total_violations += run_artifact(
            name,
            args.profile,
            seed=args.seed,
            force=args.no_cache,
            json_path=json_path,
            workers=args.workers,
        )
    return 0 if total_violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
