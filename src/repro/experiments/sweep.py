"""Experiment sweep engine: one serial loop, one parallel executor.

Every table and figure in the reproduction is a grid of independent
:class:`~repro.experiments.config.TrainConfig` runs, already memoized
under the run cache.  :func:`run_sweep` executes such grids; the
worker count alone picks the path:

* ``workers=1`` (the default) — an in-process loop, deterministic and
  fork-free, so unit tests and small grids need nothing else.
* ``workers>=2`` — the grid is enqueued into a durable task queue under
  the run cache (:mod:`repro.experiments.scheduler`) and drained by
  that many local work-stealing worker processes.  Every parallel
  sweep is resumable: call it again after an interrupt and finished
  runs are served from the journal.
* ``workers=0`` — enqueue only and tail the journal while a resident
  fleet (:mod:`repro.service`) executes the grid.

Properties every path shares:

* **Lock-safe caching** — workers share the on-disk run cache; the
  runner's write-to-temp-then-rename stores plus per-key inter-process
  locks mean concurrent workers never corrupt or duplicate an entry.
* **Bit-identical results** — runs are seeded entirely from their
  config (data split, init, shuffling), so a parallel sweep produces
  exactly the same run keys, weights and metrics as a serial one.
* **Structured reporting** — each run yields a :class:`RunRecord`
  (status, wall-clock, cache hit, metrics) aggregated into a
  :class:`SweepReport`; a crash inside a run is contained as an
  ``error`` record instead of taking down the sweep.
* **Dataset warm-up** — before its workers start, a parallel sweep
  writes every unique dataset signature in the grid once into the
  on-disk dataset cache (``<run cache>/datasets``) through the
  streaming shard writer (:mod:`repro.data.streaming`), in the sweep
  process; workers then memory-map the shared arrays instead of
  regenerating them, and a repeat sweep performs zero generation work.

Opt in to parallelism with ``workers=N`` or the ``REPRO_WORKERS``
environment variable (:func:`resolve_workers`); the sweep is the only
layer that decides a worker count.  The ``python -m repro.experiments
sweep`` CLI verb exposes the engine directly; the table/figure drivers
reach it through :func:`train_runs`, which yields the trained runs
themselves (serial: trained in process, in order; parallel: one queued
sweep, then read back from the run cache one at a time).

Examples
--------
Run a 2-model × 3-method grid on 4 workers, then reuse it::

    from repro.experiments import make_grid, run_sweep

    configs = make_grid(["ResNet20-fast", "MobileNetV2-fast"],
                        ["cifar10_like"], ["hero", "grad_l1", "sgd"])
    report = run_sweep(configs, workers=4)
    again = run_sweep(configs, workers=4)   # all cache hits, no training,
                                            # no dataset generation

Equivalent shell invocations (the env vars every layer honors)::

    REPRO_WORKERS=4 python -m repro.experiments sweep --profile smoke
    REPRO_DTYPE=float64 REPRO_CACHE_DIR=/tmp/repro-cache \\
        python -m repro.experiments sweep --models ResNet20-fast
"""

import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait

from ..data import stream_dataset
from ..data.pipeline import dataset_cache_dir, resolve_spec
from ..tensor import dtype_context, dtype_name
from . import scheduler as sched
from .reporting import format_table, record_to_dict
from .runner import _DEFAULT_CACHE, default_cache_dir, execute_record, run_training

#: Environment variable naming the default worker count.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers=None):
    """Resolve a worker count: explicit arg > ``REPRO_WORKERS`` > serial (1)."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return max(1, int(workers))


@dataclass
class SweepReport:
    """Aggregate result of :func:`run_sweep`."""

    records: list = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    cache_dir: str = None
    deduped: int = 0  #: configs dropped because their run key repeated
    datasets_warmed: int = 0  #: dataset-cache entries generated by the warm pass
    dataset_cache_hits: int = 0  #: dataset signatures already cached (zero generation)
    queue: str = None  #: queue directory (parallel and fleet sweeps only)
    resumed: int = 0  #: tasks served straight from the journal (already done)
    stolen: int = 0  #: expired leases re-claimed by another worker
    quarantined: int = 0  #: tasks parked by the fleet's poison patrol

    @property
    def n_ok(self):
        return sum(1 for r in self.records if r.ok)

    @property
    def n_errors(self):
        return sum(1 for r in self.records if not r.ok)

    @property
    def cache_hits(self):
        return sum(1 for r in self.records if r.ok and r.from_cache)

    @property
    def cache_hit_rate(self):
        return self.cache_hits / len(self.records) if self.records else 0.0

    def to_dict(self):
        """JSON-safe summary (what ``--json`` dumps)."""
        return {
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "cache_dir": self.cache_dir,
            "deduped": self.deduped,
            "n_ok": self.n_ok,
            "n_errors": self.n_errors,
            "cache_hits": self.cache_hits,
            "datasets_warmed": self.datasets_warmed,
            "dataset_cache_hits": self.dataset_cache_hits,
            "queue": self.queue,
            "resumed": self.resumed,
            "stolen": self.stolen,
            "quarantined": self.quarantined,
            "runs": [record_to_dict(r) for r in self.records],
        }


def warm_datasets(configs, cache_dir):
    """Generate each unique dataset signature in ``configs`` once.

    Deduplicates the grid down to its ``(profile, train_size,
    test_size, dtype)`` signatures and ensures a dataset-cache entry
    exists for each, streaming cold ones shard by shard into the cache
    (:func:`repro.data.stream_dataset`; an interrupted warm pass
    resumes from its per-shard journal).  Returns ``(warmed, hits)`` —
    entries generated vs. already present.  A no-op returning ``(0,
    0)`` when no dataset cache is resolvable from ``cache_dir`` /
    ``REPRO_DATASET_CACHE``.
    """
    dataset_dir = dataset_cache_dir(cache_dir)
    if not dataset_dir:
        return 0, 0
    signatures = []
    seen = set()
    for config in configs:
        sig = (config.dataset, config.train_size, config.test_size, config.resolved_dtype())
        if sig not in seen:
            seen.add(sig)
            signatures.append(sig)
    warmed = hits = 0
    for profile, train_size, test_size, dtype in signatures:
        try:
            spec = resolve_spec(profile, train_size=train_size, test_size=test_size)
        except KeyError:
            # An unknown profile is not the warm pass's problem: the run
            # itself will fail in its worker and be contained as an
            # ``error`` record.  Anything else (unwritable cache dir,
            # disk full) propagates — one diagnosable failure up front
            # beats N identical per-run errors.
            continue
        with dtype_context(dtype):
            hit = stream_dataset(spec, dataset_dir).hit
        if hit:
            hits += 1
        else:
            warmed += 1
    return warmed, hits


def run_sweep(
    configs,
    workers=None,
    cache_dir=_DEFAULT_CACHE,
    force=False,
    callback_factory=None,
    mp_context="spawn",
    progress=None,
    queue_name=None,
    lease_timeout=None,
):
    """Execute every config in ``configs``; returns a :class:`SweepReport`.

    Configs whose run key repeats are deduplicated (the cache would
    serve the duplicate anyway).  The resolved worker count picks the
    executor:

    * ``1`` — the configs run one after another in this process.
    * ``>= 2`` — the grid is enqueued into a durable task queue under
      the run cache (:mod:`repro.experiments.scheduler`), its datasets
      are warmed, and ``workers`` local work-stealing processes drain
      it while the journal is tailed into the report.  Interrupt the
      sweep and call again: ``done`` tasks whose run-cache entries are
      intact are served from the journal (and reported as cache hits),
      only the rest re-run.  Extra workers — other machines sharing
      the cache dir — may join via ``python -m repro.experiments
      worker`` at any time.
    * ``0`` — enqueue and tail only: some external fleet, typically a
      resident :class:`repro.service.FleetSupervisor` pool serving the
      cache dir, drains the queue.  This is how sweeps are submitted to
      a long-lived ``serve`` fleet instead of bringing their own
      processes.

    Every path executes runs through the same
    :func:`~repro.experiments.runner.execute_record`, so for a given
    grid the records and cache contents are bit-identical across
    worker counts (the parity property the scheduler test suite pins).

    ``callback_factory`` (optional, picklable, called as
    ``factory(config)`` inside each worker) builds per-run training
    callbacks — e.g. Fig. 2's Hessian-norm probe.  ``progress`` is an
    optional callable receiving each finished :class:`RunRecord`.
    ``queue_name`` overrides the grid-derived queue identity and
    ``lease_timeout`` (seconds) tunes how fast a dead worker's tasks
    are stolen; both apply to queued sweeps only.
    """
    # Pin each config's engine dtype to the parent's resolved policy
    # before dispatch: workers re-resolve ``dtype=None`` against *their*
    # environment, which may disagree with a parent that changed the
    # policy programmatically — and then cache keys would diverge.
    configs = [
        config if config.dtype else config.with_overrides(dtype=dtype_name(None))
        for config in configs
    ]
    workers = 0 if workers == 0 else resolve_workers(workers)
    if cache_dir is _DEFAULT_CACHE:
        cache_dir = default_cache_dir()
    if not cache_dir and workers != 1:
        raise ValueError(
            "parallel and fleet sweeps need a cache_dir: workers return "
            "metrics only and the trained weights are published through "
            "the run cache (the queue journal also lives there)"
        )

    unique, seen = [], set()
    for config in configs:
        key = config.cache_key()
        if key not in seen:
            seen.add(key)
            unique.append(config)

    start = time.perf_counter()
    if workers == 1:
        records = []
        for config in unique:
            record = execute_record(
                config, cache_dir=cache_dir, force=force, callback_factory=callback_factory
            )
            records.append(record)
            if progress is not None:
                progress(record)
        report = SweepReport(records=records, cache_dir=cache_dir if cache_dir else None)
    else:
        report = _run_queue_sweep(
            unique,
            workers=workers,
            cache_dir=cache_dir,
            force=force,
            callback_factory=callback_factory,
            mp_context=mp_context,
            progress=progress,
            queue_name=queue_name,
            lease_timeout=lease_timeout,
        )
    report.deduped = len(configs) - len(unique)
    report.wall_seconds = time.perf_counter() - start
    return report


#: Seconds between journal reads while a queued sweep has a
#: ``progress`` callback to feed, or tails a fleet; otherwise the sweep
#: process sleeps until one of its workers exits.
_TAIL_POLL = 0.25


def _run_queue_sweep(
    unique,
    workers,
    cache_dir,
    force,
    callback_factory,
    mp_context,
    progress,
    queue_name,
    lease_timeout,
):
    """The queued path: enqueue, warm, spawn local workers, tail the journal."""
    queue = sched.TaskQueue.create(
        cache_dir, queue_name or sched.queue_name_for(unique), lease_timeout=lease_timeout
    )
    _enqueued, resumed = queue.enqueue(unique, force=force)
    wanted = [config.cache_key() for config in unique]
    # Tasks already terminal right after enqueue are served from the
    # journal: nothing runs for them in this sweep.
    snapshot = queue.snapshot()
    served = {key for key in wanted if snapshot[key]["status"] in sched.TERMINAL}

    datasets_warmed = dataset_cache_hits = 0
    procs = []
    if workers > 1:
        # Each unique dataset signature is written once, before any
        # worker starts, and the workers memory-map the shared arrays.
        datasets_warmed, dataset_cache_hits = warm_datasets(unique, cache_dir)
        ctx = get_context(mp_context)
        for _ in range(min(workers, len(wanted) - len(served))):
            proc = ctx.Process(
                target=sched._worker_main, args=((queue.root, None, callback_factory, None),)
            )
            proc.start()
            procs.append(proc)

    def record_for(key, snapshot):
        record = queue.record_for(snapshot[key])
        if key in served and record.ok:
            record.from_cache = True
        return record

    reported = set()
    while True:
        snapshot = queue.snapshot()
        finished = [key for key in wanted if snapshot[key]["status"] in sched.TERMINAL]
        if progress is not None:
            for key in finished:
                if key not in reported:
                    reported.add(key)
                    progress(record_for(key, snapshot))
        if len(finished) == len(wanted):
            break
        alive = [proc.sentinel for proc in procs if proc.is_alive()]
        if alive:
            wait(alive, timeout=None if progress is None else _TAIL_POLL)
        elif workers == 0:
            # Fleet submission: this process brought no workers on
            # purpose — a resident pool (``repro.service``) serving the
            # cache dir executes the tasks; we only tail the journal.
            time.sleep(_TAIL_POLL)
        else:
            # Every local worker exited with work outstanding: leases
            # held by a dead worker (this sweep's or an earlier one's)
            # or by another machine.  Finish the drain inline so
            # run_sweep always returns a complete report; expired
            # leases are stolen like any other.
            sched.worker_loop(queue.root, callback_factory=callback_factory)
    for proc in procs:
        proc.join()

    records = [record_for(key, snapshot) for key in wanted]
    stolen = sum(max(0, snapshot[key]["attempts"] - 1) for key in wanted)
    quarantined = sum(1 for key in wanted if snapshot[key]["status"] == sched.QUARANTINED)
    return SweepReport(
        records=records,
        workers=workers,
        cache_dir=cache_dir,
        datasets_warmed=datasets_warmed,
        dataset_cache_hits=dataset_cache_hits,
        queue=queue.root,
        resumed=resumed,
        stolen=stolen,
        quarantined=quarantined,
    )


def train_runs(configs, workers=None, cache_dir=None, force=False, callback_factory=None):
    """Yield one :class:`~repro.experiments.runner.RunResult` per config, in order.

    The table/figure drivers' one path from a grid to trained runs.
    When ``workers`` resolves to 1 each config trains (or loads) in
    this process, in order: an exception propagates and no queue
    directory is created.  With ``workers >= 2`` the grid trains as one
    queued :func:`run_sweep` at the first ``next()``, and every result
    is then read back from the run cache.  Results are produced on
    demand, so a driver that assembles as it iterates holds one trained
    model at a time; wrap the call in ``list()`` to keep them all.
    ``force`` retrains each config once: it applies only to the pass
    that trains.  ``callback_factory(config)`` builds each run's
    training callbacks (Fig. 2's ``||Hz||`` probe).  ``cache_dir=None``
    means the default run cache.
    """
    cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
    workers = resolve_workers(workers)
    if workers > 1:
        run_sweep(
            configs,
            workers=workers,
            cache_dir=cache_dir,
            force=force,
            callback_factory=callback_factory,
        )
        force = False
    trained = set()
    for config in configs:
        key = config.cache_key()
        yield run_training(
            config,
            callbacks=callback_factory(config) if callback_factory is not None else (),
            cache_dir=cache_dir,
            force=force and key not in trained,
        )
        trained.add(key)


def format_sweep(report, limit=None):
    """Render a sweep report as a text table plus a summary line."""
    headers = ["Key", "Model", "Dataset", "Method", "Seed", "Status", "Time", "Test acc"]
    rows = []
    for record in report.records[: limit if limit else len(report.records)]:
        config = record.config
        status = "hit" if record.ok and record.from_cache else record.status
        rows.append(
            [
                record.key,
                config.model,
                config.dataset,
                config.method,
                str(config.seed),
                status,
                f"{record.seconds:.1f}s",
                record.test_acc if record.test_acc is not None else "-",
            ]
        )
    table = format_table(headers, rows, title="Sweep runs")
    summary = (
        f"{len(report.records)} runs on {report.workers} worker(s) in "
        f"{report.wall_seconds:.1f}s — {report.cache_hits} cache hit(s), "
        f"{report.n_errors} error(s)"
        + (
            f" [queue: {report.resumed} resumed, {report.stolen} stolen"
            + (f", {report.quarantined} quarantined" if report.quarantined else "")
            + "]"
            if report.queue
            else ""
        )
        + (f", {report.deduped} duplicate config(s) collapsed" if report.deduped else "")
        + (
            f", {report.datasets_warmed} dataset(s) warmed"
            if report.datasets_warmed
            else ""
        )
        + (
            f", {report.dataset_cache_hits} dataset(s) already cached"
            if report.dataset_cache_hits
            else ""
        )
    )
    lines = [table]
    for record in report.records:
        if not record.ok:
            lines.append(f"  error [{record.key}]: {record.error}")
    lines.append("")
    lines.append(summary)
    return "\n".join(lines)
