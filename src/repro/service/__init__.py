"""``repro.service`` — the long-lived sweep fleet.

PR 4's queue scheduler made sweeps durable; this package makes the
*workers* durable.  A :class:`FleetSupervisor` keeps a pool of
multi-queue workers resident across sweeps: it restarts workers that
die, retries-then-quarantines tasks that keep erroring, and publishes
a machine-readable health snapshot (``queue-status``) assembled
entirely from lock-free reads — heartbeat files, journal snapshots and
the supervisor's own state file, all written atomically so observers
never block a worker.

Layering: ``service`` sits *above* ``experiments`` (it drives
``TaskQueue``/``execute_record``); nothing below imports it except the
deliberately thin heartbeat hook ``worker_loop`` takes as a parameter.
See ``docs/fleet.md`` for the lifecycle and the snapshot schema.
"""

from .heartbeat import (
    HEARTBEAT_VERSION,
    Heartbeat,
    heartbeat_dir,
    liveness,
    read_heartbeats,
    service_dir,
)
from .status import STATUS_VERSION, build_status, format_status
from .supervisor import (
    SUPERVISOR_VERSION,
    FleetSupervisor,
    discover_queues,
    read_supervisor_state,
)

__all__ = [
    "HEARTBEAT_VERSION",
    "Heartbeat",
    "heartbeat_dir",
    "liveness",
    "read_heartbeats",
    "service_dir",
    "STATUS_VERSION",
    "build_status",
    "format_status",
    "SUPERVISOR_VERSION",
    "FleetSupervisor",
    "discover_queues",
    "read_supervisor_state",
]
