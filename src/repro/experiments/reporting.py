"""Run records and plain-text rendering of reproduction tables/series.

This module owns the :class:`RunRecord` every sweep path (the serial
loop, the queued scheduler's workers) produces for one training run,
plus its JSON round-trip — the queue journal persists records through
:func:`record_to_dict` / :func:`record_from_dict`, so the schema lives
next to the dataclass.

The environment has no plotting stack, so figures are reported as
aligned numeric series (and, for Fig. 3, ASCII contours) — enough to
read off the orderings and gaps the paper's evaluation claims.
"""

import json
import os
import sys
from dataclasses import dataclass

from .config import TrainConfig


@dataclass
class RunRecord:
    """Outcome of one sweep run (lightweight — no model weights)."""

    key: str
    config: object
    status: str  # "ok" | "error"
    from_cache: bool = False
    seconds: float = 0.0
    train_acc: float = None
    test_acc: float = None
    error: str = None
    pid: int = 0

    @property
    def ok(self):
        return self.status == "ok"


def record_to_dict(record, include_config=True):
    """JSON-safe form of a :class:`RunRecord` (inverse of :func:`record_from_dict`).

    ``include_config=False`` drops the config dict — what the queue
    journal does, since the task entry already carries the config.
    """
    payload = {
        "key": record.key,
        "status": record.status,
        "from_cache": record.from_cache,
        "seconds": record.seconds,
        "train_acc": record.train_acc,
        "test_acc": record.test_acc,
        "error": record.error,
        "pid": record.pid,
    }
    if include_config:
        payload["config"] = record.config.to_dict()
    return payload


def record_from_dict(payload, config=None):
    """Rebuild a :class:`RunRecord`; ``config`` overrides the embedded dict."""
    if config is None:
        config = TrainConfig.from_dict(payload["config"])
    return RunRecord(
        key=payload["key"],
        config=config,
        status=payload["status"],
        from_cache=payload.get("from_cache", False),
        seconds=payload.get("seconds", 0.0),
        train_acc=payload.get("train_acc"),
        test_acc=payload.get("test_acc"),
        error=payload.get("error"),
        pid=payload.get("pid", 0),
    )


def format_table(headers, rows, title=None):
    """Render an aligned text table.

    ``rows`` entries may be strings or floats (formatted as percent
    when in [0, 1], else 4 significant digits).
    """
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(str(headers[col])), *(len(row[col]) for row in rendered)) if rendered else len(str(headers[col]))
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value):
    if isinstance(value, float):
        if abs(value) <= 1.0:
            return f"{100.0 * value:.2f}%"
        return f"{value:.4g}"
    return str(value)


def format_series(name, xs, ys, x_label="x", y_label="y"):
    """Render one figure series as two aligned rows."""
    x_cells = [f"{x:>8}" for x in xs]
    y_cells = [
        f"{100 * y:7.2f}%" if isinstance(y, float) and abs(y) <= 1 else f"{y:8.4g}"
        for y in ys
    ]
    return "\n".join(
        [
            f"{name}",
            f"  {x_label:>12}: " + " ".join(x_cells),
            f"  {y_label:>12}: " + " ".join(y_cells),
        ]
    )


def save_json(payload, path):
    """Persist a result payload (dicts/lists/numbers) as JSON.

    ``path="-"`` writes to stdout instead — the machine-readable verbs
    (``queue-status --json -``) pipe straight into ``jq`` and friends.
    """
    if path == "-":
        json.dump(payload, sys.stdout, indent=2, default=_jsonify)
        sys.stdout.write("\n")
        return path
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_jsonify)
    return path


def _jsonify(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "__dict__"):
        return value.__dict__
    return str(value)
