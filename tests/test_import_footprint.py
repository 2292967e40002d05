"""Process start-up footprint: no entry point imports scipy.

Every sweep worker, fleet worker, model server and CLI call imports the
package, so each of them pays for a module-level import of a dependency
beyond numpy; ``scipy.sparse.linalg`` alone was about half the import
time and ~27 MB of resident memory.  The one function that needs
scipy, ``repro.hessian.lanczos_eigenvalues``, imports it when it runs.
Each case starts a fresh interpreter, because this process has
imported scipy already (tests use it as a reference).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

ENTRY_IMPORTS = (
    "import repro, repro.experiments.cli, repro.experiments.scheduler, "
    "repro.serving, repro.service"
)


def run_python(code, tmp_path, path_first=()):
    """Run ``code`` in a fresh interpreter; return its last stdout line
    parsed as JSON."""
    pythonpath = [*path_first, SRC, os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(p for p in pythonpath if p),
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
    }
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_entry_points_do_not_import_scipy(tmp_path):
    code = f"""{ENTRY_IMPORTS}
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""
    assert run_python(code, tmp_path) == []


def test_numpy_only_install_imports_and_trains(tmp_path):
    # A stub that refuses to import, first on PYTHONPATH, stands in for
    # an install without scipy.
    stub = tmp_path / "no_scipy" / "scipy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text('raise ImportError("scipy is not installed")\n')
    code = f"""{ENTRY_IMPORTS}
import json
from repro.experiments import make_config, run_training
from repro.hessian import lanczos_eigenvalues

config = make_config("ResNet20-fast", "cifar10_like", "hero", profile="smoke", seed=0)
result = run_training(config, cache_dir=None)
try:
    lanczos_eigenvalues(lambda vectors: vectors, [(4,)], k=1)
    lanczos = "ran"
except ImportError:
    lanczos = "ImportError"
print(json.dumps({{"epochs": [len(result.history), config.epochs], "lanczos": lanczos}}))
"""
    out = run_python(code, tmp_path, path_first=[str(stub.parent)])
    epochs_run, epochs_asked = out["epochs"]
    assert epochs_run == epochs_asked > 0
    assert out["lanczos"] == "ImportError"
