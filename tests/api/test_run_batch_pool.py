"""``Pipeline.run_batch(jobs>1)`` on the supervised pool: crash isolation,
and the import boundaries that keep ``repro.serve`` and the experiment
harness out of ``repro.api``, and the lint engine out of ``repro.cli``."""

import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.api.pipeline import Pipeline, PipelineConfig
from repro.api.stages import KwayPartition
from repro.core.config import TimerConfig
from repro.errors import PoisonRequestError
from repro.graphs import generators as gen

#: n of the one graph whose partition stage kills its worker
VICTIM_N = 72


# Module-level so the pipeline payload pickles it by reference.
def _exit_on_victim(ga, k, *, epsilon, seed):
    if ga.n == VICTIM_N:
        os._exit(3)
    return KwayPartition()(ga, k, epsilon=epsilon, seed=seed)


def _graphs(k=3):
    return [gen.barabasi_albert(64 + 8 * i, 3, seed=i) for i in range(k)]


def _call_with_timeout(fn, timeout):
    """``fn()`` on a daemon thread: a hang fails the test, not the suite."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestWorkerDeath:
    def test_dying_worker_fails_its_graph_with_poison(self):
        pipe = Pipeline(
            "grid4x4",
            PipelineConfig(timer=TimerConfig(n_hierarchies=1)),
            partition_stage=_exit_on_victim,
        )
        with pytest.raises(PoisonRequestError):
            _call_with_timeout(
                lambda: pipe.run_batch(_graphs(), seed=1, jobs=2), timeout=60
            )


def _modules_after(code):
    """The ``repro`` modules a fresh interpreter holds after running ``code``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code += (
        "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def _within(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_importing_repro_api_loads_no_serve_module():
    # The library resolves built-in topology names without the harness.
    library = _modules_after(
        "from repro.api import Pipeline, PipelineConfig, Topology\n"
        "assert Topology.from_name('grid4x4').n == 16\n"
    )
    assert _within(library, "repro.serve") == []
    assert _within(library, "repro.experiments") == []
    # The server takes only the Table-1 instance generators from it.
    server = _modules_after("import repro.serve.service\n")
    assert _within(server, "repro.experiments") == [
        "repro.experiments",
        "repro.experiments.instances",
    ]
    # Building the CLI's parser leaves the lint engine unloaded.
    cli = _modules_after("import repro.cli\n")
    assert "repro.analysis.cli" in cli
    assert "repro.analysis.engine" not in cli
    assert "repro.analysis.rules" not in cli
