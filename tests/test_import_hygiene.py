"""Compiling and linting import only repro and the standard library.

numpy loads only when arrays run and networkx never loads outside the
tests, so a fresh process pays for the compiler alone.  Each probe runs
in its own interpreter, since this test process has both libraries
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in ("numpy", "networkx", "repro.codegen.nplower")
                        if m in sys.modules)))
"""


def _loaded_after(body: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", body + _LOADED],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_strict_compile_loads_no_array_or_graph_library():
    body = (
        "from repro import Session\n"
        "from repro.gallery.paper import figure2_code\n"
        "assert Session.isolated().fuse_program(figure2_code()).fused is not None\n"
    )
    assert _loaded_after(body) == []


def test_lint_command_loads_no_array_or_graph_library():
    body = (
        "import repro.cli\n"
        "assert repro.cli.main(['lint', 'examples/fig2.loop']) == 1  # warnings\n"
    )
    assert _loaded_after(body) == []


def test_numpy_backend_loads_numpy():
    body = (
        "from repro import Session\n"
        "from repro.codegen import ArrayStore\n"
        "from repro.gallery.paper import figure2_code\n"
        "session = Session.isolated()\n"
        "res = session.fuse_program(figure2_code())\n"
        "store = ArrayStore.for_program(res.nest, 6, 6, seed=1)\n"
        "session.execute_fused(res.fused, 6, 6, store=store, backend='numpy',\n"
        "                      schedule=res.fusion.schedule, is_doall=res.fusion.is_doall)\n"
    )
    assert _loaded_after(body) == ["numpy", "repro.codegen.nplower"]


def test_serve_workers_are_forked_with_numpy_loaded():
    # a resilient compile runs the executors; forked workers inherit them
    body = (
        "from repro.serve.service import CompileService, ServeConfig\n"
        "CompileService(ServeConfig(workers=1)).supervisor.shutdown()\n"
    )
    assert "numpy" in _loaded_after(body)
