"""What a fresh interpreter loads: the fork server that shard workers
fork from (started once per process, so no worker imports again) and
each CLI subprocess pay for their imports before they do any work.

networkx and scipy.optimize are imported where they are used (graph
metrics and baselines, the Theorem 15 class LP), so importing the
package, or the modules a shard worker unpickles, loads neither.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

from scipy.optimize._highspy import _core as highs_core

import repro
import repro.scheduling.sqrt_coloring as sqrt_module
from repro.instances.random_instances import random_uniform_instance

#: Absolute src/ dir, so the subprocess imports the same repro tree no
#: matter what cwd pytest runs from.
SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])


def test_fresh_interpreter_loads_neither_networkx_nor_scipy_optimize():
    script = textwrap.dedent(
        """
        import sys
        import repro
        import repro.distributed.sharded
        import repro.runner.executors
        print(sorted(m for m in ("networkx", "scipy.optimize") if m in sys.modules))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_class_lp_goes_through_the_module_attribute(monkeypatch):
    """Tracers and tests wrap ``sqrt_coloring.linprog``: each HiGHS
    solve must pass through it, not reach HiGHS another way."""
    wrapped, solved = [], []
    through_module = sqrt_module.linprog

    def module_spy(*args, **kwargs):
        wrapped.append(kwargs["c"].size)
        return through_module(*args, **kwargs)

    class CountingHighs(highs_core._Highs):
        def run(self):
            solved.append(self.getNumCol())
            return super().run()

    monkeypatch.setattr(sqrt_module, "linprog", module_spy)
    monkeypatch.setattr(highs_core, "_Highs", CountingHighs)
    instance = random_uniform_instance(20, rng=3, direction="directed")
    _, stats = sqrt_module.sqrt_coloring(instance, rng=0)
    assert solved, "instance must exercise HiGHS"
    assert wrapped == solved
    assert len(solved) <= stats.lp_solves
