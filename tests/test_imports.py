"""Cold-start import guard.

``repro run`` and ``repro serve`` pay their imports before the first
routed droplet.  Neither may load what no run executes: networkx (the
test-only DAG oracle), ``scipy.optimize`` (the Fig. 5/6 curve fitting),
the PCB simulator or the circuit models.  Each check runs in a fresh
interpreter, since the test session itself imports all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: What ``repro run`` and ``repro serve`` load to route an assay.
RUN_IMPORTS = """
from repro.bioassay.planner import plan
from repro.bioassay.library import ALL_BIOASSAYS
from repro.biochip.chip import MedaChip
from repro.biochip.simulator import MedaSimulator
from repro.core.baseline import AdaptiveRouter
from repro.core.scheduler import HybridScheduler
import repro.serve
import repro.cli
"""

#: Modules a routing process must not load.
PAPER_ONLY = (
    "networkx",
    "scipy.optimize",
    "repro.degradation.fitting",
    "repro.degradation.pcb",
    "repro.circuits",
)


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_routing_imports_load_no_paper_only_module():
    loaded = _run(RUN_IMPORTS + f"""
import json, sys
print(json.dumps([m for m in {PAPER_ONLY!r} if m in sys.modules]))
""")
    assert loaded == []


def test_lazy_degradation_names_resolve():
    names = _run("""
import json, sys
import repro.degradation as d
before = "repro.degradation.fitting" in sys.modules
from repro.degradation import ForceFit, fit_force_curve, PCBBiochip
from repro.degradation.fitting import ForceFit as F
from repro.degradation.pcb import PCBBiochip as P
star = {}
exec("from repro.degradation import *", star)
print(json.dumps({
    "before": before,
    "same": ForceFit is F and PCBBiochip is P,
    "all": all(hasattr(d, name) for name in d.__all__),
    "star": sorted(set(d.__all__) - set(star)),
}))
""")
    assert names == {"before": False, "same": True, "all": True, "star": []}


def test_unknown_degradation_name_raises_attribute_error():
    import repro.degradation as d

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        d.nope  # noqa: B018
