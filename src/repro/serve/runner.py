"""Execute one served assay exactly the way ``repro run`` would.

The serving layer's correctness contract is that a job's
:class:`~repro.biochip.trace.ExecutionTrace` is bit-identical to the solo
run of the same spec: same sampled chip (``default_rng(seed)``), same
simulator stream (``default_rng(seed + 1)``), same scheduler/router
construction.  The one thing serving adds, the cross-assay strategy
store, only ever returns what synthesis would compute for the same
(job, health), so sharing it cannot change a trace — this module just
has to not deviate from the solo code path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import perf
from repro.serve.job import AssaySpec


@dataclass
class AssayOutcome:
    """What one executed job produced (kept in-process, not serialized)."""

    result: Any
    trace: Any
    duration_ms: float

    def to_result_dict(self) -> dict[str, Any]:
        """The JSON-safe result document served over ``GET /jobs/<id>``."""
        result = self.result
        document: dict[str, Any] = {
            "success": bool(result.success),
            "cycles": int(result.cycles),
            "resyntheses": int(result.resyntheses),
            "duration_ms": round(self.duration_ms, 3),
            "frames": len(self.trace.frames),
        }
        if not result.success:
            document["failure"] = str(result.failure)
        return document


def execute_assay(spec: AssaySpec, engine: Any = None) -> AssayOutcome:
    """Run one assay spec; ``engine`` is the shared
    :class:`~repro.engine.store.StrategyStore`, or ``None``.

    Mirrors ``repro.cli._cmd_run``'s single-run body — chip sampling and
    RNG streams — so served and solo traces match frame for frame.  The
    keyword keeps its historical name because benchmark harnesses pass
    it by that name.
    """
    from repro.bioassay.library import ALL_BIOASSAYS
    from repro.bioassay.planner import plan
    from repro.biochip.chip import MedaChip
    from repro.biochip.simulator import MedaSimulator
    from repro.biochip.trace import ExecutionTrace
    from repro.core.baseline import AdaptiveRouter
    from repro.core.scheduler import HybridScheduler

    started = time.perf_counter()
    graph = plan(ALL_BIOASSAYS[spec.bioassay](), spec.width, spec.height)
    chip = MedaChip.sample(
        spec.width, spec.height, np.random.default_rng(spec.seed),
        tau_range=(spec.tau_min, spec.tau_max),
        c_range=(spec.c_min, spec.c_max),
    )
    router = AdaptiveRouter(store=engine)
    scheduler = HybridScheduler(graph, router, spec.width, spec.height)
    trace = ExecutionTrace()
    sim = MedaSimulator(chip, np.random.default_rng(spec.seed + 1), trace=trace)
    result = sim.run(scheduler, max_cycles=spec.max_cycles)
    duration_ms = (time.perf_counter() - started) * 1e3
    perf.observe("serve.assay_ms", duration_ms)
    return AssayOutcome(result=result, trace=trace, duration_ms=duration_ms)
