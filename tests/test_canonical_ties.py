"""A synthesized strategy is a pure function of its key.

Warm-started solves land at a different point of the certified value
bracket than cold ones, and routing models have exact ties (symmetric
moves).  Extraction breaks ties canonically — the lowest choice index
within ``TIE_BAND * epsilon`` of the optimum — so a warm
solve seeded from any other health field must choose exactly what a cold
solve chooses, and a strategy read back from the store in a fresh process
must equal a fresh solve there.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import fastmdp
from repro.core.routing_job import RoutingJob
from repro.core.strategy import strategy_from_synthesis
from repro.core.synthesis import synthesize
from repro.engine.store import StrategyStore
from repro.geometry.rect import Rect
from repro.modelcheck import compiled, interval

W, H = 30, 20


def _jobs() -> list[RoutingJob]:
    rng = np.random.default_rng(21)
    jobs = [
        # Symmetric ties: a square zone crossed corner to corner on a
        # uniform field — N-then-E and E-then-N cost the same.
        RoutingJob(Rect(2, 2, 4, 4), Rect(12, 12, 14, 14),
                   Rect(2, 2, 14, 14)),
    ]
    for _ in range(4):
        s = int(rng.integers(2, 4))
        zx, zy = int(rng.integers(1, W - 15)), int(rng.integers(1, H - 11))
        sx, sy = zx + int(rng.integers(0, 3)), zy + int(rng.integers(0, 3))
        gx = zx + 15 - s - int(rng.integers(0, 3))
        gy = zy + 10 - s - int(rng.integers(0, 3))
        jobs.append(RoutingJob(Rect(sx, sy, sx + s - 1, sy + s - 1),
                               Rect(gx, gy, gx + s - 1, gy + s - 1),
                               Rect(zx, zy, zx + 15, zy + 10)))
    return jobs


def _fields() -> list[np.ndarray]:
    rng = np.random.default_rng(22)
    fields = [np.full((W, H), 3)]
    for _ in range(3):
        health = np.full((W, H), 3)
        draw = rng.random((W, H))
        health[draw < 0.3] = 2
        health[draw < 0.1] = 1
        health[draw < 0.02] = 0
        fields.append(health)
    return fields


JOBS = _jobs()
FIELDS = _fields()


@pytest.mark.parametrize("maximize", [False, True])
def test_ties_within_the_band_take_the_lowest_choice(maximize):
    # Two solves of one model whose tied choices differ by solver noise
    # (1e-10, far below epsilon) on either side must pick the same choice:
    # the lowest index in the band.  A value outside the band never wins,
    # even when it lies within epsilon of a large optimum (the band is
    # absolute, like the solve's certificate), and an infinite optimum
    # ties only exactly.
    eps = 1e-6
    sign = 1.0 if maximize else -1.0
    owners = np.array([0, 0, 0, 1, 1, 2, 2, 3, 3])
    for noise in (1e-10, -1e-10):
        for first, second in ((noise, 0.0), (0.0, noise)):
            q = np.array([
                150.0 + sign * first, 150.0 + sign * second,
                150.0 - sign * 1.0,
                -sign * np.inf, -sign * np.inf,
                -sign * np.inf, 3.0,
                150.0 - sign * 0.5 * eps, 150.0,
            ])
            seg = interval._Segments.of(owners, 4)
            choice = seg.canonical(q, maximize, compiled.TIE_BAND * eps)
            assert choice.tolist() == [0, 3, 6, 8]


@pytest.mark.parametrize("j", range(len(JOBS)))
def test_warm_solves_choose_like_cold_solves(j):
    job = JOBS[j]
    cold = []
    for health in FIELDS:
        fastmdp.clear_cold_results()
        cold.append(synthesize(job, health))
    compared = 0
    for k, health in enumerate(FIELDS):
        for i, source in enumerate(cold):
            if i == k or not source.exists or not cold[k].exists:
                continue
            warm = synthesize(job, health,
                              warm_values=source.strategy.values)
            assert warm.strategy.decisions == cold[k].strategy.decisions
            compared += 1
    assert compared


_FRESH_PROCESS = """
import json, sys
import numpy as np
from repro.core.routing_job import RoutingJob
from repro.core.strategy import strategy_from_synthesis
from repro.core.synthesis import synthesize
from repro.engine.store import StrategyStore
from repro.geometry.rect import Rect
from repro.modelcheck import compiled, interval

args = json.loads(sys.argv[1])
job = RoutingJob(*(Rect(*r) for r in args["job"]))
health = np.array(args["health"])
with StrategyStore(args["path"]) as store:
    stored = store.get(job, health)
fresh = strategy_from_synthesis(job, synthesize(job, health))
print(json.dumps({
    "found": stored is not None,
    "same_decisions": stored is not None
        and stored.policy.decisions == fresh.policy.decisions,
    "value_gap": None if stored is None
        else abs(stored.expected_cycles - fresh.expected_cycles),
}))
"""


def test_store_round_trip_equals_a_fresh_solve(tmp_path):
    # A warm-seeded strategy put by this process must read back, in a new
    # process with empty caches, as what a cold solve there produces.
    job, health = JOBS[0], FIELDS[2]
    seed = synthesize(job, FIELDS[1])
    warm = synthesize(job, health, warm_values=seed.strategy.values)
    path = tmp_path / "store.sqlite"
    with StrategyStore(path) as store:
        store.put(job, health, strategy_from_synthesis(job, warm))
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, json.dumps({
            "job": [r.as_tuple() for r in (job.start, job.goal, job.hazard)],
            "health": health.tolist(), "path": str(path),
        })],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src)},
    )
    result = json.loads(out.stdout)
    assert result["found"] and result["same_decisions"]
    assert result["value_gap"] <= 1e-6
