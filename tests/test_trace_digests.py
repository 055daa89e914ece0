"""Trace-digest identity: pinned SHA-256 digests of whole executions.

Each case runs one bioassay on the 60x30 chip with aged degradation
constants and hashes what the execution produced: the
:class:`ExecutionResult`, every trace frame, the scheduler events and the
``degradation.crossing`` / ``transport.failure`` journal records.  The
digests pin executions across refactors of the cycle loop, the chip state
and the outcome sampler, which are required to be bit-identical.

They were re-recorded when strategy extraction started breaking ties
canonically (lowest choice index within a tie band of the optimum, see
``repro.modelcheck.compiled._extract``): routes changed at tied
choices.  Since then a synthesized strategy is a pure function of its key,
so every digest must come out the same whether the run's router starts
empty or pre-warmed by other runs (its library and warm seeds filled);
:func:`test_trace_digest_independent_of_router_history` checks that on a
few cases, and regeneration checks it on all of them.

Regenerate (only when a change is *meant* to alter executions) with::

    PYTHONPATH=src python tests/test_trace_digests.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import obs
from repro.bioassay.library import EVALUATION_BIOASSAYS
from repro.bioassay.planner import plan
from repro.biochip.chip import MedaChip
from repro.biochip.simulator import MedaSimulator
from repro.biochip.trace import ExecutionTrace
from repro.core.baseline import AdaptiveRouter
from repro.core.scheduler import HybridScheduler
from repro.degradation.faults import FaultInjector
from repro.obs.journal import RunJournal
from repro.reconfig import ReconfigPolicy

W, H = 60, 30
MAX_CYCLES = 1500
#: Aged silicon: small ``c`` makes cells cross health levels mid-run, so
#: crossings, re-syntheses and transport failures all occur.
AGED = {"tau_range": (0.5, 0.9), "c_range": (20.0, 50.0)}
JOURNALED = ("degradation.crossing", "transport.failure")


def _cases() -> list[tuple[str, dict]]:
    cases = []
    for i, name in enumerate(sorted(EVALUATION_BIOASSAYS)):
        for policy in (None, "full", "selective"):
            cases.append((f"{name}/{policy}",
                          {"assay": name, "seed": 100 + i, "policy": policy}))
    cases.append(("master-mix/reconfig", {
        "assay": "master-mix", "seed": 7, "policy": None, "reconfig": True,
        "faults": True,
    }))
    cases.append(("cep/healthiest-first", {
        "assay": "cep", "seed": 11, "policy": "selective",
        "order": "healthiest-first",
    }))
    return cases


def _execute(assay: str, seed: int, policy: str | None,
             reconfig: bool = False, faults: bool = False,
             order: str = "program",
             router: AdaptiveRouter | None = None,
             scheduler_cls: type[HybridScheduler] = HybridScheduler) -> str:
    rng = np.random.default_rng(seed)
    fault_plan = (FaultInjector(fraction=0.05, fail_range=(0, 30))
                  .inject(W, H, rng) if faults else None)
    chip = MedaChip.sample(W, H, rng, fault_plan=fault_plan, **AGED)
    scheduler = scheduler_cls(
        plan(EVALUATION_BIOASSAYS[assay](), W, H),
        router if router is not None else AdaptiveRouter(), W, H,
        activation_order=order,
        reconfig=ReconfigPolicy(W, H) if reconfig else None,
    )
    trace = ExecutionTrace()
    sim = MedaSimulator(chip, np.random.default_rng(seed + 1), trace=trace,
                        sensing_policy=policy)
    journal = RunJournal()
    obs.configure(journal=journal)
    try:
        result = sim.run(scheduler, max_cycles=MAX_CYCLES)
    finally:
        obs.shutdown()
    hasher = hashlib.sha256()
    hasher.update(repr(result).encode())
    for frame in trace.frames:
        hasher.update(repr((frame.cycle, sorted(frame.droplets.items()),
                            frame.moving, frame.total_actuations)).encode())
    for event in trace.events:
        hasher.update(repr(event).encode())
    for record in journal.records:
        if record["event"] in JOURNALED:
            record = {k: v for k, v in record.items() if k != "seq"}
            hasher.update(json.dumps(record, sort_keys=True).encode())
    return hasher.hexdigest()


#: Recorded with canonical tie-breaking (see the module docstring).
DIGESTS: dict[str, str] = {
    "cep/None":
        "838cd7540be02fe20b1e5ee44096ad3e76af631f55df3753f61ca4a054562c70",
    "cep/full":
        "9dac8d537cd7cf48b8b006fe3c620c56f108b1c8245d9f976a2abe32fbcbd5ae",
    "cep/selective":
        "7b00ecb917b9c75087cdb95145701e805ff4f82bbe6e2677960283c8fc2a0fe8",
    "covid-pcr/None":
        "834ef75eea516a37fd27482cd53f6329b1e51187314e2b71c3af397fd2aa81df",
    "covid-pcr/full":
        "bdd60677d70a52dade2c247e89f85d8c4f68accaeeca19b19ae52a4c5c97439d",
    "covid-pcr/selective":
        "c973610d833dda228e6751177bce9bbfbe7bfcf7a50549d3cbfa3a3fb28be79f",
    "covid-rat/None":
        "86d21d25588f2f4ca744788472e783d8fceb36125895067b9e7880b2040a2293",
    "covid-rat/full":
        "777b8e175ef494277d735c0cdce3f0d14407307db133f9b40829214dd22509c2",
    "covid-rat/selective":
        "cd8b26b24c29fe7148c7d8c8ce228fb53bd8f9ec5ae65efe1598acbef2e05922",
    "master-mix/None":
        "56257beeaa34b4db9010ec8de741be4899043773f76794709f4453e9b48c6e45",
    "master-mix/full":
        "2d7d23c43e9fb18012054cf8b80f8d4f676cae282202143957e7c0ce7d54f819",
    "master-mix/selective":
        "8cb9170e74a8a89a16e6415fbd3cfd08872eaa4c881708610d3beb981a4f3679",
    "nuip/None":
        "6af706eb8c18884471cc1e2b90f7d727841e5baec5dda24d9f700f73d46eee19",
    "nuip/full":
        "df487a6ed8044e9de62624e7d6f9f2dd638f4ff3998bb8cfa98dac1ef6096057",
    "nuip/selective":
        "59ac5b8f25f231310a19c8c7f0725d6da1dbff5f8c9281292fd6bb686c1f12a9",
    "serial-dilution/None":
        "2b26b069eb03fd52fce29454a71b16f917ae17c38f08d6355221f919ddeeb8f5",
    "serial-dilution/full":
        "92b6289d72f26b6e0177332e4524571374e7df2f32352b0bbcc6e7b4907ade16",
    "serial-dilution/selective":
        "375cc3c3fd4402e3620f09a4de479657f923fee30f4ebd5bceae2aafac6d9094",
    "master-mix/reconfig":
        "b945aadf2e76197834bf00bfc9d884149caa4e519b1f9023cd7a4636acdcd4fc",
    "cep/healthiest-first":
        "ddd99893feab2cb476929989496df444a9e833a6a5de1ba91ba68ec1b46980cf",
}


def _prewarmed(kwargs: dict) -> AdaptiveRouter:
    """A router that already ran the same assay on another aged chip."""
    router = AdaptiveRouter()
    _execute(**{**kwargs, "seed": kwargs["seed"] + 1000}, router=router)
    return router


@pytest.mark.parametrize("case", [name for name, _ in _cases()])
def test_trace_digest_unchanged(case):
    kwargs = dict(_cases())[case]
    assert _execute(**kwargs) == DIGESTS[case]


@pytest.mark.parametrize("case", ["nuip/None", "master-mix/selective",
                                  "cep/healthiest-first"])
def test_trace_digest_independent_of_router_history(case):
    kwargs = dict(_cases())[case]
    assert _execute(**kwargs, router=_prewarmed(kwargs)) == DIGESTS[case]


if __name__ == "__main__":
    digests = {}
    for name, kw in _cases():
        digests[name] = _execute(**kw)
        warmed = _execute(**kw, router=_prewarmed(kw))
        if warmed != digests[name]:
            raise SystemExit(f"{name}: pre-warmed router changes the trace")
    print(json.dumps(digests, indent=4))
