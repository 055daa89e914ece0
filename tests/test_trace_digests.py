"""Trace-digest identity: pinned SHA-256 digests of whole executions.

Each case runs one bioassay on the 60x30 chip with aged degradation
constants and hashes what the execution produced: the
:class:`ExecutionResult`, every trace frame, the scheduler events and the
``degradation.crossing`` / ``transport.failure`` journal records.  The
digests were recorded before the cycle loop became incremental (chip
state updated on actuated cells only, scheduler rescans only when an MO
finishes) and must not move: that refactor is required to be
bit-identical.

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
             order: str = "program") -> str:
    rng = np.random.default_rng(seed)
    fault_plan = (FaultInjector(fraction=0.05, fail_range=(0, 30))
                  .inject(W, H, rng) if faults else None)
    chip = MedaChip.sample(W, H, rng, fault_plan=fault_plan, **AGED)
    scheduler = HybridScheduler(
        plan(EVALUATION_BIOASSAYS[assay](), W, H), AdaptiveRouter(), W, H,
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


#: Recorded with the full-grid cycle loop (see the module docstring).
DIGESTS: dict[str, str] = {
    "cep/None":
        "51a5cea57a23e320f206c17bd4538472a0f337436ad5d537448c77906bdfdd64",
    "cep/full":
        "176d3eb490f2ef54a54145e3c502b0fd5c08c653b14b1137d931f18dad7bdf6f",
    "cep/selective":
        "f76f291d8b94d08054b10a5e3fc50dc4145f65d61c3add8199d25c0c6ab17fd5",
    "covid-pcr/None":
        "e678faa0b8218e5386cea75aeb6d9c47038ed5cf7cee015c733f4cae65c45211",
    "covid-pcr/full":
        "bfa5e0afe0c841edbf8e05ee52bb130991d004f067df705a065361dd004affd5",
    "covid-pcr/selective":
        "3856fc9dad4d74aeab72887225fb5ca00d6f6d06b22a1e28eaf71051e33ed325",
    "covid-rat/None":
        "4bfe2ee019d8df481121e07b39c1bbf184acf5b618395e8e921fa88237679a71",
    "covid-rat/full":
        "33c9f4b04a18071a18dafce362475ca5fe4c73b92d0321a9e31dd9ba2d529b27",
    "covid-rat/selective":
        "119990ac0b86439c1806a9a8d4c0915e67745305a43619b223a137b75b481e44",
    "master-mix/None":
        "9c3c5d4ed9ebd1c6cbeb3c67a89b61f5892f7da3418ddc1df571714ba74724ae",
    "master-mix/full":
        "042deb954a06a9c5dfa6e307322fe2339b8958dced3a8ebd0a63da9af1a5f74d",
    "master-mix/selective":
        "d1f9aef2a90ad2c37e756463126dbe818802bf0337241a0a4c4dbedff4df1df4",
    "nuip/None":
        "1b89962ce9628d6eda5a4eede2e5f00ff95fa745b2874a890dfcd53ba4a6ee8f",
    "nuip/full":
        "23ff14fa5ee9da2ca7fbdc9ee72e2e6f18be356529fa6fbdeebdee99a4df4b5a",
    "nuip/selective":
        "5d4b5cd22f7f99bb20aaa598be9bb19c394d669d2ad7c409f2565ac156ce7fff",
    "serial-dilution/None":
        "1d3782a19c9a5a7cba72655f81b13b172c17465f7963ddb48c65bc173879286a",
    "serial-dilution/full":
        "bcf1912f63abad30a450dac927afb1daa0d6f16680ba46db4a558077d84af4c9",
    "serial-dilution/selective":
        "b9b142f87a3082f198d48a7916f5de60f8f130da7b5c165cb57e9ecce1a3822a",
    "master-mix/reconfig":
        "bb91c7ade1ccad53a547b889e6a9d60288b1894bd646e2447fe7526c6d9bf38d",
    "cep/healthiest-first":
        "9cdd911f7d1b831e9d0928844ab1c9d83a7da78969c06f4fb715fe8d1a4b8bc7",
}


@pytest.mark.parametrize("case", [name for name, _ in _cases()])
def test_trace_digest_unchanged(case):
    kwargs = dict(_cases())[case]
    assert _execute(**kwargs) == DIGESTS[case]


if __name__ == "__main__":
    print(json.dumps({name: _execute(**kw) for name, kw in _cases()},
                     indent=4))
