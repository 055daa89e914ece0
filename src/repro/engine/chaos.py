"""Deterministic chaos injection for the synthesis engine.

The fault-tolerance layer (:mod:`repro.engine.faults`) claims a bioassay
run survives worker kills, hung workers, payload crashes, and corrupted
strategy-store rows.  This module makes those faults *injectable and
reproducible* so the claim is testable: ``tests/test_engine_faults.py``
and ``benchmarks/bench_chaos.py`` run whole assays under injection and
assert bit-identical routing against a fault-free serial run.

Determinism is the whole point.  Every decision is a pure function of
``(seed, fault site, decision token)`` — a SHA-256 draw, no global RNG, no
wall clock — so the same seed injects the same faults at the same payloads
run after run, regardless of worker scheduling.  The decision token
includes the submission *attempt*, so a payload killed on attempt 1 is
(typically) allowed through on its retry: injected kills behave like the
transient faults they simulate rather than a deterministic death loop.

Activation is process-wide and environment-propagated: :func:`activate`
stores the config in ``REPRO_CHAOS`` / ``REPRO_CHAOS_SEED`` so pool worker
processes (which inherit the environment) rebuild the same injector.  The
spec grammar (also the CLI's ``--chaos`` argument)::

    kill=0.1,raise=0.05,delay=0.1:250,store=0.2,seed=7

* ``kill=P`` — worker calls ``os._exit(1)`` mid-synthesis (an OOM-kill /
  segfault stand-in; surfaces as ``BrokenProcessPool``);
* ``raise=P`` — worker raises :class:`ChaosInjectedError` (a
  deterministic payload error);
* ``delay=P[:MS]`` — worker sleeps ``MS`` milliseconds (default 250)
  before synthesizing (a hung/slow worker; exercises deadlines);
* ``store=P`` — a :class:`~repro.engine.store.StrategyStore` row is
  garbled on write (exercises the corruption-tolerance path);
* ``seed=N`` — the decision seed (``REPRO_CHAOS_SEED`` overrides it).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace

ENV_SPEC = "REPRO_CHAOS"
ENV_SEED = "REPRO_CHAOS_SEED"


class ChaosInjectedError(RuntimeError):
    """The deterministic payload error raised by ``raise=`` injection."""


@dataclass(frozen=True)
class ChaosConfig:
    """Probabilities (all in ``[0, 1]``) and parameters of the injector."""

    seed: int = 0
    kill_p: float = 0.0
    raise_p: float = 0.0
    delay_p: float = 0.0
    delay_ms: float = 250.0
    store_p: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kill_p", "raise_p", "delay_p", "store_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.delay_ms < 0:
            raise ValueError("delay_ms cannot be negative")

    @property
    def active(self) -> bool:
        return any((self.kill_p, self.raise_p, self.delay_p, self.store_p))

    def to_spec(self) -> str:
        """The ``kill=...,raise=...`` spec string (round-trips parse_spec)."""
        parts = []
        if self.kill_p:
            parts.append(f"kill={self.kill_p!r}")
        if self.raise_p:
            parts.append(f"raise={self.raise_p!r}")
        if self.delay_p:
            parts.append(f"delay={self.delay_p!r}:{self.delay_ms!r}")
        if self.store_p:
            parts.append(f"store={self.store_p!r}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)


def parse_spec(spec: str) -> ChaosConfig:
    """Parse a ``kill=0.1,delay=0.05:100,seed=3`` spec into a config."""
    kwargs: dict[str, float | int] = {}
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            continue
        if "=" not in raw:
            raise ValueError(f"chaos spec entry {raw!r} is not key=value")
        key, _, value = raw.partition("=")
        key = key.strip()
        try:
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "delay":
                prob, _, ms = value.partition(":")
                kwargs["delay_p"] = float(prob)
                if ms:
                    kwargs["delay_ms"] = float(ms)
            elif key in ("kill", "raise", "store"):
                kwargs[f"{key}_p"] = float(value)
            else:
                raise ValueError(
                    f"unknown chaos key {key!r} "
                    f"(expected kill/raise/delay/store/seed)"
                )
        except ValueError as exc:
            # Re-raise float()/int() parse errors with the entry context.
            raise ValueError(f"bad chaos spec entry {raw!r}: {exc}") from None
    return ChaosConfig(**kwargs)  # type: ignore[arg-type]


class ChaosInjector:
    """Seeded, token-addressed fault decisions (pure SHA-256 draws)."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self._seed = str(config.seed).encode()

    def draw(self, site: str, token: str) -> float:
        """A uniform [0, 1) draw determined by (seed, site, token)."""
        digest = hashlib.sha256(
            self._seed + b"|" + site.encode() + b"|" + token.encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    # -- worker-side faults --------------------------------------------------

    def worker_inject(self, token: str) -> None:
        """Run the worker-side fault gauntlet for one payload.

        Checked in severity order: a kill pre-empts a raise pre-empts a
        delay.  ``token`` must identify the payload *and* its submission
        attempt (see :mod:`repro.engine.pool`) so retries re-roll.
        """
        cfg = self.config
        if cfg.kill_p and self.draw("kill", token) < cfg.kill_p:
            os._exit(1)  # abrupt worker death, as an OOM-kill would be
        if cfg.raise_p and self.draw("raise", token) < cfg.raise_p:
            raise ChaosInjectedError(f"chaos: injected payload error ({token})")
        if cfg.delay_p and self.draw("delay", token) < cfg.delay_p:
            time.sleep(cfg.delay_ms / 1e3)

    # -- store-side faults ---------------------------------------------------

    def corrupt_payload(self, token: str, payload: bytes) -> bytes:
        """Maybe garble a strategy-store row payload before it is written."""
        cfg = self.config
        if cfg.store_p and self.draw("store", token) < cfg.store_p:
            return payload[: max(1, len(payload) // 2)] + b"\x00<chaos-garbled>"
        return payload


_injector: ChaosInjector | None = None
_loaded_from_env = False


def activate(config: ChaosConfig) -> ChaosInjector:
    """Install ``config`` process-wide and export it to the environment.

    Exporting matters: pool workers are separate processes and rebuild
    their injector from ``REPRO_CHAOS``/``REPRO_CHAOS_SEED`` on first use.
    """
    global _injector, _loaded_from_env
    _injector = ChaosInjector(config)
    _loaded_from_env = False
    os.environ[ENV_SPEC] = config.to_spec()
    os.environ[ENV_SEED] = str(config.seed)
    return _injector


def deactivate() -> None:
    """Remove the active injector and scrub the environment."""
    global _injector, _loaded_from_env
    _injector = None
    _loaded_from_env = False
    os.environ.pop(ENV_SPEC, None)
    os.environ.pop(ENV_SEED, None)


def injector() -> ChaosInjector | None:
    """The active injector, lazily constructed from the environment.

    Returns ``None`` when chaos is off (no :func:`activate` call and no
    ``REPRO_CHAOS`` in the environment) — the hooks in the worker and the
    store stay free in that case.
    """
    global _injector, _loaded_from_env
    if _injector is None and not _loaded_from_env:
        _loaded_from_env = True
        spec = os.environ.get(ENV_SPEC)
        if spec:
            config = parse_spec(spec)
            seed_override = os.environ.get(ENV_SEED)
            if seed_override is not None:
                config = replace(config, seed=int(seed_override))
            _injector = ChaosInjector(config)
    return _injector
