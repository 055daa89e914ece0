"""Declarative service-level objectives evaluated from metric snapshots.

An SLO here is one comparison over the flat metric snapshot the registry
(and the journal's ``telemetry.snapshot`` events) already produce::

    p99(synthesis.total_ms) < 50       # histogram statistic
    completion_probability == 1.0      # derived scalar
    store.hits >= 1                    # plain counter
    p99(synthesis.total_ms) < 50 @ 0.95  # budgeted: 95% of windows comply

The function-call form ``stat(metric)`` resolves against the
``<metric>.<stat>`` keys of a flat snapshot (``p50``/``p90``/``p99``/
``mean``/``min``/``max``/``count``/``sum``); a bare name resolves
verbatim.  The optional ``@ target`` suffix sets the compliance target for
windowed evaluation (default ``1.0`` — every window must comply), giving
the classic error budget: budget ``= 1 - target``, burn ``= violating
windows / windows``, remaining ``= 1 - burn / budget``.

Two evaluation styles:

* :func:`evaluate` — one-shot, against a single snapshot (the CLI
  ``run --slo`` gate, ``repro report --slo``);
* :class:`SloTracker` — windowed, fed one snapshot per
  :class:`~repro.obs.pump.TelemetryPump` tick, with error-budget
  accounting per objective.

A metric missing from the snapshot is a *violation* (reason
``"missing"``), never a silent pass — an SLO that cannot be measured is
not being met.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

_STATS = ("p50", "p90", "p99", "mean", "min", "max", "count", "sum")

_SPEC_RE = re.compile(
    r"^\s*"
    r"(?:(?P<stat>[a-zA-Z]\w*)\s*\(\s*(?P<metric>[\w.\-]+)\s*\)"
    r"|(?P<bare>[\w.\-]+))"
    r"\s*(?P<op><=|>=|==|!=|<|>)\s*"
    r"(?P<threshold>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"(?:\s*@\s*(?P<target>0?\.\d+|1(?:\.0*)?))?"
    r"\s*$"
)


@dataclass(frozen=True)
class SloSpec:
    """One parsed objective: ``stat(metric) op threshold [@ target]``."""

    metric: str
    op: str
    threshold: float
    stat: "str | None" = None
    target: float = 1.0

    @property
    def key(self) -> str:
        """The flat-snapshot key this objective reads."""
        return self.metric if self.stat is None else f"{self.metric}.{self.stat}"

    def __str__(self) -> str:
        head = self.metric if self.stat is None else f"{self.stat}({self.metric})"
        suffix = "" if self.target >= 1.0 else f" @ {self.target:g}"
        return f"{head} {self.op} {self.threshold:g}{suffix}"

    def check(self, value: "float | None") -> bool:
        """Whether ``value`` complies (missing/NaN never complies)."""
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return False
        return bool(_OPS[self.op](value, self.threshold))


@dataclass
class SloResult:
    """One objective evaluated against one snapshot window."""

    spec: SloSpec
    value: "float | None"
    ok: bool
    reason: "str | None" = None

    def to_record(self) -> dict[str, Any]:
        return {
            "slo": str(self.spec),
            "metric": self.spec.key,
            "value": self.value,
            "ok": self.ok,
            **({"reason": self.reason} if self.reason else {}),
        }


def parse_slo(text: str) -> SloSpec:
    """Parse one objective; raises ``ValueError`` with the offending text."""
    match = _SPEC_RE.match(text)
    if match is None:
        raise ValueError(
            f"cannot parse SLO {text!r} (expected 'stat(metric) OP value' or "
            f"'metric OP value', optionally '@ target')"
        )
    stat = match.group("stat")
    if stat is not None and stat not in _STATS:
        raise ValueError(
            f"unknown SLO statistic {stat!r} in {text!r} "
            f"(supported: {', '.join(_STATS)})"
        )
    return SloSpec(
        metric=match.group("metric") or match.group("bare"),
        op=match.group("op"),
        threshold=float(match.group("threshold")),
        stat=stat,
        target=float(match.group("target")) if match.group("target") else 1.0,
    )


def evaluate(
    specs: Iterable[SloSpec], snapshot: Mapping[str, float]
) -> list[SloResult]:
    """One-shot evaluation of every objective against a flat snapshot."""
    results = []
    for spec in specs:
        if spec.key not in snapshot:
            results.append(SloResult(spec, None, False, reason="missing"))
            continue
        value = snapshot[spec.key]
        ok = spec.check(value)
        results.append(SloResult(
            spec, value, ok,
            reason=None if ok else "violated",
        ))
    return results


@dataclass
class _Budget:
    windows: int = 0
    violations: int = 0
    last_value: "float | None" = None


class SloTracker:
    """Windowed SLO evaluation with per-objective error budgets.

    Feed one flat snapshot per window (:meth:`observe`); each objective
    accumulates compliant/violating windows.  The error budget of an
    objective with target ``t`` is the fraction ``1 - t`` of windows
    allowed to violate; :meth:`summary` reports the burn and the remaining
    budget, and :meth:`ok` is the gate: every objective within budget.
    """

    def __init__(self, specs: Iterable[SloSpec]) -> None:
        self.specs = list(specs)
        self._budgets: dict[SloSpec, _Budget] = {
            spec: _Budget() for spec in self.specs
        }

    def observe(self, snapshot: Mapping[str, float]) -> list[SloResult]:
        """Evaluate one window; returns the per-objective results."""
        results = evaluate(self.specs, snapshot)
        for result in results:
            budget = self._budgets[result.spec]
            budget.windows += 1
            budget.last_value = result.value
            if not result.ok:
                budget.violations += 1
        return results

    def summary(self) -> list[dict[str, Any]]:
        """Per-objective accounting: windows, violations, budget state."""
        out = []
        for spec in self.specs:
            budget = self._budgets[spec]
            burn = (
                budget.violations / budget.windows if budget.windows else 0.0
            )
            allowed = 1.0 - spec.target
            if allowed > 0:
                remaining = 1.0 - burn / allowed
            else:
                remaining = 1.0 if budget.violations == 0 else 0.0
            out.append({
                "slo": str(spec),
                "metric": spec.key,
                "windows": budget.windows,
                "violations": budget.violations,
                "compliance": 1.0 - burn,
                "target": spec.target,
                "budget_remaining": remaining,
                "last_value": budget.last_value,
                "ok": remaining >= 0.0 and (
                    budget.violations == 0 or allowed > 0
                ) and burn <= allowed,
            })
        return out

    def ok(self) -> bool:
        """Whether every objective is currently within its error budget."""
        return all(entry["ok"] for entry in self.summary())


def format_results(results: "Iterable[SloResult] | Iterable[dict]") -> str:
    """Terminal rendering of one-shot results or tracker summaries."""
    lines = []
    for item in results:
        if isinstance(item, SloResult):
            status = "ok " if item.ok else "VIOLATED"
            shown = "-" if item.value is None else f"{item.value:g}"
            suffix = f" ({item.reason})" if item.reason == "missing" else ""
            lines.append(f"  {status:8s} {item.spec}  [observed {shown}]{suffix}")
        else:
            status = "ok " if item["ok"] else "VIOLATED"
            lines.append(
                f"  {status:8s} {item['slo']}  "
                f"[{item['violations']}/{item['windows']} windows violated, "
                f"budget remaining {item['budget_remaining']:.0%}]"
            )
    return "\n".join(lines)
