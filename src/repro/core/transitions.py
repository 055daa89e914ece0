"""Probabilistic outcome kernels for microfluidic actions (Sec. V-B).

The degradation level of the frontier MCs determines the EWOD driving force,
so an action may not produce the intended movement.  With the per-MC relative
force ``f_ij = tau^(2 n_ij / c) = D_ij²`` and all frontier MCs contributing
equally, the per-leg success probability is the *mean* frontier force

    p_leg(delta; a, d) = F(delta; a, d) / |Fr(delta; a, d)|
                       = mean_{(i,j) in Fr} f_ij,

and the outcome distributions are:

* single-step ``a_d``:  success ``d`` w.p. ``p``, stall ``eps`` w.p. ``1-p``;
* double-step ``a_dd``: the second hop is conditioned on the first —
  ``dd`` w.p. ``p1 p2``, ``d`` w.p. ``p1 (1 - p2)``, ``eps`` w.p. ``1 - p1``;
* ordinal ``a_dd'``: the two axes pull independently — ``dd'`` w.p.
  ``p_d p_d'``, ``d`` w.p. ``p_d (1-p_d')``, ``d'`` w.p. ``(1-p_d) p_d'``,
  ``eps`` w.p. ``(1-p_d)(1-p_d')``;
* morphs: a single Bernoulli leg on the pulling frontier.

Frontier cells that fall off the chip have no microelectrode to pull the
droplet, so a force field must return zero force there; movement off the
array then has probability zero without any special-casing.

The geometry — frontier rectangles and outcome patterns as offsets from
the droplet's corner — depends only on the droplet's shape and the
action, so it is derived once per ``(w, h, action)`` from
:mod:`repro.core.actions` into an outcome table.  Both
:func:`outcome_distribution` and the simulator's :func:`sample_outcome`
read it; sampling then takes one or two slice sums, a few scalar
products and one draw, and builds only the drawn outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core.actions import (
    ACTIONS,
    Action,
    ActionClass,
    apply_action,
    frontier,
)
from repro.geometry.rect import Rect, _trusted_rect


class ForceField(Protocol):
    """Per-microelectrode relative EWOD force, indexed by 1-based cell."""

    def force(self, i: int, j: int) -> float:
        """Relative force of MC ``(i, j)``; zero for cells off the chip."""
        ...  # pragma: no cover - protocol

    def rect_mean(self, rect: Rect) -> float:
        """Mean force over a rectangle (off-chip cells count as zero)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class MatrixForceField:
    """A force field backed by a ``(W, H)`` matrix of per-MC forces.

    Cells outside the matrix exert zero force (there is no microelectrode
    there), which is exactly what makes off-chip moves impossible.
    """

    forces: np.ndarray

    def __post_init__(self) -> None:
        if self.forces.ndim != 2:
            raise ValueError("force matrix must be two-dimensional")
        if np.any(self.forces < 0.0) or np.any(self.forces > 1.0):
            raise ValueError("relative forces must lie in [0, 1]")

    def force(self, i: int, j: int) -> float:
        width, height = self.forces.shape
        if 1 <= i <= width and 1 <= j <= height:
            return float(self.forces[i - 1, j - 1])
        return 0.0

    def rect_mean(self, rect: Rect) -> float:
        """Mean force over ``rect`` via an array slice (hot path).

        Equivalent to averaging :meth:`force` over ``rect.cells()``; cells
        outside the chip contribute zero force to the mean.
        """
        return _window_mean(self.forces, rect.xa, rect.ya, rect.xb, rect.yb,
                            rect.area)


@dataclass(frozen=True)
class UniformForceField:
    """A constant force everywhere on a ``width x height`` chip."""

    width: int
    height: int
    value: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("relative force must lie in [0, 1]")

    def force(self, i: int, j: int) -> float:
        if 1 <= i <= self.width and 1 <= j <= self.height:
            return self.value
        return 0.0

    def rect_mean(self, rect: Rect) -> float:
        """Mean force over ``rect`` (off-chip cells contribute zero)."""
        xa, ya = max(rect.xa, 1), max(rect.ya, 1)
        xb, yb = min(rect.xb, self.width), min(rect.yb, self.height)
        if xb < xa or yb < ya:
            return 0.0
        inside = (xb - xa + 1) * (yb - ya + 1)
        return self.value * inside / rect.area


@dataclass(frozen=True)
class Outcome:
    """One probabilistic outcome of executing an action.

    ``event`` is the paper's event name (``"N"``, ``"NE"``, ``"NN"``,
    ``"morph"`` or ``"eps"``); ``delta`` the resulting droplet pattern.
    """

    event: str
    delta: Rect
    probability: float


def leg_probability(delta: Rect, action: Action, direction: str, field: ForceField) -> float:
    """Mean frontier force — the per-leg success probability.

    Zero when the frontier is empty (a degenerate morph) so callers never
    divide by zero.
    """
    fr = frontier(delta, action, direction)
    if fr is None:
        return 0.0
    return _field_mean(field, fr)


def _field_mean(field: ForceField, rect: Rect) -> float:
    rect_mean = getattr(field, "rect_mean", None)
    if rect_mean is not None:
        return rect_mean(rect)
    cells = list(rect.cells())
    total = sum(field.force(i, j) for i, j in cells)
    return total / len(cells)


def _window_mean(
    forces: np.ndarray, xa: int, ya: int, xb: int, yb: int, area: int
) -> float:
    """Mean force over ``(xa, ya, xb, yb)`` (``area`` cells), zero off-chip.

    The arithmetic of :meth:`MatrixForceField.rect_mean`, which calls it.
    """
    width, height = forces.shape
    if xa < 1:
        xa = 1
    if ya < 1:
        ya = 1
    if xb > width:
        xb = width
    if yb > height:
        yb = height
    if xb < xa or yb < ya:
        return 0.0
    return float(forces[xa - 1 : xb, ya - 1 : yb].sum()) / area


@dataclass(frozen=True)
class _OutcomeTable:
    """Position-independent outcome geometry of one action on one shape.

    Offsets are relative to the droplet's ``(xa, ya)`` corner.  ``legs``
    are the frontier rectangles ``(dxa, dya, dxb, dyb, area)`` whose mean
    forces are the leg probabilities, in the order
    :func:`_probabilities` takes them (``None`` = empty frontier);
    ``outcomes`` are ``(event, offsets)`` in distribution order, with
    ``None`` offsets for the stay outcome (the droplet keeps ``delta``).
    """

    action: Action
    legs: tuple[tuple[int, int, int, int, int] | None, ...]
    outcomes: tuple[tuple[str, tuple[int, int, int, int] | None], ...]

    @property
    def patterns(self) -> tuple[tuple[bool, ...], ...]:
        """Per outcome, which legs succeed (see :data:`_PATTERNS`)."""
        return _PATTERNS[self.action.klass]


#: Per action class, each outcome's leg-success pattern in table order:
#: outcome ``i``'s probability is the product over its pattern of ``p_j``
#: (success) or ``1 - p_j`` (failure), as :func:`_probabilities` computes.
_PATTERNS = {
    ActionClass.CARDINAL: ((True,), (False,)),
    ActionClass.DOUBLE: ((True, True), (True, False), (False,)),
    ActionClass.ORDINAL: (
        (True, True), (True, False), (False, True), (False, False),
    ),
    ActionClass.WIDEN: ((True,), (False,)),
    ActionClass.HEIGHTEN: ((True,), (False,)),
}


#: Outcome tables keyed by ``(w, h, action)``: bounded by the finite set
#: of shapes times the 20 registry actions, and emptied with the fastmdp
#: shape memo by :func:`repro.core.fastmdp.clear_shape_action_memo`.
_OUTCOME_TABLES: dict[tuple[int, int, Action], _OutcomeTable] = {}


def _outcome_table(w: int, h: int, action: Action) -> _OutcomeTable:
    key = (w, h, action)
    entry = _OUTCOME_TABLES.get(key)
    if entry is None:
        entry = _OUTCOME_TABLES[key] = _compile_table(w, h, action)
    return entry


def _compile_table(w: int, h: int, action: Action) -> _OutcomeTable:
    """Derive the table from the reference geometry of
    :mod:`repro.core.actions` on a droplet far from any chip edge."""
    base = Rect(100, 100, 99 + w, 99 + h)

    def leg(rect: Rect | None, direction: str):
        fr = frontier(rect, action, direction) if rect is not None else None
        if fr is None:
            return None
        return (fr.xa - 100, fr.ya - 100, fr.xb - 100, fr.yb - 100, fr.area)

    def moved(rect: Rect) -> tuple[int, int, int, int]:
        return (rect.xa - 100, rect.ya - 100, rect.xb - 100, rect.yb - 100)

    klass = action.klass
    stay = ("eps", None)
    if klass is ActionClass.CARDINAL:
        d = action.vertical or action.horizontal
        assert d is not None
        return _OutcomeTable(action, (leg(base, d),), (
            (d, moved(apply_action(base, action))), stay,
        ))
    if klass is ActionClass.DOUBLE:
        d = action.vertical or action.horizontal
        assert d is not None
        one_step = _single_step(base, d)
        return _OutcomeTable(action, (leg(base, d), leg(one_step, d)), (
            (d * 2, moved(apply_action(base, action))),
            (d, moved(one_step)),
            stay,
        ))
    if klass is ActionClass.ORDINAL:
        dv, dh = action.vertical, action.horizontal
        assert dv is not None and dh is not None
        return _OutcomeTable(action, (leg(base, dv), leg(base, dh)), (
            (dv + dh, moved(apply_action(base, action))),
            (dv, moved(_single_step(base, dv))),
            (dh, moved(_single_step(base, dh))),
            stay,
        ))
    # Morphing: one Bernoulli leg on the pulling frontier.  A degenerate
    # morph (single-row/-column droplet) has no frontier and no reshaped
    # pattern: its leg probability is zero, so the morph outcome is pruned.
    d = action.horizontal if klass is ActionClass.WIDEN else action.vertical
    assert d is not None
    fr = leg(base, d)
    target = moved(apply_action(base, action)) if fr is not None else None
    return _OutcomeTable(action, (fr,), (("morph", target), stay))


def _probabilities(
    klass: ActionClass, p: list[float]
) -> tuple[float, ...]:
    """Outcome probabilities, in table order, from the leg probabilities."""
    if klass is ActionClass.DOUBLE:
        p1, p2 = p
        return (p1 * p2, p1 * (1.0 - p2), 1.0 - p1)
    if klass is ActionClass.ORDINAL:
        pv, ph = p
        return (pv * ph, pv * (1.0 - ph), (1.0 - pv) * ph,
                (1.0 - pv) * (1.0 - ph))
    # Cardinal and morphing actions: one Bernoulli leg.
    (p1,) = p
    return (p1, 1.0 - p1)


def _distribution(
    delta: Rect, action: Action, field: ForceField
) -> tuple[_OutcomeTable, list[int], list[float], float]:
    """The table of ``action`` on ``delta`` and its positive outcomes.

    Returns the table, the kept outcome positions, their probabilities
    (zero-probability outcomes pruned) and the probabilities' sum, which
    must be one.
    """
    table = _outcome_table(delta.xb - delta.xa + 1, delta.yb - delta.ya + 1,
                           action)
    xa, ya = delta.xa, delta.ya
    # The chip's field takes the window sums directly: through
    # ``_field_mean`` a leg costs 2.9 instead of 1.7 us (a Rect, a lookup
    # and a method call), about a quarter of a sample.
    legs: list[float] = []
    if type(field) is MatrixForceField:
        forces = field.forces
        for lg in table.legs:
            legs.append(0.0 if lg is None else _window_mean(
                forces, xa + lg[0], ya + lg[1], xa + lg[2], ya + lg[3], lg[4]
            ))
    else:
        for lg in table.legs:
            legs.append(0.0 if lg is None else _field_mean(
                field, _trusted_rect(xa + lg[0], ya + lg[1], xa + lg[2],
                                     ya + lg[3])
            ))
    kept: list[int] = []
    probs: list[float] = []
    total = 0.0
    for i, prob in enumerate(_probabilities(action.klass, legs)):
        if prob > 0.0:
            kept.append(i)
            probs.append(prob)
            total += prob
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"outcome probabilities sum to {total}, not 1")
    return table, kept, probs, total


def _outcome(
    table: _OutcomeTable, i: int, delta: Rect, probability: float
) -> Outcome:
    event, off = table.outcomes[i]
    if off is None:
        return Outcome(event, delta, probability)
    xa, ya = delta.xa, delta.ya
    return Outcome(event, _trusted_rect(
        xa + off[0], ya + off[1], xa + off[2], ya + off[3]
    ), probability)


def outcome_distribution(
    delta: Rect, action: Action, field: ForceField
) -> list[Outcome]:
    """The full outcome distribution of ``action`` on ``delta``.

    Probabilities always sum to one; zero-probability outcomes are pruned.
    Guards are *not* checked here — callers (the MDP builder, the simulator)
    enable actions first.
    """
    table, kept, probs, _ = _distribution(delta, action, field)
    return [_outcome(table, i, delta, p) for i, p in zip(kept, probs)]


def _single_step(delta: Rect, direction: str) -> Rect:
    return apply_action(delta, ACTIONS[f"a_{direction}"])


def sample_outcome(
    delta: Rect, action: Action, field: ForceField, rng: np.random.Generator
) -> Outcome:
    """Sample one outcome — the simulator's droplet-update step (Fig. 14).

    Draw-for-draw identical to ``rng.choice(len(outcomes), p=...)`` over
    :func:`outcome_distribution`: one ``rng.random()`` draw against the
    normalised cumulative distribution, replayed in scalar float
    arithmetic that matches numpy's for these short vectors (sequential
    sum, ``cumsum``, ``searchsorted(side="right")``).  Only the drawn
    outcome is materialized.
    """
    table, kept, probs, total = _distribution(delta, action, field)
    k = _draw(probs, total, rng)
    return _outcome(table, kept[k], delta, probs[k])


def _draw(probs: list[float], total: float, rng: np.random.Generator) -> int:
    """Index drawn by ``Generator.choice(len(probs), p=probs / total)``.

    ``total`` is ``probs``' left-to-right sum, which is what numpy's
    pairwise sum computes for fewer than eight entries.
    """
    cdf = []
    acc = 0.0
    for p in probs:
        acc += p / total
        cdf.append(acc)
    r = rng.random()
    last = cdf[-1]
    k = 0
    for c in cdf:
        if c / last > r:
            break
        k += 1
    return k
