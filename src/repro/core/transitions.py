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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core.actions import (
    Action,
    ActionClass,
    apply_action,
    frontier,
)
from repro.geometry.rect import Rect


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
        width, height = self.forces.shape
        xa, ya = max(rect.xa, 1), max(rect.ya, 1)
        xb, yb = min(rect.xb, width), min(rect.yb, height)
        if xb < xa or yb < ya:
            return 0.0
        total = float(self.forces[xa - 1 : xb, ya - 1 : yb].sum())
        return total / rect.area


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
    rect_mean = getattr(field, "rect_mean", None)
    if rect_mean is not None:
        return rect_mean(fr)
    cells = list(fr.cells())
    total = sum(field.force(i, j) for i, j in cells)
    return total / len(cells)


def outcome_distribution(
    delta: Rect, action: Action, field: ForceField
) -> list[Outcome]:
    """The full outcome distribution of ``action`` on ``delta``.

    Probabilities always sum to one; zero-probability outcomes are pruned.
    Guards are *not* checked here — callers (the MDP builder, the simulator)
    enable actions first.
    """
    klass = action.klass
    if klass is ActionClass.CARDINAL:
        direction = action.vertical or action.horizontal
        assert direction is not None
        p = leg_probability(delta, action, direction, field)
        moved = apply_action(delta, action)
        return _pruned(
            [
                Outcome(direction, moved, p),
                Outcome("eps", delta, 1.0 - p),
            ]
        )

    if klass is ActionClass.DOUBLE:
        direction = action.vertical or action.horizontal
        assert direction is not None
        one_step = _single_step(delta, direction)
        p1 = leg_probability(delta, action, direction, field)
        p2 = leg_probability(one_step, action, direction, field)
        two_steps = apply_action(delta, action)
        return _pruned(
            [
                Outcome(direction * 2, two_steps, p1 * p2),
                Outcome(direction, one_step, p1 * (1.0 - p2)),
                Outcome("eps", delta, 1.0 - p1),
            ]
        )

    if klass is ActionClass.ORDINAL:
        dv, dh = action.vertical, action.horizontal
        assert dv is not None and dh is not None
        pv = leg_probability(delta, action, dv, field)
        ph = leg_probability(delta, action, dh, field)
        return _pruned(
            [
                Outcome(dv + dh, apply_action(delta, action), pv * ph),
                Outcome(dv, _single_step(delta, dv), pv * (1.0 - ph)),
                Outcome(dh, _single_step(delta, dh), (1.0 - pv) * ph),
                Outcome("eps", delta, (1.0 - pv) * (1.0 - ph)),
            ]
        )

    # Morphing: one Bernoulli leg on the pulling frontier.
    direction = action.horizontal if klass is ActionClass.WIDEN else action.vertical
    assert direction is not None
    p = leg_probability(delta, action, direction, field)
    if p == 0.0:
        # Degenerate morph (single-row/-column droplet, or a fully dead /
        # off-chip frontier): the pattern cannot change.
        return [Outcome("eps", delta, 1.0)]
    return _pruned(
        [
            Outcome("morph", apply_action(delta, action), p),
            Outcome("eps", delta, 1.0 - p),
        ]
    )


def _single_step(delta: Rect, direction: str) -> Rect:
    from repro.core.actions import ACTIONS

    return apply_action(delta, ACTIONS[f"a_{direction}"])


def _pruned(outcomes: list[Outcome]) -> list[Outcome]:
    kept = [o for o in outcomes if o.probability > 0.0]
    total = 0.0
    for o in kept:
        total += o.probability
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"outcome probabilities sum to {total}, not 1")
    return kept


def sample_outcome(
    delta: Rect, action: Action, field: ForceField, rng: np.random.Generator
) -> Outcome:
    """Sample one outcome — the simulator's droplet-update step (Fig. 14).

    Draw-for-draw identical to ``rng.choice(len(outcomes), p=...)``: the
    same normalisation, cumulative sum and one ``rng.random()`` draw,
    without ``choice``'s argument checks (:func:`_pruned` has already
    validated the probabilities).
    """
    outcomes = outcome_distribution(delta, action, field)
    probs = np.array([o.probability for o in outcomes])
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return outcomes[int(cdf.searchsorted(rng.random(), side="right"))]
