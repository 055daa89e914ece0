"""MEDA biochip state: actuation counts, degradation, health (Sec. VII-A).

The simulator's chip tracks, per microelectrode, the degradation constants
``(tau, c)``, the actuation count ``N`` and an optional sudden-failure plan.
Derived quantities follow Sec. IV-B:

* degradation  ``D = tau^(N/c)`` (zero once a faulty MC passes its failure
  actuation count);
* health       ``H = floor(2^b D)`` clipped to ``[0, 2^b - 1]`` — what the
  droplet controller observes;
* true force   ``F = D²`` — what the simulator rolls droplet motion with.

The chip keeps ``D``, ``H`` and ``F`` up to date instead of deriving them
on every read.  Since ``D = tau^(N/c)`` is elementwise, an actuation or a
masked sensing scan recomputes ``D`` and ``F`` only on the cells it
touched, and a full-array scan on every cell.  ``H`` is re-quantized on
fewer still: each cell keeps a *guard count*, a lower bound on the stress
at which its code can next drop (``floor(c ln(h/2^b) / ln tau) - 1``,
capped by the cell's failure count; infinite for code 0 or ``tau = 1``
without a failure).  Only touched cells whose count reached their guard
are quantized and compared, and then get new guards.  The bound keeps at
least one count of margin, far wider than the rounding of
``tau^(N/c)`` while ``c / |ln tau| < 1e15``.  An assignment to
:attr:`MedaChip.actuations` resets every guard, so every cell is
re-quantized.  Either way each cell's value is bit-identical to a
from-scratch evaluation.  :meth:`MedaChip.health` returns a read-only
array whose identity changes exactly when some quantized value changes,
so callers can detect "nothing changed" with ``is``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.droplet import is_off_chip
from repro.core.transitions import MatrixForceField
from repro.degradation.faults import FaultPlan, no_faults
from repro.degradation.model import DEFAULT_HEALTH_BITS, health_codes
from repro.geometry.rect import Rect


class MedaChip:
    """A ``width x height`` MEDA microelectrode array with degradation state."""

    def __init__(
        self,
        tau: np.ndarray,
        c: np.ndarray,
        fault_plan: FaultPlan | None = None,
        bits: int = DEFAULT_HEALTH_BITS,
    ) -> None:
        if tau.shape != c.shape or tau.ndim != 2:
            raise ValueError("tau and c must be equal-shape 2-D arrays")
        if np.any(tau <= 0.0) or np.any(tau > 1.0):
            raise ValueError("tau values must lie in (0, 1]")
        if np.any(c <= 0.0):
            raise ValueError("c values must be positive")
        # Fixed for the chip's lifetime: the derived state depends on them.
        self.tau = np.array(tau, dtype=float)
        self.c = np.array(c, dtype=float)
        self.tau.flags.writeable = False
        self.c.flags.writeable = False
        self.width, self.height = tau.shape
        self.faults = fault_plan if fault_plan is not None else no_faults(*tau.shape)
        if self.faults.fail_at.shape != tau.shape:
            raise ValueError("fault plan shape does not match the chip")
        self.bits = bits
        # Flat views of the constants and the state, indexed by flat cells
        # (``(i - 1) * height + (j - 1)``).
        self._tau = self.tau.ravel()
        self._c = self.c.ravel()
        self._fail_at = np.ravel(self.faults.fail_at)
        #: Whether ``N >= fail_at`` can zero a cell whose ``tau^(N/c)`` is
        #: not zero already: a finite failure count, or ``tau = 1`` (where
        #: an infinite count still gives ``D = 1``).  Otherwise the fault
        #: mask is the identity and refreshes skip it.
        self._mortal = bool(
            np.isfinite(self._fail_at).any() or (self._tau == 1.0).any()
        )
        self._actuations = np.zeros(tau.shape)
        self._degradation = np.empty(tau.shape)
        self._force = np.empty(tau.shape)
        self._n = self._actuations.reshape(-1)
        self._d = self._degradation.reshape(-1)
        self._f = self._force.reshape(-1)
        self._health: np.ndarray | None = None
        #: Per-cell guard counts (see the module docstring); ``-inf``
        #: forces a cell's next refresh to re-quantize it.
        self._guard = np.full(self._n.size, -np.inf)
        #: ``c / ln tau`` per cell (``-inf`` where ``tau = 1``) and
        #: ``ln(h / 2^b)`` per code (``-inf`` for code 0): their product is
        #: the positive stress at which code ``h`` drops, or ``inf``.
        self._span = np.divide(self._c, np.log(self._tau),
                               out=np.full(self._c.size, -np.inf),
                               where=self._tau < 1.0)
        with np.errstate(divide="ignore"):
            self._ln_code = np.log(np.arange(1 << bits) / (1 << bits))
        #: Flat offsets of a ``w x h`` pattern from its lower-left cell,
        #: per shape (bounded by the shapes that fit the chip).
        self._offsets: dict[tuple[int, int], np.ndarray] = {}
        #: Exact integer ``sum(N)`` while every count is a whole number
        #: (no fractional sensing stress yet); ``None`` otherwise.
        self._total: int | None = 0
        self._update(None)
        self._field = MatrixForceField(self._force)

    @classmethod
    def sample(
        cls,
        width: int,
        height: int,
        rng: np.random.Generator,
        tau_range: tuple[float, float] = (0.5, 0.9),
        c_range: tuple[float, float] = (200.0, 500.0),
        fault_plan: FaultPlan | None = None,
        bits: int = DEFAULT_HEALTH_BITS,
    ) -> "MedaChip":
        """A chip with per-MC constants sampled as in Sec. VII-B.

        ``c ~ U(200, 500)`` and ``tau ~ U(0.5, 0.9)`` by default; once
        assigned the constants stay fixed for the chip's lifetime.
        """
        tau = rng.uniform(*tau_range, size=(width, height))
        c = rng.uniform(*c_range, size=(width, height))
        return cls(tau=tau, c=c, fault_plan=fault_plan, bits=bits)

    # -- state evolution -----------------------------------------------------

    @property
    def actuations(self) -> np.ndarray:
        """Per-MC actuation-equivalent stress ``N`` (a copy).

        Assign to change it (``chip.actuations += prewear`` works): the
        assignment recomputes every cell's derived state and resets every
        guard, since it may lower a count.
        """
        return self._actuations.copy()

    @actuations.setter
    def actuations(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        if value.shape != (self.width, self.height):
            raise ValueError(
                f"actuation counts shape {value.shape} does not match chip "
                f"({self.width}, {self.height})"
            )
        self._actuations[...] = value
        self._total = (int(value.sum()) if _whole(self._actuations)
                       else None)
        self._guard.fill(-np.inf)
        self._update(None)

    def apply_actuation(self, actuation: np.ndarray) -> None:
        """Apply one cycle's actuation matrix ``U`` (0/1 per MC)."""
        if actuation.shape != (self.width, self.height):
            raise ValueError(
                f"actuation shape {actuation.shape} does not match chip "
                f"({self.width}, {self.height})"
            )
        cells = np.flatnonzero(actuation)
        stress = np.ravel(actuation)[cells].astype(float)
        if np.any(stress < 0.0):
            raise ValueError("actuation counts cannot be negative")
        self._add(cells, stress, integral=actuation.dtype.kind in "biu")

    def actuate(self, patterns: Iterable[Rect]) -> None:
        """Apply one cycle's actuation straight from the droplet patterns.

        Equivalent to ``apply_actuation(actuation_matrix(patterns, W, H))``
        without building the matrix: every covered cell takes one
        actuation, a cell covered by overlapping patterns only one, and
        the off-chip sentinel none.  A pattern that does not fit the chip
        raises :class:`ValueError`.
        """
        rects = [r for r in patterns if not is_off_chip(r)]
        parts = []
        for r in rects:
            if not (1 <= r.xa and 1 <= r.ya and r.xb <= self.width
                    and r.yb <= self.height):
                raise ValueError(
                    f"droplet {r} does not fit a {self.width}x{self.height} "
                    f"chip"
                )
            shape = (r.xb - r.xa + 1, r.yb - r.ya + 1)
            offsets = self._offsets.get(shape)
            if offsets is None:
                offsets = (np.arange(shape[0])[:, None] * self.height
                           + np.arange(shape[1])).ravel()
                self._offsets[shape] = offsets
            parts.append(offsets + ((r.xa - 1) * self.height + r.ya - 1))
        if not parts:
            return
        if len(parts) == 1:
            cells = parts[0]
        elif any(a.overlaps(b) for i, a in enumerate(rects)
                 for b in rects[i + 1:]):
            cells = np.unique(np.concatenate(parts))
        else:
            cells = np.concatenate(parts)
        self._add(cells, 1.0, integral=True)

    def apply_sensing(
        self, mask: np.ndarray | None = None, weight: float = 0.1
    ) -> None:
        """Apply one cycle's *sensing* stress.

        Droplet/health sensing charges and discharges the microelectrode
        like a (weaker) actuation, so full-array scans also consume
        lifetime — the motivation for selective sensing (Liang et al.,
        TCAD'20, the paper's ref. [32]).  ``mask`` limits the scan to a
        subset of MCs (``None`` = full-array scan); ``weight`` is the
        charge-trapping stress of one sensing cycle relative to one
        actuation.
        """
        if weight < 0.0:
            raise ValueError("sensing weight cannot be negative")
        if mask is None:
            self._actuations += weight
            if self._total is not None:
                self._total = (
                    self._total + int(weight) * self._actuations.size
                    if float(weight).is_integer() else None
                )
            self._update(None)
            return
        if mask.shape != (self.width, self.height):
            raise ValueError(
                f"sensing mask shape {mask.shape} does not match chip "
                f"({self.width}, {self.height})"
            )
        cells = np.flatnonzero(mask)
        self._add(cells, weight * np.ravel(mask)[cells].astype(float))

    def _add(self, cells: np.ndarray, stress: "np.ndarray | float",
             integral: bool = False) -> None:
        """Add non-negative ``stress`` (per cell, or one value for all) to
        the distinct flat ``cells`` and refresh only those.

        ``integral`` says the stress is whole by construction (it came
        from an integer matrix or is one actuation), which spares the
        check.
        """
        if not cells.size:
            return
        self._n[cells] += stress
        if self._total is not None:
            if not (integral or _whole(stress)):
                self._total = None
            elif isinstance(stress, np.ndarray):
                self._total += int(stress.sum())
            else:
                self._total += int(stress) * cells.size
        self._update(cells)

    def _update(self, cells: np.ndarray | None) -> None:
        """Recompute ``D`` and ``F`` on flat ``cells`` (None = all), and
        re-quantize those of them whose count reached its guard.

        The same elementwise arithmetic as a whole-array evaluation, so
        every value is bit-identical to one.
        """
        idx = slice(None) if cells is None else cells
        counts = self._n[idx]
        d = self._tau[idx] ** (counts / self._c[idx])
        if self._mortal:
            d[counts >= self._fail_at[idx]] = 0.0
        self._d[idx] = d
        self._f[idx] = d ** 2
        due = counts >= self._guard[idx]
        if not due.any():
            return
        due_cells = np.flatnonzero(due) if cells is None else cells[due]
        self._requantize(due_cells, d[due])

    def _requantize(self, cells: np.ndarray, d: np.ndarray) -> None:
        """Quantize ``D`` on flat ``cells`` (``H = min(floor(2^b D),
        2^b - 1)``, after checking ``D`` lies in ``[0, 1]``), copy ``H``
        on change and give the cells new guards."""
        h = health_codes(d, self.bits)
        guard = self._span[cells] * self._ln_code[h.astype(np.intp)]
        np.floor(guard, out=guard)
        guard -= 1.0
        if self._mortal:
            np.minimum(guard, self._fail_at[cells], out=guard)
            guard[h == 0.0] = np.inf
        self._guard[cells] = guard
        old = self._health
        if old is not None and not np.count_nonzero(
            h != old.reshape(-1)[cells]
        ):
            return
        new = (np.empty(self._actuations.shape, dtype=int) if old is None
               else old.copy())
        new.reshape(-1)[cells] = h
        new.flags.writeable = False
        self._health = new

    # -- derived matrices ------------------------------------------------------

    def degradation(self) -> np.ndarray:
        """The hidden degradation matrix ``D`` (with sudden faults applied)."""
        return self._degradation.copy()

    def health(self) -> np.ndarray:
        """The observable health matrix ``H`` (b-bit quantization of D).

        Read-only and shared: the same object is returned until some
        quantized value changes, so ``health() is previous`` means no MC
        crossed a health level in between.
        """
        return self._health

    def true_force(self) -> np.ndarray:
        """Per-MC relative EWOD force ``F = D²`` (eq. 2)."""
        return self._force.copy()

    def force_field(self) -> MatrixForceField:
        """The chip-owned force field over ``F``, validated once.

        It reads the chip's live force array, so it always reflects the
        current state; keep :meth:`true_force` for a snapshot.
        """
        return self._field

    @property
    def total_actuations(self) -> int:
        """Total actuation-equivalent stress applied so far, over all MCs.

        Sensing stress contributes fractionally (see :meth:`apply_sensing`),
        so the total is rounded to the nearest whole event.  While every
        count is whole it comes from an exact running sum instead.
        """
        if self._total is not None:
            return self._total
        return int(round(self._actuations.sum()))


def _whole(values: np.ndarray) -> bool:
    """Whether every value is a finite whole number."""
    return not np.any(np.mod(values, 1.0))
