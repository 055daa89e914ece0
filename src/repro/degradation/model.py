"""Charge-trapping degradation model (Sec. IV of the paper).

The paper validates experimentally (Figs. 5-6) that the relative EWOD force a
microelectrode can exert decays exponentially with its number of actuations
``n``:

    F̄(n) ≈ τ^(2n/c)                                   (eq. 2)
    D(n)  = V(n)/Va ≈ τ^(n/c)            ∈ [0, 1]       (eq. 3)
    H(n)  = floor(2^b · D(n)),  clamped to [0, 2^b - 1]

where ``τ ∈ [0, 1]`` and ``c > 0`` are per-microelectrode degradation
constants, ``D`` is the (hidden) degradation level, and ``H`` is the health
level observable through the ``b``-bit sensing circuit of Sec. III.  The
fitted constants reported in the paper are, per electrode size,
``(τ2, c2) = (0.556, 822.7)``, ``(τ3, c3) = (0.543, 805.5)`` and
``(τ4, c4) = (0.530, 788.4)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Fitted constants reported in Fig. 6 of the paper, keyed by electrode size
#: in millimetres.  ``R²_adj > 0.94`` for all three fits.
PAPER_FITTED_CONSTANTS: dict[int, tuple[float, float]] = {
    2: (0.556, 822.7),
    3: (0.543, 805.5),
    4: (0.530, 788.4),
}

#: Number of health bits implemented by the proposed MC design (Sec. III-B).
DEFAULT_HEALTH_BITS = 2


@dataclass(frozen=True)
class DegradationParams:
    """Per-microelectrode degradation constants ``(tau, c)``.

    ``tau`` is the base of the exponential decay and ``c`` the actuation
    scale; both are strictly positive and ``tau <= 1`` (a microelectrode
    never improves with use).
    """

    tau: float
    c: float

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.c <= 0.0:
            raise ValueError(f"c must be positive, got {self.c}")

    def degradation(self, n: float | np.ndarray) -> float | np.ndarray:
        """Degradation level ``D(n) = tau^(n/c)`` (eq. 3)."""
        return self.tau ** (np.asarray(n, dtype=float) / self.c)

    def relative_force(self, n: float | np.ndarray) -> float | np.ndarray:
        """Relative EWOD force ``F̄(n) = tau^(2n/c) = D(n)²`` (eq. 2)."""
        return self.tau ** (2.0 * np.asarray(n, dtype=float) / self.c)

    def health(
        self, n: float | np.ndarray, bits: int = DEFAULT_HEALTH_BITS
    ) -> int | np.ndarray:
        """Observed health level ``H(n)`` quantized to ``bits`` bits."""
        return quantize_health(self.degradation(n), bits)

    def actuations_to_degradation(self, d: float) -> float:
        """Invert eq. 3: the ``n`` at which ``D(n)`` first reaches ``d``.

        Useful for lifetime estimation; returns ``inf`` when ``tau == 1``
        (a non-degrading microelectrode never reaches ``d < 1``).
        """
        if not 0.0 < d <= 1.0:
            raise ValueError(f"degradation level must be in (0, 1], got {d}")
        if d == 1.0:
            return 0.0
        if self.tau == 1.0:
            return float("inf")
        return self.c * np.log(d) / np.log(self.tau)


def quantize_health(
    d: float | np.ndarray, bits: int = DEFAULT_HEALTH_BITS
) -> int | np.ndarray:
    """Quantize a degradation level to the ``b``-bit health code.

    ``H = floor(2^b · D)`` clamped to ``[0, 2^b - 1]`` so that a pristine
    microelectrode (``D = 1``) reads the all-ones code, matching the "11"
    sensing result of the proposed MC design.
    """
    arr = np.asarray(d, dtype=float)
    h = health_codes(arr.reshape(-1), bits).astype(int).reshape(arr.shape)
    if np.isscalar(d) or arr.ndim == 0:
        return int(h)
    return h


_ONE_BITS = np.float64(1.0).view(np.uint64)


def health_codes(d: np.ndarray, bits: int) -> np.ndarray:
    """:func:`quantize_health` of a 1-D float64 array, the codes as floats.

    The form the chip refreshes its health matrix with, in few numpy
    calls.  The ``[0, 1]`` check is first one comparison of the IEEE bit
    patterns: doubles from +0.0 up order like their patterns, and every
    double with the sign bit set (and NaN) has a pattern above 1.0's.
    Only then does the exact comparison decide, so ``-0.0`` passes and
    NaN does not.
    """
    if bits < 1:
        raise ValueError(f"need at least one health bit, got {bits}")
    if np.count_nonzero(d.view(np.uint64) > _ONE_BITS) and not np.all(
        (d >= 0.0) & (d <= 1.0)
    ):
        raise ValueError("degradation levels must lie in [0, 1]")
    levels = float(1 << bits)
    h = np.multiply(d, levels)
    np.floor(h, out=h)
    np.minimum(h, levels - 1.0, out=h)
    return h


def health_to_degradation_estimate(
    h: int | np.ndarray, bits: int = DEFAULT_HEALTH_BITS, pessimistic: bool = False
) -> float | np.ndarray:
    """Reconstruct a degradation estimate from an observed health code.

    The controller only sees the quantized ``H``; the synthesizer needs a
    scalar force estimate.  The default mid-bucket estimator returns
    ``(H + 0.5) / 2^b``, except that ``H = 0`` maps to zero: a health-0
    microelectrode must yield zero-probability transitions (Sec. VII-D),
    otherwise the router would plan routes across dead cells.  With
    ``pessimistic=True`` the lower bucket edge ``H / 2^b`` is returned,
    which under-estimates force everywhere and yields more conservative
    routes.
    """
    levels = 1 << bits
    arr = np.asarray(h, dtype=float)
    if np.any(arr < 0) or np.any(arr > levels - 1):
        raise ValueError(f"health codes must lie in [0, {levels - 1}]")
    if pessimistic:
        est = arr / levels
    else:
        est = np.where(arr == 0, 0.0, (arr + 0.5) / levels)
    if np.isscalar(h) or arr.ndim == 0:
        return float(est)
    return est


def sample_params(
    rng: np.random.Generator,
    tau_range: tuple[float, float] = (0.5, 0.9),
    c_range: tuple[float, float] = (200.0, 500.0),
    shape: tuple[int, ...] | None = None,
) -> DegradationParams | np.ndarray:
    """Sample degradation constants ``tau ~ U(tau1, tau2)``, ``c ~ U(c1, c2)``.

    These are the distributions used for the Sec. VII-B experiments
    (``c ~ U(200, 500)``, ``tau ~ U(0.5, 0.9)``).  With ``shape`` given,
    returns an object array of :class:`DegradationParams` of that shape.
    """
    if shape is None:
        return DegradationParams(
            tau=float(rng.uniform(*tau_range)), c=float(rng.uniform(*c_range))
        )
    taus = rng.uniform(*tau_range, size=shape)
    cs = rng.uniform(*c_range, size=shape)
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = DegradationParams(tau=float(taus[idx]), c=float(cs[idx]))
    return out
