"""Microelectrode degradation: the charge-trapping model and its validation.

Implements Sec. III-C / IV of the paper: the exponential force-decay model,
the simulated PCB validation experiments (Figs. 5-6), model fitting, and the
fault-injection modes used in the evaluation (Sec. VII-C).

The model and the fault modes load with the package.  The paper-only
submodules, :mod:`.fitting` (which needs ``scipy.optimize``) and
:mod:`.pcb` (which needs :mod:`repro.circuits`), load on first use of one
of their names, so a routing run never imports them.
"""

import importlib

from repro.degradation.faults import (
    CLUSTER_SIZE,
    FaultInjector,
    FaultMode,
    FaultPlan,
    no_faults,
)
from repro.degradation.model import (
    DEFAULT_HEALTH_BITS,
    PAPER_FITTED_CONSTANTS,
    DegradationParams,
    health_to_degradation_estimate,
    quantize_health,
    sample_params,
)

#: Each lazily loaded name and the submodule that defines it.
_LAZY = {
    "ForceFit": "fitting",
    "adjusted_r2": "fitting",
    "fit_capacitance_slope": "fitting",
    "fit_decay_rate": "fitting",
    "fit_force_curve": "fitting",
    "DegradationCurve": "pcb",
    "Oscilloscope": "pcb",
    "PCBBiochip": "pcb",
    "PCBElectrode": "pcb",
    "run_degradation_experiment": "pcb",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


__all__ = [
    "CLUSTER_SIZE",
    "DEFAULT_HEALTH_BITS",
    "PAPER_FITTED_CONSTANTS",
    "DegradationCurve",
    "DegradationParams",
    "FaultInjector",
    "FaultMode",
    "FaultPlan",
    "ForceFit",
    "Oscilloscope",
    "PCBBiochip",
    "PCBElectrode",
    "adjusted_r2",
    "fit_capacitance_slope",
    "fit_decay_rate",
    "fit_force_curve",
    "health_to_degradation_estimate",
    "no_faults",
    "quantize_health",
    "run_degradation_experiment",
    "sample_params",
]
