"""The persistent cross-run strategy store.

See :mod:`repro.engine.store` for the SQLite strategy cache that the
adaptive router reads before it synthesizes and writes after.
"""

from repro.engine.store import StrategyStore, default_store_path

__all__ = [
    "StrategyStore",
    "default_store_path",
]
