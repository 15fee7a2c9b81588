"""Checker modules: importing this package populates the registry."""

from repro.analysis.checkers import (  # noqa: F401
    backend_purity,
    determinism,
    obs_overhead,
    predict_purity,
    slots,
    worker_safety,
)
