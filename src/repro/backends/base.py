"""Backend names.

Kept deliberately light: :mod:`repro.engine.spec` imports this module
to validate ``RunSpec.backend`` without dragging in the timing model,
and tea-lint's TL007 backend-purity rule covers it (nothing here may
import ``repro.uarch``). :func:`repro.backends.simulate_backend` is the
one place a tier name selects a simulator.
"""

from __future__ import annotations

#: The execution tiers, cheapest-first is not the order -- ``detailed``
#: leads because it is the default everywhere.
BACKEND_NAMES: tuple[str, ...] = ("detailed", "functional", "sampled")
