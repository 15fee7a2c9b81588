"""Backend names and the common execution-backend interface.

Kept deliberately light: :mod:`repro.engine.spec` imports this module
to validate ``RunSpec.backend`` without dragging in the timing model,
and tea-lint's TL007 backend-purity rule covers it (nothing here may
import ``repro.uarch``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

#: The execution tiers, cheapest-first is not the order -- ``detailed``
#: leads because it is the default everywhere.
BACKEND_NAMES: tuple[str, ...] = ("detailed", "functional", "sampled")


class ExecutionBackend(ABC):
    """Common interface: simulate a program, return a result object.

    Every tier returns a :class:`~repro.core.result.CoreResult`, so
    downstream consumers -- payloads, experiments, the CLI -- never
    branch on the tier.
    """

    #: Tier name as it appears in ``RunSpec.backend`` / ``--backend``.
    name: str = "?"

    @abstractmethod
    def simulate(
        self,
        program,
        config=None,
        samplers=(),
        arch_state=None,
        max_cycles: int = 500_000_000,
    ):
        """Run *program* to completion and return the tier's result."""
