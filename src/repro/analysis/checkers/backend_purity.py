"""TL007 backend purity: the neutral layers stay free of the core.

The tiered-backend design rests on a layering invariant: the
architectural-semantics layer (``repro.isa``) and the uarch-free
backend modules (``repro.backends.base``, ``repro.backends.functional``,
``repro.backends.warmup``) must not import ``repro.uarch``. The
functional tier's differential gate -- final architectural state
bit-identical to a detailed run -- is only meaningful while functional
execution cannot reach into the timing model, and the shared
:class:`~repro.isa.semantics.InstStream` is only backend-neutral while
``repro.isa`` has no path back up into the core that replays it.

The detailed and sampled backends are deliberately exempt: they *are*
the cycle-level tier (and its windowed driver), so importing
``repro.uarch`` is their job.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.module import ModuleSource
from repro.analysis.registry import Rule, checker

#: Dotted module prefixes that must stay free of repro.uarch imports.
PURE_PACKAGES = ("repro.isa",)

#: Exact backend modules held to the same rule (``sampled`` is the
#: cycle-level tier's windowed driver, and the package ``__init__`` is
#: the dispatcher; both are exempt).
PURE_MODULES = (
    "repro.backends.base",
    "repro.backends.functional",
    "repro.backends.warmup",
)

#: The package the pure layers may not reach.
FORBIDDEN_PREFIX = "repro.uarch"


def _is_forbidden(name: str | None) -> bool:
    return name is not None and (
        name == FORBIDDEN_PREFIX
        or name.startswith(FORBIDDEN_PREFIX + ".")
    )


@checker(
    Rule(
        "TL007",
        "backend-purity",
        "repro.isa and the uarch-free backend modules must not import "
        "repro.uarch",
    )
)
def check_backend_purity(
    module: ModuleSource,
) -> Iterator[tuple[int, int, str, str]]:
    name = module.module_name
    if not (module.in_package(*PURE_PACKAGES) or name in PURE_MODULES):
        return
    for node in ast.walk(module.tree):
        offenders: list[str] = []
        if isinstance(node, ast.Import):
            offenders = [
                alias.name
                for alias in node.names
                if _is_forbidden(alias.name)
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if _is_forbidden(node.module):
                offenders = [node.module or ""]
        for offender in offenders:
            yield (
                node.lineno,
                node.col_offset,
                f"backend-neutral module {name} imports {offender}",
                "keep architectural semantics and functional "
                "execution independent of the timing model; move "
                "uarch-coupled code into repro.backends.sampled or "
                "repro.uarch itself",
            )
