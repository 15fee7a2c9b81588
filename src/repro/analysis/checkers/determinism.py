"""TL003 determinism: model code must be bit-reproducible.

The reproduction's core claim -- identical PICS profiles for identical
(spec, code) pairs, which the run store relies on -- dies the moment
model code consults a wall clock, an unseeded RNG, the OS entropy
pool, or the environment.
This checker bans those inputs from the simulation packages
(``repro.uarch``, ``repro.isa``, ``repro.backends``,
``repro.workloads``):

* wall-clock reads: ``time.time()`` / ``time.time_ns()``,
  ``datetime.now()`` / ``utcnow()`` / ``today()``;
* unseeded randomness: any use of the :mod:`random` module-level RNG
  (``random.random()``, ``random.choice()``, ...), ``random.Random()``
  constructed without a seed, and ``random.SystemRandom``;
* entropy: ``os.urandom``;
* environment-dependent branching: ``os.environ`` / ``os.getenv``.

``time.perf_counter`` stays legal: it is for *measurement*, never for
model decisions. Seeded ``random.Random(seed)`` instances are the
sanctioned randomness source.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.module import ModuleSource
from repro.analysis.registry import Rule, checker

#: Packages whose results must be a pure function of (spec, version).
DETERMINISTIC_PACKAGES = (
    "repro.uarch",
    "repro.isa",
    "repro.backends",
    "repro.workloads",
)

#: time.<attr> calls that read the wall clock.
_TIME_BANNED = {"time", "time_ns", "ctime", "localtime", "gmtime"}

#: datetime/date constructors that read the wall clock.
_DATETIME_BANNED = {"now", "utcnow", "today"}

#: from-imports that smuggle a banned callable in under a bare name.
_BANNED_FROM = {
    "time": _TIME_BANNED,
    "os": {"urandom", "environ", "getenv"},
}


def _hint(kind: str) -> str:
    if kind == "random":
        return (
            "thread a seeded random.Random(seed) through the call "
            "chain instead"
        )
    if kind == "env":
        return (
            "pass configuration explicitly (CLI flag or spec field); "
            "env vars make runs machine-dependent"
        )
    return (
        "model code may not read the wall clock; derive timing from "
        "simulated cycles"
    )


@checker(
    Rule(
        "TL003",
        "determinism",
        "no wall clocks, unseeded RNGs, entropy, or env reads in "
        "model code",
    )
)
def check_determinism(
    module: ModuleSource,
) -> Iterator[tuple[int, int, str, str]]:
    if not module.in_package(*DETERMINISTIC_PACKAGES):
        return

    imported: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            imported.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
            )

    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module in _BANNED_FROM:
            for alias in node.names:
                if alias.name in _BANNED_FROM[node.module]:
                    yield (
                        node.lineno,
                        node.col_offset + 1,
                        f"import of non-deterministic "
                        f"{node.module}.{alias.name} in model code",
                        _hint(
                            "env"
                            if alias.name in ("environ", "getenv")
                            else "clock"
                        ),
                    )
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name != "Random":
                    yield (
                        node.lineno,
                        node.col_offset + 1,
                        f"import of random.{alias.name}: the module-"
                        f"level RNG is process-global and unseeded",
                        _hint("random"),
                    )
        elif isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            base, attr = node.value.id, node.attr
            if base not in imported:
                continue
            loc = (node.lineno, node.col_offset + 1)
            if base == "time" and attr in _TIME_BANNED:
                yield (
                    *loc,
                    f"wall-clock read time.{attr} in model code",
                    _hint("clock"),
                )
            elif base in ("datetime", "date") and attr in _DATETIME_BANNED:
                yield (
                    *loc,
                    f"wall-clock read {base}.{attr} in model code",
                    _hint("clock"),
                )
            elif base == "os" and attr == "urandom":
                yield (
                    *loc,
                    "os.urandom draws from the OS entropy pool",
                    _hint("random"),
                )
            elif base == "os" and attr in ("environ", "getenv"):
                yield (
                    *loc,
                    f"environment read os.{attr} in model code",
                    _hint("env"),
                )
            elif base == "random" and attr == "SystemRandom":
                yield (
                    *loc,
                    "random.SystemRandom is entropy-backed and "
                    "unseedable",
                    _hint("random"),
                )
            elif base == "random" and attr == "Random":
                pass  # legal when seeded; unseeded handled below
            elif base == "random":
                yield (
                    *loc,
                    f"random.{attr} uses the process-global unseeded "
                    f"RNG",
                    _hint("random"),
                )

    # random.Random() with no seed argument: the one Attribute use of
    # the random module that is legal *only* when seeded.
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr == "Random"
            and "random" in imported
            and not node.args
            and not node.keywords
        ):
            yield (
                node.lineno,
                node.col_offset + 1,
                "random.Random() without a seed argument seeds from "
                "OS entropy",
                _hint("random"),
            )
