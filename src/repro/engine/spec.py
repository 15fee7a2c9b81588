"""Canonical run specifications and content-hash keying.

A :class:`RunSpec` is a frozen, hashable description of exactly one
simulation: which workload (and with which builder kwargs), at what
scale, under which :class:`~repro.uarch.config.CoreConfig`, with which
sampling techniques, periods, and seeds attached. Two specs that
describe the same simulation always produce the same canonical content
hash (:attr:`RunSpec.key`) regardless of kwarg ordering, dict insertion
order, or config object identity -- the key the engine memo, the
on-disk run store, and the telemetry log all share. Specs that differ
only in their sampler plans share a :attr:`RunSpec.simulation_key`:
they watch one machine run, which the engine simulates once.

The hash also covers :data:`repro.version.MODEL_VERSION` (re-exported
here for compatibility). It does not cover the code that runs the
spec: the :class:`~repro.engine.store.RunStore` files each key under
:func:`repro.version.code_digest`, so a key stays the same across code
edits while a stored run does not outlive the code that made it.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from collections.abc import Iterator, Mapping
from typing import Any

from repro.backends.base import BACKEND_NAMES
from repro.uarch.config import CoreConfig
from repro.version import MODEL_VERSION

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_PERIOD",
    "DEFAULT_SCALE",
    "MODEL_VERSION",
    "RunSpec",
    "SPEC_SCHEMA",
    "TECHNIQUES",
    "canonical",
]

#: The five techniques of the headline comparison (Fig 5), paper order.
TECHNIQUES = ("IBS", "SPE", "RIS", "NCI-TEA", "TEA")

#: Default sampling period. The paper samples every 800,000 cycles
#: (4 kHz at 3.2 GHz) on runs of >= 10^11 cycles; our kernels run ~10^5
#: cycles, so the period is scaled by ~10^3 to keep the number of samples
#: statistically comparable.
DEFAULT_PERIOD = 293

#: Default workload scale for experiments.
DEFAULT_SCALE = 1.0

#: Spec-hash schema revision (bump on RunSpec field changes).
#: v2: backend selection (detailed / functional / sampled) and the
#: sampled-mode window geometry joined the hashed payload.
SPEC_SCHEMA = "tea-spec-v2"

#: The default sampler plan, hashed in place of a functional spec's own:
#: that tier attaches no samplers, so specs that differ only in their
#: plan describe one simulation and share one key. (Tuples hash as the
#: lists of the other specs' payloads do, and cannot be mutated.) Its
#: keys are the six fields that say which samplers watch a run, not
#: what runs.
_FUNCTIONAL_PLAN = {
    "techniques": TECHNIQUES,
    "extra_periods": (),
    "period": DEFAULT_PERIOD,
    "seed": 12345,
    "extra_seed": 54321,
    "jitter": True,
}

#: The default window geometry, hashed in place of a spec's own off the
#: sampled tier: the detailed and functional tiers run no windows.
_NO_WINDOWS = {"window": 0, "stride": 0, "warmup": 0}


def _digest(payload: dict[str, Any]) -> str:
    """sha256 (hex) of a payload's canonical JSON."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _sort_token(value: Any) -> str:
    """A total-order sort key over canonical forms."""
    return json.dumps(value, sort_keys=True)


def canonical(value: Any) -> Any:
    """Reduce *value* to a canonical JSON-able form.

    Dict items are sorted, sets are ordered, enums become qualified
    names, and dataclasses (e.g. :class:`CoreConfig` and its nested
    configs) become tagged field mappings, so structurally equal values
    always canonicalise identically.

    Raises:
        TypeError: For values that cannot be canonicalised (and thus
            must not appear in a :class:`RunSpec`).
    """
    if is_dataclass(value) and not isinstance(value, type):
        out: dict[str, Any] = {"__type__": type(value).__name__}
        for f in fields(value):
            out[f.name] = canonical(getattr(value, f.name))
        return out
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        items = [[canonical(k), canonical(v)] for k, v in value.items()]
        items.sort(key=lambda kv: _sort_token(kv[0]))
        return {"__dict__": items}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {
            "__set__": sorted(
                (canonical(v) for v in value), key=_sort_token
            )
        }
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} value {value!r} "
        "for a RunSpec"
    )


def validate_workload_kwargs(
    workload: str, kwargs: Mapping[str, Any]
) -> None:
    """Reject workload kwargs the registered builder cannot accept.

    Looks up *workload* in the builder registry and checks every key
    against the builder's signature, so a typo'd or misplaced engine
    option (``backend=``, ``perod=``, ...) fails at spec construction
    with a clear message instead of surfacing as a ``TypeError`` deep
    inside a worker -- or worse, silently keying a phantom store
    entry. Unknown workload names are left for :func:`repro.workloads
    .build` to report, and builders taking ``**kwargs`` accept
    anything.

    Raises:
        ValueError: For a kwarg the builder does not accept, naming
            the keys it does.
    """
    if not kwargs:
        return
    import inspect

    from repro.workloads import BUILDERS

    builder = BUILDERS.get(workload)
    if builder is None:
        return  # unknown workload: build() raises the canonical error
    params = inspect.signature(builder).parameters
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ):
        return
    accepted = sorted(
        name
        for name, p in params.items()
        if name != "scale"
        and p.kind
        in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    )
    rejected = sorted(set(kwargs) - set(accepted))
    if rejected:
        raise ValueError(
            f"workload {workload!r} does not accept kwarg(s) "
            f"{', '.join(map(repr, rejected))}; accepted: "
            + (", ".join(accepted) if accepted else "(none)")
            + " -- engine options like backend/period belong on the "
            "spec, not in workload kwargs"
        )


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One simulation run, fully specified and content-addressable.

    Build specs through :meth:`make` so workload kwargs are stored in
    canonical (key-sorted) order.

    Attributes:
        workload: Registered workload name (see :mod:`repro.workloads`).
        kwargs: Workload builder kwargs as a key-sorted item tuple.
        scale: Workload scale factor.
        period: Base sampling period in cycles.
        config: Core configuration override (``None`` = Table 2 default).
        techniques: Sampling techniques to attach, in order.
        extra_periods: Additional periods attached per technique
            (sampler keys become ``f"{technique}@{period}"``).
        seed: Base RNG seed for the primary samplers.
        extra_seed: Base RNG seed for the extra-period samplers.
        jitter: Randomise inter-sample gaps (see :class:`Sampler`).
        backend: Execution tier -- ``"detailed"`` (the cycle-level
            core), ``"functional"`` (atomic, architectural state
            only), or ``"sampled"`` (detailed windows over functional
            fast-forward).
        window: Sampled-mode window length in committed instructions
            (0 = the :class:`~repro.backends.sampled.WindowPlan`
            default; ignored, and not hashed, by the other backends).
        stride: Sampled-mode fast-forward length between windows.
        warmup: Sampled-mode warm-up replay depth per window.
    """

    workload: str
    kwargs: tuple[tuple[str, Any], ...] = ()
    scale: float = DEFAULT_SCALE
    period: int = DEFAULT_PERIOD
    config: CoreConfig | None = None
    techniques: tuple[str, ...] = TECHNIQUES
    extra_periods: tuple[int, ...] = ()
    seed: int = 12345
    extra_seed: int = 54321
    jitter: bool = True
    backend: str = "detailed"
    window: int = 0
    stride: int = 0
    warmup: int = 0

    @classmethod
    def make(
        cls,
        workload: str,
        kwargs: Mapping[str, Any] | None = None,
        *,
        scale: float = DEFAULT_SCALE,
        period: int = DEFAULT_PERIOD,
        config: CoreConfig | None = None,
        techniques: tuple[str, ...] = TECHNIQUES,
        extra_periods: tuple[int, ...] = (),
        seed: int = 12345,
        extra_seed: int = 54321,
        jitter: bool = True,
        backend: str = "detailed",
        window: int = 0,
        stride: int = 0,
        warmup: int = 0,
    ) -> "RunSpec":
        """Build a spec with canonically ordered workload kwargs.

        Raises:
            ValueError: For an unknown *backend*, or workload kwargs
                the registered builder does not accept (a typo'd
                engine option -- e.g. ``backend=`` passed as a
                workload kwarg -- must fail here, loudly, instead of
                minting a phantom cache entry).
        """
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {backend!r}; "
                f"choose from {', '.join(BACKEND_NAMES)}"
            )
        validate_workload_kwargs(workload, kwargs or {})
        items = tuple(sorted((kwargs or {}).items(), key=lambda kv: kv[0]))
        return cls(
            workload=workload,
            kwargs=items,
            scale=float(scale),
            period=int(period),
            config=config,
            techniques=tuple(techniques),
            extra_periods=tuple(extra_periods),
            seed=seed,
            extra_seed=extra_seed,
            jitter=jitter,
            backend=backend,
            window=int(window),
            stride=int(stride),
            warmup=int(warmup),
        )

    @property
    def workload_kwargs(self) -> dict[str, Any]:
        """The workload builder kwargs as a dict."""
        return dict(self.kwargs)

    def sampler_plan(
        self,
    ) -> Iterator[tuple[str, str, int, int]]:
        """Yield (sampler key, technique, period, seed) in attach order.

        Mirrors the historical :class:`ExperimentRunner` seeding so specs
        reproduce bit-identical sampler streams: primary samplers get
        ``seed + technique_offset``, extra-period samplers get
        ``extra_seed + technique_offset``.
        """
        for offset, technique in enumerate(self.techniques):
            yield technique, technique, self.period, self.seed + offset
            for extra in self.extra_periods:
                yield (
                    f"{technique}@{extra}",
                    technique,
                    extra,
                    self.extra_seed + offset,
                )

    def canonical_payload(self) -> dict[str, Any]:
        """The canonical dict the content hash is computed over.

        A functional spec hashes the default sampler plan, whatever
        its own (see :data:`_FUNCTIONAL_PLAN`), and a spec off the
        sampled tier the default window geometry.
        """
        payload = {
            "schema": SPEC_SCHEMA,
            "model_version": MODEL_VERSION,
            "workload": self.workload,
            "kwargs": [
                [key, canonical(value)] for key, value in self.kwargs
            ],
            "scale": float(self.scale),
            "period": int(self.period),
            "config": canonical(self.config),
            "techniques": list(self.techniques),
            "extra_periods": list(self.extra_periods),
            "seed": self.seed,
            "extra_seed": self.extra_seed,
            "jitter": self.jitter,
            "backend": self.backend,
            "window": int(self.window),
            "stride": int(self.stride),
            "warmup": int(self.warmup),
        }
        if self.backend == "functional":
            payload.update(_FUNCTIONAL_PLAN)
        if self.backend != "sampled":
            payload.update(_NO_WINDOWS)
        return payload

    @cached_property
    def key(self) -> str:
        """Canonical content hash (hex) identifying this run."""
        return _digest(self.canonical_payload())

    @cached_property
    def simulation_key(self) -> str:
        """Content hash (hex) of the machine run this spec watches.

        The key without the sampler plan (the fields of
        :data:`_FUNCTIONAL_PLAN`): samplers only observe, so specs that
        share it can attach their samplers to one simulation
        (:func:`repro.engine.runs.simulate_specs`).
        """
        payload = self.canonical_payload()
        for name in _FUNCTIONAL_PLAN:
            del payload[name]
        return _digest(payload)

    def window_plan(self):
        """The sampled-mode :class:`WindowPlan` this spec describes.

        ``window == 0`` means the plan default geometry; returns
        ``None`` for the non-sampled backends.
        """
        if self.backend != "sampled":
            return None
        from repro.backends.sampled import WindowPlan

        if self.window <= 0:
            return WindowPlan()
        return WindowPlan(
            window=self.window, stride=self.stride, warmup=self.warmup
        )

    def label(self) -> str:
        """Human-readable short form for logs and error reports."""
        args = ",".join(f"{k}={v!r}" for k, v in self.kwargs)
        name = self.workload + (f":{args}" if args else "")
        tier = "" if self.backend == "detailed" else f"/{self.backend}"
        return f"{name}@x{self.scale:g}/p{self.period}{tier}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)
