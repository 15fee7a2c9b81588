"""TEA: the paper's primary contribution.

This package implements everything above the microarchitectural substrate:

* :mod:`repro.core.events` -- the nine TEA performance events, the event
  sets of IBS/SPE/RIS (Table 1), and the event-hierarchy model (Fig 3).
* :mod:`repro.core.psv` -- Performance Signature Vector bit operations.
* :mod:`repro.core.pics` -- Per-Instruction Cycle Stacks and granularity
  aggregation (instruction / basic block / function / application).
* :mod:`repro.core.samplers` -- the golden reference, TEA, NCI-TEA, and
  the front-end-tagging IBS/SPE/RIS models.
* :mod:`repro.core.error` -- the paper's cycle-stack error metric (Sec. 4).
* :mod:`repro.core.correlation` -- event-count-vs-impact correlation
  (Fig 7) and the stall-coverage analysis.
* :mod:`repro.core.overhead` -- storage / power / performance overhead
  models (Sec. 3).
* :mod:`repro.core.report` -- human-readable PICS rendering.
* :mod:`repro.core.result` -- :class:`~repro.core.result.CoreResult`,
  the result every execution tier returns.
"""

from repro.core.events import (
    ALL_EVENTS,
    Event,
    EVENT_SETS,
    IBS_EVENTS,
    RIS_EVENTS,
    SPE_EVENTS,
    TEA_EVENTS,
    event_mask,
)
from repro.core.psv import (
    decode_psv,
    project_psv,
    psv_has,
    psv_set,
    signature_name,
)
from repro.core.pics import Granularity, PicsProfile
from repro.core.error import pics_error
from repro.core.samplers import (
    TECHNIQUE_NAMES,
    DispatchTagSampler,
    FetchTagSampler,
    GoldenReference,
    NciTeaSampler,
    Sampler,
    TeaSampler,
    make_sampler,
)

__all__ = [
    "ALL_EVENTS",
    "Event",
    "EVENT_SETS",
    "IBS_EVENTS",
    "RIS_EVENTS",
    "SPE_EVENTS",
    "TEA_EVENTS",
    "event_mask",
    "decode_psv",
    "project_psv",
    "psv_has",
    "psv_set",
    "signature_name",
    "Granularity",
    "PicsProfile",
    "pics_error",
    "DispatchTagSampler",
    "FetchTagSampler",
    "GoldenReference",
    "NciTeaSampler",
    "Sampler",
    "TECHNIQUE_NAMES",
    "TeaSampler",
    "make_sampler",
]
