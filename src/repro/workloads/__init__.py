"""Synthetic SPEC-CPU2017-like workloads.

Each kernel is constructed to reproduce the dominant microarchitectural
behaviour the paper reports for its namesake benchmark (see each module's
docstring and DESIGN.md). Kernels accept a ``scale`` factor that controls
dynamic instruction count; the default is sized for interactive use
(~10^5 cycles) -- roughly 10^3x shorter than SPEC reference runs, with
sampling periods scaled to match.

Registry usage::

    from repro.workloads import build, suite, WORKLOAD_NAMES
    wl = build("lbm")                  # one workload
    for wl in suite():                 # the full 15-kernel suite
        ...
"""

from __future__ import annotations

from repro.workloads.base import Workload
from repro.workloads.bwaves import build_bwaves
from repro.workloads.cactubssn import build_cactubssn
from repro.workloads.deepsjeng import build_deepsjeng
from repro.workloads.exchange2 import build_exchange2
from repro.workloads.fotonik3d import build_fotonik3d
from repro.workloads.gcc import build_gcc
from repro.workloads.lbm import build_lbm
from repro.workloads.leela import build_leela
from repro.workloads.mcf import build_mcf
from repro.workloads.nab import build_nab
from repro.workloads.omnetpp import build_omnetpp
from repro.workloads.perlbench import build_perlbench
from repro.workloads.roms import build_roms
from repro.workloads.synth import build_synth
from repro.workloads.x264 import build_x264
from repro.workloads.xz import build_xz

#: name -> builder(scale=1.0, **kwargs) -> Workload
BUILDERS = {
    "bwaves": build_bwaves,
    "cactuBSSN": build_cactubssn,
    "deepsjeng": build_deepsjeng,
    "exchange2": build_exchange2,
    "fotonik3d": build_fotonik3d,
    "gcc": build_gcc,
    "lbm": build_lbm,
    "leela": build_leela,
    "mcf": build_mcf,
    "nab": build_nab,
    "omnetpp": build_omnetpp,
    "perlbench": build_perlbench,
    "roms": build_roms,
    "x264": build_x264,
    "xz": build_xz,
    # Recipe-driven generated scenarios (repro.workloads.synth). Not a
    # SPEC analogue: registered for build()/RunSpec access but kept out
    # of WORKLOAD_NAMES so the hand-built suite stays the 15 kernels
    # every figure, golden profile, and differential gate enumerates.
    "synth": build_synth,
}

#: The hand-built benchmark suite, in reporting order.
WORKLOAD_NAMES = tuple(sorted(set(BUILDERS) - {"synth"}))


def build(name: str, scale: float = 1.0, **kwargs) -> Workload:
    """Build one workload by name.

    Raises:
        KeyError: For an unknown workload name.
    """
    if name not in BUILDERS:
        raise KeyError(
            f"unknown workload {name!r}; known: {', '.join(sorted(BUILDERS))}"
        )
    return BUILDERS[name](scale=scale, **kwargs)


def suite(scale: float = 1.0, names: tuple[str, ...] | None = None):
    """Build the hand-built benchmark suite (all 15 kernels by default)."""
    return [build(name, scale=scale) for name in (names or WORKLOAD_NAMES)]


__all__ = [
    "Workload",
    "BUILDERS",
    "WORKLOAD_NAMES",
    "build",
    "suite",
    "build_bwaves",
    "build_cactubssn",
    "build_deepsjeng",
    "build_exchange2",
    "build_fotonik3d",
    "build_gcc",
    "build_lbm",
    "build_leela",
    "build_mcf",
    "build_nab",
    "build_omnetpp",
    "build_perlbench",
    "build_roms",
    "build_synth",
    "build_x264",
    "build_xz",
]
