"""The baseline the paper compares against.

:class:`StaticParallel` is the equivalent static-parallel design (the
paper's primary comparison): identical datapath, static partitioning,
barriers, no task hardware. The software task runtime of the motivation
comparison is a configuration of the Delta engine, so it lives in
:mod:`repro.core.software`.

The baseline runs on the shared :mod:`repro.machine` datapath; nothing
in this package constructs hardware components or reaches into
:mod:`repro.core.delta` internals.
"""

from repro.baseline.static import StaticParallel

__all__ = ["StaticParallel"]
