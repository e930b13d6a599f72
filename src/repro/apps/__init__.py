"""Application kernels running on the simulated multiprocessor.

The paper studies constructs in isolation with synthetic drivers; these
kernels exercise the same constructs inside small but complete parallel
programs (the kind its introduction motivates: Splash-2-style codes),
with self-checking results.  They double as end-to-end integration
tests of the public API and as realistic inputs for protocol
comparisons.
"""

from repro.apps.stencil import JacobiStencil, run_jacobi
from repro.apps.histogram import Histogram, run_histogram
from repro.apps.workqueue import WorkQueue, run_workqueue

__all__ = [
    "JacobiStencil", "run_jacobi",
    "Histogram", "run_histogram",
    "WorkQueue", "run_workqueue",
]
