"""repro: reproduction of Bianchini, Carrera & Kontothanassis,
"The Interaction of Parallel Programming Constructs and Coherence
Protocols" (PPoPP 1997).

An execution-driven simulator of a DASH-like directly-connected
multiprocessor supporting write-invalidate (WI), pure-update (PU) and
competitive-update (CU) coherence protocols, together with the paper's
synchronization algorithms (ticket / MCS / update-conscious MCS locks;
centralized / dissemination / tree barriers; parallel / sequential
reductions), communication-traffic classification, and the experiment
harness regenerating every figure of the paper's evaluation.
"""

from repro.config import (
    ALL_PROTOCOLS, DEFAULT_BENCH_SCALE, MachineConfig, PAPER_MACHINE_SIZES,
    Protocol, ExperimentScale,
)
from repro.runtime import Machine, MemoryMap, Processor, RunResult
from repro.isa import (
    CompareSwap, Compute, Fence, FetchAdd, FetchStore, Flush, FlushCache,
    Fork, Join, Read, SpinUntil, Write, fetch_and_decrement,
)
from repro.classify import (
    MissClass, MissClassifier, UpdateClass, UpdateClassifier,
)
from repro.engine import Simulator, DeadlockError

__version__ = "1.0.0"

__all__ = [
    "ALL_PROTOCOLS", "DEFAULT_BENCH_SCALE", "MachineConfig",
    "PAPER_MACHINE_SIZES", "Protocol", "ExperimentScale",
    "Machine", "MemoryMap", "Processor", "RunResult",
    "CompareSwap", "Compute", "Fence", "FetchAdd", "FetchStore", "Flush",
    "FlushCache", "Fork", "Join", "Read", "SpinUntil", "Write",
    "fetch_and_decrement",
    "MissClass", "MissClassifier", "UpdateClass", "UpdateClassifier",
    "Simulator", "DeadlockError",
    "__version__",
]
