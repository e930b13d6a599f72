"""Discrete-event simulation kernel (subsystem S1)."""

from repro.engine.simulator import (
    ControlledSimulator, DeadlockError, SimulationError, Simulator,
    StuckThread,
)

__all__ = [
    "Simulator",
    "ControlledSimulator",
    "SimulationError",
    "DeadlockError",
    "StuckThread",
]
