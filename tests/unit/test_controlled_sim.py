"""Unit tests for :class:`repro.engine.ControlledSimulator`: the
same-cycle choice-point hook the model checker drives."""

from __future__ import annotations

import pytest

from repro.engine import ControlledSimulator, SimulationError, Simulator


def _schedule_tie(sim, order):
    for name in ("a", "b", "c"):
        sim.at(5, order.append, name)
    sim.at(9, order.append, "late")


def test_none_chooser_matches_stock_order():
    stock, controlled = [], []
    sim = Simulator()
    _schedule_tie(sim, stock)
    sim.run()
    csim = ControlledSimulator()
    _schedule_tie(csim, controlled)
    csim.run()
    assert controlled == stock == ["a", "b", "c", "late"]


def test_chooser_permutes_same_cycle_ties():
    order: list = []
    sim = ControlledSimulator(chooser=lambda batch: len(batch) - 1)
    _schedule_tie(sim, order)
    sim.run()
    # always taking the last candidate reverses each tie batch
    assert order == ["c", "b", "a", "late"]


def test_choice_log_records_candidates_and_choice():
    sim = ControlledSimulator(chooser=lambda batch: 0)
    _schedule_tie(sim, [])
    sim.run()
    # singleton pops are choice-free and not logged as branch points
    assert sim.choice_log == [(3, 0), (2, 0)]


def test_chooser_sees_shrinking_batches():
    sizes: list = []

    def chooser(batch):
        sizes.append(len(batch))
        return 0

    sim = ControlledSimulator(chooser=chooser)
    _schedule_tie(sim, [])
    sim.run()
    assert sizes == [3, 2]


def test_out_of_range_choice_raises():
    sim = ControlledSimulator(chooser=lambda batch: len(batch))
    _schedule_tie(sim, [])
    with pytest.raises(SimulationError, match="chooser returned"):
        sim.run()


def test_step_consults_chooser():
    order: list = []
    sim = ControlledSimulator(chooser=lambda batch: 1)
    sim.at(1, order.append, "x")
    sim.at(1, order.append, "y")
    assert sim.step()
    assert order == ["y"]
    assert sim.step()
    assert order == ["y", "x"]
    assert not sim.step()


def test_pushed_back_batch_fires_ahead_of_later_arrivals():
    order: list = []
    sim = ControlledSimulator()
    _schedule_tie(sim, order)
    batch = sim.pop_ready_batch()
    assert [(when, pos, args) for when, pos, _fn, args in batch] == [
        (5, 0, ("a",)), (5, 1, ("b",)), (5, 2, ("c",))]
    sim.at(5, order.append, "new")
    sim.push_events(batch)
    sim.run()
    assert order == ["a", "b", "c", "new", "late"]
