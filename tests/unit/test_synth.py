"""The transient-state synthesizer: WI and MESI are authored as
stable-state specs only, so every transient row in their shipped
tables must be derivable -- and re-derivable, deterministically --
from :func:`repro.protospec.wi_stable` and
:func:`repro.protospec.mesi_stable`.  The structural tests below run
on MESI, the larger of the two."""

from __future__ import annotations

import pytest

from repro.protospec import get_spec, mesi_stable, synthesize, wi_stable
from repro.protospec.synth import FIFO_FAIRNESS, XFER_FAIRNESS


@pytest.fixture(scope="module")
def stable():
    return mesi_stable()


@pytest.fixture(scope="module")
def spec(stable):
    return synthesize(stable)


def test_synthesized_spec_validates(spec):
    spec.validate()


def test_synthesis_is_deterministic(stable):
    assert synthesize(stable).dumps() == synthesize(stable).dumps()


def test_shipped_mesi_is_the_synthesized_spec(spec):
    """get_spec('mesi') must be synthesize(mesi_stable()) -- the tree
    carries no hand-written MESI transients."""
    assert get_spec("mesi").dumps() == spec.dumps()


def test_shipped_wi_is_the_synthesized_spec():
    """get_spec('wi') must be synthesize(wi_stable()) -- the tree
    carries no hand-written WI table."""
    assert get_spec("wi").dumps() == synthesize(wi_stable()).dumps()


def test_mesi_stable_is_wi_stable_plus_clean_exclusive_deltas():
    """Every WI declaration is in MESI's stable spec unchanged, except
    the unowned-block READ_REQ serve that MESI grants as E; what MESI
    adds names E or EXCL_REPLY."""
    wi, mesi = wi_stable(), mesi_stable()
    for part in ("local_rules", "reactions"):
        ours, theirs = (getattr(wi.cache, part),
                        getattr(mesi.cache, part))
        assert theirs[:len(ours)] == ours
        assert all(d.state == "E" for d in theirs[len(ours):])
    for ours, theirs in zip(wi.cache.transactions,
                            mesi.cache.transactions, strict=True):
        added = theirs.completions[len(ours.completions):]
        assert theirs.completions[:len(ours.completions)] \
            == ours.completions
        assert [c.event for c in added] == (
            ["EXCL_REPLY"] if ours.transient == "IS_D" else [])
    changed = [(a, b) for a, b in zip(wi.home.serves, mesi.home.serves,
                                      strict=True) if a != b]
    assert [(a.state, a.request, b.actions) for a, b in changed] == [
        ("U", "READ_REQ", "send:EXCL_REPLY dir:=DIRTY")]
    assert (wi.home.forwards, wi.home.rules) == (mesi.home.forwards,
                                                 mesi.home.rules)
    assert set(wi.unused_messages) - set(mesi.unused_messages) == {
        u for u in wi.unused_messages if u[0] == "EXCL_REPLY"}


def test_transients_are_generated_not_authored(stable, spec):
    """Every transaction contributes its transient (and lost-copy
    shadow) as a non-stable state the author never wrote down."""
    authored = set(stable.cache.stable)
    synthesized = set(spec.cache.states)
    assert authored < synthesized
    for txn in stable.cache.transactions:
        assert txn.transient in synthesized
        assert txn.transient not in authored
        assert txn.transient not in spec.cache.stable
        if txn.lost_copy is not None:
            assert txn.lost_copy.shadow in synthesized
            assert txn.lost_copy.shadow not in spec.cache.stable


def test_every_transient_has_an_exit(spec):
    """No synthesized wait state is a trap: each has at least one row
    leading to a different state."""
    transients = set(spec.cache.states) - set(spec.cache.stable)
    for st in transients:
        exits = [r for r in spec.cache.rows
                 if r.state == st and r.next_state not in (None, st)]
        assert exits, f"transient {st} has no exit row"


def test_lost_copy_shadow_reached_by_invalidation(stable, spec):
    """A racing INV moves a copy-holding transient to its shadow."""
    inv = stable.cache.invalidation
    assert inv is not None
    rows = {(r.state, r.event): r for r in spec.cache.rows
            if r.when is None}
    for txn in stable.cache.transactions:
        if txn.lost_copy is None:
            continue
        row = rows[(txn.transient, inv)]
        assert row.next_state == txn.lost_copy.shadow
        assert f"send:{stable.cache.inv_ack}" in row.actions


def test_ownership_wait_states_nack_forwards(stable, spec):
    """A node the directory already records as exclusive owner may see
    a forward while its data is still in flight; the synthesizer must
    emit a NACK-retry row at the transient and its shadow so the home
    retries instead of deadlocking."""
    by_key = {}
    for r in spec.cache.rows:
        by_key.setdefault((r.state, r.event), []).append(r)
    checked = 0
    for txn in stable.cache.transactions:
        if txn.state == stable.cache.initial:
            continue
        if not any(c.next_state in stable.cache.owners
                   for c in txn.completions):
            continue
        waits = [txn.transient]
        if txn.lost_copy is not None:
            waits.append(txn.lost_copy.shadow)
        for st in waits:
            for fwd in stable.cache.forwards:
                rows = by_key.get((st, fwd))
                assert rows, f"no ({st}, {fwd}) row synthesized"
                row = rows[0]
                assert f"send:{stable.cache.nack}" in row.actions
                assert row.retry
                assert row.next_state == st
                assert row.fairness == XFER_FAIRNESS
                checked += 1
    assert checked, "mesi should exercise the ownership-wait closure"


def test_early_writeback_race_rows_carry_fifo_fairness(spec):
    """The early-writeback closure marks its retry rows with the FIFO
    fairness argument so the progress check accepts the cycle."""
    fifo_rows = [r for side in spec.sides for r in side.rows
                 if r.fairness == FIFO_FAIRNESS]
    assert fifo_rows, "synthesized spec lost its early-writeback rows"
    for row in fifo_rows:
        assert row.retry


def test_home_busy_states_are_synthesized(stable, spec):
    """Each home forward introduces its busy state; concurrent requests
    queue there (begin_txn), and the owner's NACK retries the stalled
    transaction from a non-busy state."""
    for hf in stable.home.forwards:
        assert hf.busy in spec.home.states
        assert hf.busy not in stable.home.stable
        queued = [r for r in spec.home.rows
                  if r.state == hf.busy and "begin_txn" in r.actions]
        assert queued, f"busy state {hf.busy} drops concurrent requests"
        retries = [r for r in spec.home.rows
                   if r.state == hf.busy and r.retry
                   and "retry_txn" in r.actions
                   and r.event == stable.home.nack]
        assert retries, f"busy state {hf.busy} never retries on NACK"
        for r in retries:
            assert r.next_state not in (hf.busy, None)
