"""Update-message classification.

Implements the algorithm of Bianchini & Kontothanassis (paper section
3.2): every update message delivered to a sharer's cache opens a record
that is classified *at the end of the update's lifetime* -- when it is
overwritten by another update to the same word, when the block holding
it is replaced, or when the program ends.

Categories:

* **useful (true sharing)** -- the receiver references the updated word
  before it is overwritten;
* **false sharing** -- not referenced before overwrite, but the receiver
  actively references *other* words of the block during the update's
  lifetime;
* **proliferation** -- not referenced before overwrite, with no
  concurrent activity on the block (successive useless updates to the
  same word are proliferation, not false sharing -- the paper's
  refinement);
* **replacement** -- the word is unreferenced until the block leaves the
  receiver's cache;
* **termination** -- a proliferation update still live at program end;
* **drop** -- the update whose arrival pushes the competitive-update
  counter to its threshold and invalidates the block.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple


class UpdateClass(enum.Enum):
    USEFUL = "useful"
    FALSE_SHARING = "false"
    PROLIFERATION = "proliferation"
    REPLACEMENT = "replacement"
    TERMINATION = "termination"
    DROP = "drop"

    @property
    def useful(self) -> bool:
        return self is UpdateClass.USEFUL


# counter slots, one per UpdateClass member in definition order
(_USEFUL, _FALSE_SHARING, _PROLIFERATION, _REPLACEMENT, _TERMINATION,
 _DROP) = range(len(UpdateClass))


class UpdateClassifier:
    """Online classifier; one instance per simulated machine.

    The counts live in a list indexed by class, so counting hashes no
    enum member.  An open update's record is a ``[referenced,
    other_ref]`` pair: whether the receiver referenced the updated
    word, and whether it referenced another word of the block, during
    the update's lifetime.
    """

    def __init__(self) -> None:
        self._counts = [0] * len(UpdateClass)
        #: (node, block) -> {word -> open [referenced, other_ref]}
        self._open: Dict[Tuple[int, int], Dict[int, List[bool]]] = {}
        #: update messages delivered to nodes that no longer cache the
        #: block (race with a drop/flush) -- pure waste
        self.stale_deliveries = 0

    @property
    def counts(self) -> Dict[UpdateClass, int]:
        """Updates per class (a fresh dict)."""
        return dict(zip(UpdateClass, self._counts))

    # ------------------------------------------------------------------
    # feed
    # ------------------------------------------------------------------

    def record_update(self, node: int, block: int, word: int) -> None:
        """An update message was applied to ``node``'s cached copy."""
        recs = self._open.get((node, block))
        if recs is None:
            self._open[node, block] = {word: [False, False]}
            return
        rec = recs.get(word)
        if rec is None:
            recs[word] = [False, False]
            return
        # the update overwrites an open one: close it, and reuse its
        # record for the new one
        self._counts[_USEFUL if rec[0] else
                     _FALSE_SHARING if rec[1] else _PROLIFERATION] += 1
        rec[0] = rec[1] = False

    def record_drop_update(self, node: int, block: int, word: int) -> None:
        """The update that triggered a CU self-invalidation at ``node``.

        The triggering message itself is a *drop* update; all still-open
        records for the block end their lifetimes with the invalidation.
        """
        self._counts[_DROP] += 1
        self.record_block_gone(node, block)

    def record_stale_update(self, node: int, block: int) -> None:
        """Update delivered to a node that no longer caches the block."""
        self.stale_deliveries += 1
        self._counts[_PROLIFERATION] += 1

    def record_reference(self, node: int, block: int, word: int) -> None:
        """A local reference by ``node`` to ``word`` of ``block``."""
        recs = self._open.get((node, block))
        if not recs:
            return
        for w, rec in recs.items():
            if w == word:
                rec[0] = True
            else:
                rec[1] = True

    def record_block_gone(self, node: int, block: int) -> None:
        """``block`` left ``node``'s cache (replacement / flush / inval).

        Still-open records close: referenced ones were useful; the rest
        are replacement updates.
        """
        recs = self._open.pop((node, block), None)
        if not recs:
            return
        counts = self._counts
        for referenced, _ in recs.values():
            counts[_USEFUL if referenced else _REPLACEMENT] += 1

    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """End of program: close every open record."""
        counts = self._counts
        for recs in self._open.values():
            for referenced, _ in recs.values():
                counts[_USEFUL if referenced else _TERMINATION] += 1
        self._open.clear()

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot_state(self):
        return (self._counts[:], self.stale_deliveries,
                {key: {w: tuple(rec) for w, rec in recs.items()}
                 for key, recs in self._open.items()})

    def restore_state(self, snap) -> None:
        counts, stale_deliveries, open_recs = snap
        self._counts = list(counts)
        self.stale_deliveries = stale_deliveries
        self._open = {key: {w: list(rec) for w, rec in recs.items()}
                      for key, recs in open_recs.items()}

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @property
    def total_updates(self) -> int:
        return sum(self._counts)

    def useful_updates(self) -> int:
        return self._counts[_USEFUL]

    def useless_updates(self) -> int:
        return self.total_updates - self.useful_updates()

    def as_dict(self) -> Dict[str, int]:
        out = {c.value: n for c, n in zip(UpdateClass, self._counts)}
        out["total"] = self.total_updates
        return out
