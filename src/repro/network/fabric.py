"""The network fabric: wormhole latency model with endpoint contention.

Latency model (paper section 3.1):

* the network clock equals the processor clock;
* each switch on the route adds a 2-cycle delay to the message header;
* the datapath is 16 bits wide, so a message of ``size`` bytes serializes
  in ``ceil(size / 2)`` cycles;
* contention is modeled only at the source and destination of messages,
  as FIFO occupancy of the sending and receiving network interfaces.

A message therefore departs when the source NIC is free, occupies it for
its serialization time, propagates for ``2 * hops`` cycles, and is
delivered once the destination NIC has streamed it in (again its
serialization time, starting no earlier than both the head's arrival and
the NIC becoming free).

Node-local transactions (a processor talking to its own home memory) do
not traverse the network; they are delivered after a small fixed
``local_hop_cycles`` delay.

Performance notes: :meth:`Network.post` runs once per message and the
simulator creates millions of them, so the path is flat:

* each message is built once, by one positional
  :class:`~repro.network.messages.Message` call, and never written
  again (snapshots and the model checker share messages by reference);
* everything derivable from the config alone -- per-type sizes and flit
  counts, the all-pairs hop table -- is precomputed at construction;
* only three traffic counters are touched per message
  (``_type_counts``, ``_pair_counts``, ``_n_contention``); totals,
  byte counts and per-node send/receive counts are *derived* from them
  by the ``stats`` property (sizes are a pure function of the type, and
  the pair matrix's row/column/diagonal sums are the per-node and local
  counts);
* the delivery event is appended straight into the simulator's
  calendar bucket, skipping the ``sim.at`` call; the model checker's
  :class:`~repro.engine.ControlledSimulator` runs on the same queue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.config import MachineConfig
from repro.engine import Simulator
from repro.engine.simulator import _BIT, _MASK
from repro.network.messages import MSG_TYPES, Message, MsgType
from repro.network.topology import MeshTopology


@dataclass
class NetworkStats:
    """Aggregate traffic statistics (an end-of-run / on-demand snapshot;
    the live accumulation lives on :class:`Network` as flat counters)."""

    messages: int = 0
    bytes: int = 0
    local_messages: int = 0
    by_type: Dict[MsgType, int] = field(default_factory=dict)
    bytes_by_type: Dict[MsgType, int] = field(default_factory=dict)
    #: (src, dst) -> message count (the traffic matrix)
    by_pair: Dict[tuple, int] = field(default_factory=dict)
    #: per-node sent / received message counts
    sent_by_node: Dict[int, int] = field(default_factory=dict)
    recv_by_node: Dict[int, int] = field(default_factory=dict)
    #: total cycles messages spent queued behind busy endpoint NICs
    contention_cycles: int = 0

    def count(self, msg: Message, queued: int, local: bool) -> None:
        self.messages += 1
        self.bytes += msg.size
        if local:
            self.local_messages += 1
        self.by_type[msg.mtype] = self.by_type.get(msg.mtype, 0) + 1
        self.bytes_by_type[msg.mtype] = (
            self.bytes_by_type.get(msg.mtype, 0) + msg.size)
        pair = (msg.src, msg.dst)
        self.by_pair[pair] = self.by_pair.get(pair, 0) + 1
        self.sent_by_node[msg.src] = self.sent_by_node.get(msg.src, 0) + 1
        self.recv_by_node[msg.dst] = self.recv_by_node.get(msg.dst, 0) + 1
        self.contention_cycles += queued


class Network:
    """Delivers messages between node controllers.

    Each node registers a single handler; protocol controllers multiplex
    on :class:`~repro.network.messages.MsgType`.
    """

    def __init__(self, sim: Simulator, config: MachineConfig) -> None:
        self.sim = sim
        self.config = config
        self.topology = MeshTopology(config.num_procs)
        P = config.num_procs
        self._handlers: List[Optional[Callable[[Message], None]]] = (
            [None] * P)
        # optional per-node dispatch tables (MsgType.index -> bound
        # handler); when present, post() schedules the delivery straight
        # into the protocol handler instead of routing through _deliver
        self._dispatch: List[Optional[List[
            Optional[Callable[[Message], None]]]]] = [None] * P
        # busy-until times of each node's egress / ingress NIC
        self._src_free = [0] * P
        self._dst_free = [0] * P
        self._jitter_rng = (random.Random(config.network_jitter_seed)
                            if config.network_jitter_cycles else None)
        # --- precomputed per-message-send tables -----------------------
        #: all-pairs hop counts, indexed [src][dst] (the topology owns
        #: the table; bound here to skip a method call per message)
        self._hops = self.topology._hops
        #: bytes / flits on the wire, indexed by ``MsgType.index``
        self._size_table = [self.size_of_type(mt) for mt in MSG_TYPES]
        self._flits_table = [self.flits_of(sz) for sz in self._size_table]
        #: config scalars hoisted out of the per-message path
        self._num_nodes = P
        self._local_hop = config.local_hop_cycles
        self._switch_delay = config.switch_delay_cycles
        self._jitter_cycles = config.network_jitter_cycles
        # --- traffic accumulators (three live counters; everything
        # --- else is derived by the ``stats`` property) ----------------
        self._type_counts = [0] * len(MSG_TYPES)
        self._pair_counts = [0] * (P * P)
        self._n_contention = 0

    def register(self, node: int, handler: Callable[[Message], None],
                 dispatch: Optional[List[
                     Optional[Callable[[Message], None]]]] = None) -> None:
        """Register ``handler`` as node ``node``'s receive entry point.

        ``dispatch``, when given, is a live ``MsgType.index``-indexed
        list of bound handlers: deliveries of listed types bypass
        ``handler`` entirely (one scheduled callback, zero dispatch
        work at delivery time).  Types with a ``None`` slot still fall
        back to ``handler``, which owns the unhandled-message error
        path.  Callers that need to observe every delivery (the model
        checker) simply register without a table.
        """
        if self._handlers[node] is not None:
            raise ValueError(f"node {node} already has a handler")
        self._handlers[node] = handler
        self._dispatch[node] = dispatch

    # ------------------------------------------------------------------

    def size_of_type(self, mtype: MsgType) -> int:
        cfg = self.config
        if mtype.is_data:
            return cfg.data_msg_bytes
        if mtype.is_word:
            return cfg.word_msg_bytes
        return cfg.ctrl_msg_bytes

    def size_of(self, msg: Message) -> int:
        return self._size_table[msg.mtype.index]

    def flits_of(self, size_bytes: int) -> int:
        fb = self.config.flit_bytes
        return (size_bytes + fb - 1) // fb

    def latency(self, src: int, dst: int, size_bytes: int) -> int:
        """Contention-free latency of a message (for analysis/tests)."""
        if src == dst:
            return self.config.local_hop_cycles
        hops = self.topology.hops(src, dst)
        return (self.config.switch_delay_cycles * hops
                + 2 * self.flits_of(size_bytes))

    # ------------------------------------------------------------------

    @property
    def stats(self) -> NetworkStats:
        """The traffic statistics, materialized as a snapshot.

        Totals, byte counts and per-node counts are derived from the
        per-type and per-pair counters: a message's size is a pure
        function of its type, and the pair matrix's row sums / column
        sums / diagonal are exactly the sent / received / local counts.
        Dict shapes match the historical accumulation: only observed
        types / pairs / nodes appear as keys.
        """
        P = self._num_nodes
        pair_counts = self._pair_counts
        type_counts = self._type_counts
        sizes = self._size_table
        sent = [0] * P
        recv = [0] * P
        local = 0
        for i, n in enumerate(pair_counts):
            if n:
                src, dst = divmod(i, P)
                sent[src] += n
                recv[dst] += n
                if src == dst:
                    local += n
        return NetworkStats(
            messages=sum(type_counts),
            bytes=sum(n * sz for n, sz in zip(type_counts, sizes)),
            local_messages=local,
            by_type={mt: n for mt, n in zip(MSG_TYPES, type_counts)
                     if n},
            bytes_by_type={mt: n * sz for mt, n, sz
                           in zip(MSG_TYPES, type_counts, sizes) if n},
            by_pair={divmod(i, P): n
                     for i, n in enumerate(pair_counts) if n},
            sent_by_node={node: n for node, n in enumerate(sent) if n},
            recv_by_node={node: n for node, n in enumerate(recv) if n},
            contention_cycles=self._n_contention,
        )

    # ------------------------------------------------------------------

    def post(self, mtype: MsgType, src: int, dst: int, block: int,
             requester: int = -1, word: Optional[int] = None,
             value=None, data: Optional[dict] = None, nacks: int = 0,
             seq: int = -1, op: Optional[str] = None, operand=None,
             result=None, retain: bool = False,
             write_id: Optional[int] = None,
             mask: Optional[int] = None) -> None:
        """Build a message and inject it: the one send path, which
        protocol controllers and :meth:`send` both take."""
        ti = mtype.index
        msg = Message(mtype, src, dst, block, self._size_table[ti],
                      requester, word, value, data, nacks, seq, op,
                      operand, result, retain, write_id, mask)

        sim = self.sim
        now = sim.now
        flits = self._flits_table[ti]

        depart = self._src_free[src]
        if depart < now:
            depart = now
        self._src_free[src] = depart + flits

        if src == dst:
            # node-local transaction: no mesh traversal, but the message
            # still serializes through the node's NIC/bus, so a burst of
            # outgoing messages (e.g. an update fan-out) delays it
            deliver = depart + flits + self._local_hop
            queued = depart - now
        else:
            head_arrival = (depart + flits
                            + self._switch_delay * self._hops[src][dst])
            if self._jitter_rng is not None:
                head_arrival += self._jitter_rng.randint(
                    0, self._jitter_cycles)
            # dst-side queuing is computed against the NIC's busy-until
            # time *before* this message occupies it
            dst_free = self._dst_free[dst]
            deliver = (dst_free if dst_free > head_arrival
                       else head_arrival) + flits
            self._dst_free[dst] = deliver
            queued = depart - now + (dst_free - head_arrival
                                     if head_arrival < dst_free else 0)

        self._type_counts[ti] += 1
        self._pair_counts[src * self._num_nodes + dst] += 1
        self._n_contention += queued

        target = None
        dtable = self._dispatch[dst]
        if dtable is not None:
            target = dtable[ti]
        if target is None:
            target = self._deliver
        if deliver < sim._horizon:
            # inline Simulator.at: append into the calendar bucket
            i = deliver & _MASK
            b = sim._ring[i]
            if not b:
                sim._occ |= _BIT[i]
            b.append(target)
            b.append((msg,))
        else:
            sim.at(deliver, target, msg)

    def send(self, msg: Message) -> None:
        """Inject a caller-built ``msg`` (tests / ad-hoc traffic): the
        fabric posts its payload fields, so the destination handler
        receives a copy built by :meth:`post`."""
        self.post(msg.mtype, msg.src, msg.dst, msg.block, msg.requester,
                  msg.word, msg.value, msg.data, msg.nacks, msg.seq,
                  msg.op, msg.operand, msg.result, msg.retain,
                  msg.write_id, msg.mask)

    def _deliver(self, msg: Message) -> None:
        handler = self._handlers[msg.dst]
        if handler is None:
            raise RuntimeError(f"no handler registered for node {msg.dst}")
        handler(msg)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot_state(self):
        return (
            self._src_free[:], self._dst_free[:],
            self._jitter_rng.getstate() if self._jitter_rng else None,
            self._type_counts[:], self._pair_counts[:],
            self._n_contention,
        )

    def restore_state(self, snap) -> None:
        (src_free, dst_free, rng_state, type_counts, pair_counts,
         n_contention) = snap
        self._src_free[:] = src_free
        self._dst_free[:] = dst_free
        if rng_state is not None:
            self._jitter_rng.setstate(rng_state)
        self._type_counts[:] = type_counts
        self._pair_counts[:] = pair_counts
        self._n_contention = n_contention
