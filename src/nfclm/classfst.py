"""Per-class probabilistic FSTs built as relative-frequency tries.

Each class automaton is a deterministic acyclic trie over the class's
entities.  Arc weights are probabilities (outgoing arcs plus the state's
exit probability sum to 1), the start state never exits, and there are no
arcs back to the start: re-entry into a class is decided by the class
emission model, not by the automaton.

An automaton keeps its states and arcs in flat ``array`` columns, as
OpenFst's ``ConstFst`` does, so it holds no object per state or arc;
``arcs[state]`` is a read-only mapping view over one state's arcs.

Automata are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from itertools import islice, repeat
from operator import eq
from typing import Optional

from .serialization import U32, ByteReader, ByteWriter, SerializationError, record
from .vocab import Vocabulary, read_lines

MAGIC = b"PCFST\x00"
VERSION = 1
# a state's (exit probability, arc count); an arc's (probability, destination)
PROB_ID = record("dI")
# how far a state's exit plus arc probabilities may stray from 1
MASS_TOLERANCE = 1e-9
# typecode of the state offsets, arc symbol ids and destinations: a u32, as stored
ID = "I"

Entity = tuple[tuple[str, ...], float]


class ArcView(Mapping):
    """Read-only ``{symbol: (probability, destination)}`` over one state's arcs.

    It compares equal to the dict it stands for and iterates in symbol
    order; a lookup bisects the state's run of the symbol-id column.
    ``columns`` is ``(symbol ids, arc symbol ids, probabilities,
    destinations, symbols)``, shared by every view of one automaton.
    """

    __slots__ = ("_columns", "_lo", "_hi")

    def __init__(self, columns: tuple, lo: int, hi: int):
        self._columns = columns
        self._lo = lo
        self._hi = hi

    def get(self, symbol, default=None):
        ids, arc_ids, probs, dests, _ = self._columns
        sid = ids.get(symbol)
        if sid is not None:
            hi = self._hi
            i = bisect_left(arc_ids, sid, self._lo, hi)
            if i < hi and arc_ids[i] == sid:
                return probs[i], dests[i]
        return default

    def __getitem__(self, symbol):
        hit = self.get(symbol)
        if hit is None:
            raise KeyError(symbol)
        return hit

    def __contains__(self, symbol) -> bool:
        return self.get(symbol) is not None

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self):
        _, arc_ids, _, _, symbols = self._columns
        return map(symbols.__getitem__, arc_ids[self._lo:self._hi])

    def values(self) -> list[tuple[float, int]]:
        _, _, probs, dests, _ = self._columns
        return list(zip(probs[self._lo:self._hi], dests[self._lo:self._hi]))

    def items(self) -> list[tuple[str, tuple[float, int]]]:
        return list(zip(self, self.values()))

    def __repr__(self) -> str:
        return f"ArcView({dict(self.items())!r})"


class ArcTable(Sequence):
    """``ProbClassFst.arcs``: the ``ArcView`` of each state, made on access.

    State ``s`` owns the arcs ``offsets[s]:offsets[s + 1]``.  The table
    compares equal to a list of the dicts it stands for.
    """

    __slots__ = ("_columns", "_offsets")

    def __init__(self, columns: tuple, offsets: array):
        self._columns = columns
        self._offsets = offsets

    def __getitem__(self, state: int) -> ArcView:
        if state < 0:
            raise IndexError(f"state id {state} is negative")
        offsets = self._offsets
        return ArcView(self._columns, offsets[state], offsets[state + 1])

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __iter__(self):
        offsets = self._offsets
        return map(ArcView, repeat(self._columns), offsets, islice(offsets, 1, None))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class ProbClassFst:
    """Deterministic acyclic stochastic automaton for one class.

    States are dense ids with start = 0.  ``arcs[s]`` maps a symbol to
    ``(probability, destination)``; ``exits[s]`` is the probability of
    leaving the class at state ``s``.

    The constructor takes the dict form: ``arcs`` is one
    ``{symbol: (probability, destination)}`` per state.  It is stored as
    columns: ``symbols``, the sorted table of arc symbols; per state an
    offset into the arc columns and ``exits``; per arc, sorted by symbol
    within its state, a symbol id into ``symbols``, a probability and a
    destination.  ``validate`` checks the result; the constructor does not.
    """

    start = 0

    def __init__(self, label: str, arcs: Sequence[Mapping[str, tuple[float, int]]],
                 exits: Iterable[float], entity_count: int = 0, total_weight: float = 0.0):
        first_seen: dict[str, int] = {}
        offsets = array(ID, [0])
        arc_ids, probs, dests = array(ID), array("d"), array(ID)
        for out in arcs:
            for symbol, (prob, dest) in out.items():
                arc_ids.append(first_seen.setdefault(symbol, len(first_seen)))
                probs.append(prob)
                dests.append(dest)
            offsets.append(len(arc_ids))
        self._adopt(label, list(first_seen), offsets, array("d", exits),
                    arc_ids, probs, dests, entity_count, total_weight)

    def _adopt(self, label: str, names: list[str], offsets: array, exits: array,
               arc_ids: array, probs: array, dests: array,
               entity_count: int, total_weight: float) -> None:
        """Store columns whose arc ids index ``names`` in any order.

        The ids are renumbered into the sorted symbol table and each
        state's arcs sorted by them, which is what ``ArcView`` bisects.
        """
        order = sorted(range(len(names)), key=names.__getitem__)
        rank = [0] * len(order)
        for new, old in enumerate(order):
            rank[old] = new
        arc_ids = array(ID, map(rank.__getitem__, arc_ids))
        for lo, hi in zip(offsets, islice(offsets, 1, None)):
            if hi - lo > 1:
                by_symbol = sorted(range(lo, hi), key=arc_ids.__getitem__)
                if by_symbol != list(range(lo, hi)):
                    for column in (arc_ids, probs, dests):
                        column[lo:hi] = array(column.typecode,
                                              map(column.__getitem__, by_symbol))
        self.label = label
        self.entity_count = entity_count
        self.total_weight = total_weight
        self.symbols = tuple(names[old] for old in order)
        self.exits = exits
        self._offsets, self._probs, self._dests = offsets, probs, dests
        ids = {symbol: i for i, symbol in enumerate(self.symbols)}
        self.arcs = ArcTable((ids, arc_ids, probs, dests, self.symbols), offsets)

    @property
    def num_states(self) -> int:
        return len(self.exits)

    def _check_state(self, state: int) -> None:
        if not 0 <= state < len(self.exits):
            raise KeyError(f"{self.label}: unknown state id {state}")

    def step(self, state: int, symbol: str) -> Optional[int]:
        """Destination of the unique arc for ``symbol``, or None if absent."""
        self._check_state(state)
        hit = self.arcs[state].get(symbol)
        return None if hit is None else hit[1]

    def arc_prob(self, state: int, symbol: str) -> float:
        """Probability of the matching arc; 0 when there is none."""
        self._check_state(state)
        hit = self.arcs[state].get(symbol)
        return 0.0 if hit is None else hit[0]

    def exit_prob(self, state: int) -> float:
        self._check_state(state)
        return self.exits[state]

    def walk(self, symbols: Sequence[str]) -> Optional[int]:
        """Follow ``symbols`` from the start state; None on a miss."""
        current = self.start
        for sym in symbols:
            nxt = self.step(current, sym)
            if nxt is None:
                return None
            current = nxt
        return current

    def validate(self) -> None:
        """Raise ValueError on any violated structural invariant.

        A table that fails the fast check of ``_sound`` is checked again
        one state and one arc at a time, which names its first fault.
        """
        if not self.exits or len(self._offsets) != len(self.exits) + 1:
            raise ValueError(f"{self.label}: inconsistent state tables")
        if self.exits[self.start] != 0.0:
            raise ValueError(f"{self.label}: start state has nonzero exit probability")
        if not self._sound():
            self._name_fault()

    def _sound(self) -> bool:
        """Whether every state passes the checks of ``_name_fault``.

        A state with one arc is checked by hand, one with more by fsum,
        min and max over its run of the columns.  Each test fails on NaN:
        a NaN arc probability makes the state's mass NaN.
        """
        num_states = len(self.exits)
        probs, dests = self._probs, self._dests
        fsum = math.fsum
        lo = 0
        for state, (hi, exit_p) in enumerate(zip(islice(self._offsets, 1, None), self.exits)):
            if hi == lo:
                if not (0.0 <= exit_p <= 1.0 and abs(exit_p - 1.0) <= MASS_TOLERANCE):
                    return False
            elif hi - lo == 1:
                prob, dest = probs[lo], dests[lo]
                # the fsum of one term is that term
                if not (0.0 <= exit_p < 1.0 and abs(prob + exit_p - 1.0) <= MASS_TOLERANCE
                        and 0.0 < prob <= 1.0 and state < dest < num_states):
                    return False
            else:
                run, to = probs[lo:hi], dests[lo:hi]
                try:
                    total = fsum(run) + exit_p
                except (ValueError, OverflowError):
                    return False
                if not (0.0 <= exit_p < 1.0 and abs(total - 1.0) <= MASS_TOLERANCE
                        and min(run) > 0.0 and max(run) <= 1.0
                        and min(to) > state and max(to) < num_states):
                    return False
            lo = hi
        # every destination lies in 1..num_states - 1: all are reached when
        # the start state and the destinations cover every state
        return len(set(dests)) == num_states - 1

    def _name_fault(self) -> None:
        """Check a state and an arc at a time; raise on the first fault."""
        reachable = {self.start}
        for state, out in enumerate(self.arcs):
            exit_p = self.exits[state]
            if not 0.0 <= exit_p <= 1.0:
                raise ValueError(f"{self.label}: exit probability out of range at state {state}")
            if exit_p == 1.0 and out:
                raise ValueError(f"{self.label}: arcs leave full-exit state {state}")
            probs = [p for p, _ in out.values()]
            try:
                total = math.fsum(probs) + exit_p
            except OverflowError:  # the exact sum overflows: so does the plain one
                total = sum(probs) + exit_p
            if abs(total - 1.0) > MASS_TOLERANCE:
                raise ValueError(
                    f"{self.label}: state {state} mass {total!r} is not stochastic"
                )
            for symbol, (prob, dest) in out.items():
                if not 0.0 < prob <= 1.0:
                    raise ValueError(
                        f"{self.label}: arc {state}-{symbol} probability {prob!r} out of range"
                    )
                if dest <= state or dest >= len(self.arcs):
                    # Topological ids make cycles and start loop-backs impossible.
                    raise ValueError(
                        f"{self.label}: arc {state}-{symbol} breaks topological order"
                    )
                reachable.add(dest)
        if len(reachable) != len(self.arcs):
            raise ValueError(f"{self.label}: unreachable states present")

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.raw(MAGIC)
        w.u16(VERSION)
        w.string(self.label)
        w.u64(self.entity_count)
        w.f64(self.total_weight)
        w.u32(len(self.exits))
        for state, out in enumerate(self.arcs):
            w.f64(self.exits[state])
            w.u32(len(out))
            for symbol, (prob, dest) in out.items():
                w.string(symbol)
                w.f64(prob)
                w.u32(dest)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "ProbClassFst":
        r = ByteReader(data)
        r.expect_magic(MAGIC, "class FST")
        r.expect_version(VERSION, "class FST")
        label = r.string()
        entity_count = r.u64()
        total_weight = r.f64()
        num_states = r.u32()
        columns = _read_states(r, data, num_states)
        r.done()
        fst = cls.__new__(cls)
        fst._adopt(label, *columns, entity_count, total_weight)
        try:
            fst.validate()
        except ValueError as exc:
            raise SerializationError(f"invariant violation: {exc}", len(data)) from exc
        return fst

    def text_dump(self) -> str:
        """Human-readable rendering: one arc or EXIT line per row."""
        lines = []
        for state, out in enumerate(self.arcs):
            for symbol, (prob, dest) in out.items():
                lines.append(f"{state} {symbol} {prob:.17g} {dest}")
            if self.exits[state] > 0.0:
                lines.append(f"{state} EXIT {self.exits[state]:.17g}")
        return "\n".join(lines) + "\n"


def _read_states(r: ByteReader, data: bytes, num_states: int) -> tuple:
    """Decode ``num_states`` states from ``r.offset`` straight into columns.

    Returns ``(names, offsets, exits, arc ids, probabilities,
    destinations)``, the arc ids numbering symbols in order of first
    appearance.  Fields are unpacked without bounds checks; a state that
    fails (cut short, bad UTF-8 or a repeated symbol) is read again a
    field at a time, which raises the error and offset of its first fault.
    """
    names: list[str] = []
    first_seen: dict[bytes, int] = {}
    offsets, exits = array(ID, [0]), array("d")
    arc_ids, probs, dests = array(ID), array("d"), array(ID)
    unpack_record, unpack_length = PROB_ID.unpack_from, U32.unpack_from
    record_size, length_size = PROB_ID.size, U32.size
    add_id, add_prob, add_dest = arc_ids.append, probs.append, dests.append
    pos = r.offset
    for state in range(num_states):
        start = pos
        try:
            exit_p, n_arcs = unpack_record(data, pos)
            pos += record_size
            for _ in range(n_arcs):
                (length,) = unpack_length(data, pos)
                end = pos + length_size + length
                raw = data[pos + length_size:end]
                sid = first_seen.get(raw)
                if sid is None:
                    names.append(raw.decode("utf-8"))
                    sid = first_seen[raw] = len(first_seen)
                prob, dest = unpack_record(data, end)
                pos = end + record_size
                add_id(sid)
                add_prob(prob)
                add_dest(dest)
        except (struct.error, UnicodeDecodeError):
            _reread_state(r, start, state)
        if n_arcs > 1 and len(set(arc_ids[-n_arcs:])) < n_arcs:
            _reread_state(r, start, state)
        exits.append(exit_p)
        offsets.append(len(arc_ids))
    r.offset = pos
    return names, offsets, exits, arc_ids, probs, dests


def _reread_state(r: ByteReader, at: int, state: int) -> None:
    """Read the state at ``at`` a field at a time; raise its first fault."""
    r.offset = at
    n_arcs = r.record(PROB_ID)[1]
    seen = set()
    for _ in range(n_arcs):
        arc_at = r.offset
        symbol = r.string()
        r.record(PROB_ID)
        if symbol in seen:
            raise SerializationError(
                f"duplicate arc symbol {symbol!r} at state {state}", arc_at)
        seen.add(symbol)
    raise AssertionError(f"state {state} at byte offset {at} failed to decode, "
                         "but reads whole a field at a time")


class _TrieNode:
    __slots__ = ("children", "weight", "end_weight")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.weight = 0.0
        self.end_weight = 0.0


def build_from_entities(label: str, entities: Iterable) -> ProbClassFst:
    """Build the class automaton from tokenized entities.

    ``entities`` yields symbol sequences or ``(symbols, count)`` pairs;
    counts default to 1 and duplicates accumulate.  Arc and exit
    probabilities are relative frequencies, so every state is stochastic
    by construction.
    """
    normalized: list[Entity] = []
    for item in entities:
        if isinstance(item, tuple) and len(item) == 2 and not isinstance(item[0], str):
            symbols, count = item
        else:
            symbols, count = item, 1.0
        symbols = tuple(symbols)
        count = float(count)
        if not symbols:
            raise ValueError(f"{label}: empty entity")
        if not 0 < count < math.inf:
            raise ValueError(f"{label}: non-positive or non-finite entity count {count!r}")
        normalized.append((symbols, count))
    if not normalized:
        raise ValueError(f"{label}: empty entity list")

    root = _TrieNode()
    for symbols, count in normalized:
        node = root
        node.weight += count
        for sym in symbols:
            node = node.children.setdefault(sym, _TrieNode())
            node.weight += count
        node.end_weight += count

    # Preorder ids over lexicographically sorted arcs: builds from permuted
    # entity lists serialize identically.
    arcs: list[dict[str, tuple[float, int]]] = []
    exits: list[float] = []

    def assign(node: _TrieNode) -> int:
        state = len(arcs)
        arcs.append({})
        exits.append(node.end_weight / node.weight)
        for sym in sorted(node.children):
            child = node.children[sym]
            dest = assign(child)
            arcs[state][sym] = (child.weight / node.weight, dest)
        return state

    assign(root)
    fst = ProbClassFst(
        label=label,
        arcs=arcs,
        exits=exits,
        entity_count=len(normalized),
        total_weight=root.weight,
    )
    fst.validate()
    return fst


def load_entities(source, vocabulary: Optional[Vocabulary] = None) -> list[Entity]:
    """Read an entity list: space-separated symbols and an optional TAB count per line.

    ``source`` is read by :func:`nfclm.vocab.read_lines`; blank lines are
    skipped.  With a ``vocabulary``, every entity symbol must belong to it.
    """
    name, lines = read_lines(source, "<entities>")
    entities = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        body, sep, count_text = line.partition("\t")
        symbols = tuple(body.split())
        if not symbols:
            raise ValueError(f"{name}:{i}: empty entity")
        for sym in symbols:
            if vocabulary is not None and sym not in vocabulary:
                raise ValueError(f"{name}:{i}: entity symbol {sym!r} is outside the vocabulary")
        count = 1.0
        if sep:
            try:
                count = float(count_text)
            except ValueError:
                raise ValueError(f"{name}:{i}: bad count {count_text!r}") from None
            if not math.isfinite(count):
                raise ValueError(f"{name}:{i}: bad count {count_text!r}")
            if count <= 0:
                raise ValueError(f"{name}:{i}: non-positive count {count_text!r}")
        entities.append((symbols, count))
    if not entities:
        raise ValueError(f"{name}: no entities")
    return entities
