"""Per-class probabilistic FSTs built as relative-frequency tries.

Each class automaton is a deterministic acyclic trie over the class's
entities.  Arc weights are probabilities (outgoing arcs plus the state's
exit probability sum to 1), the start state never exits, and there are no
arcs back to the start: re-entry into a class is decided by the class
emission model, not by the automaton.

Automata are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .serialization import ByteReader, ByteWriter, SerializationError, record
from .vocab import Vocabulary, read_lines

MAGIC = b"PCFST\x00"
VERSION = 1
# a state's (exit probability, arc count); an arc's (probability, destination)
PROB_ID = record("dI")
# how far a state's exit plus arc probabilities may stray from 1
MASS_TOLERANCE = 1e-9

Entity = tuple[tuple[str, ...], float]


@dataclass
class ProbClassFst:
    """Deterministic acyclic stochastic automaton for one class.

    States are dense ids with start = 0.  ``arcs[s]`` maps a symbol to
    ``(probability, destination)``; ``exits[s]`` is the probability of
    leaving the class at state ``s``.
    """

    label: str
    arcs: list[dict[str, tuple[float, int]]]
    exits: list[float]
    entity_count: int = 0
    total_weight: float = 0.0
    start: int = field(default=0, init=False)

    @property
    def num_states(self) -> int:
        return len(self.arcs)

    def _check_state(self, state: int) -> None:
        if not 0 <= state < len(self.arcs):
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
        if not self.arcs or len(self.arcs) != len(self.exits):
            raise ValueError(f"{self.label}: inconsistent state tables")
        if self.exits[self.start] != 0.0:
            raise ValueError(f"{self.label}: start state has nonzero exit probability")
        if not self._sound():
            self._name_fault()

    def _sound(self) -> bool:
        """Whether every state passes the checks of ``_name_fault``.

        A state with one arc is checked by hand, one with more by fsum,
        min and max over its arcs.  Each test fails on NaN: a NaN arc
        probability makes the state's mass NaN.
        """
        num_states = len(self.arcs)
        reachable = {self.start}
        fsum = math.fsum
        for state, (out, exit_p) in enumerate(zip(self.arcs, self.exits)):
            if not out:
                if not (0.0 <= exit_p <= 1.0 and abs(exit_p - 1.0) <= MASS_TOLERANCE):
                    return False
            elif len(out) == 1:
                ((prob, dest),) = out.values()
                # the fsum of one term is that term
                if not (0.0 <= exit_p < 1.0 and abs(prob + exit_p - 1.0) <= MASS_TOLERANCE
                        and 0.0 < prob <= 1.0 and state < dest < num_states):
                    return False
                reachable.add(dest)
            else:
                probs, dests = zip(*out.values())
                try:
                    total = fsum(probs) + exit_p
                except (ValueError, OverflowError):
                    return False
                if not (0.0 <= exit_p < 1.0 and abs(total - 1.0) <= MASS_TOLERANCE
                        and min(probs) > 0.0 and max(probs) <= 1.0
                        and min(dests) > state and max(dests) < num_states):
                    return False
                reachable.update(dests)
        return len(reachable) == num_states

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
        w.u32(len(self.arcs))
        for state in range(len(self.arcs)):
            w.f64(self.exits[state])
            w.u32(len(self.arcs[state]))
            for symbol, (prob, dest) in self.arcs[state].items():
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
        arcs: list[dict[str, tuple[float, int]]] = []
        exits: list[float] = []
        read_record, read_string = r.record, r.string
        for state in range(num_states):
            exit_p, n_arcs = read_record(PROB_ID)
            exits.append(exit_p)
            out: dict[str, tuple[float, int]] = {}
            for _ in range(n_arcs):
                at = r.offset
                symbol = read_string()
                prob_dest = read_record(PROB_ID)
                if symbol in out:
                    raise SerializationError(
                        f"duplicate arc symbol {symbol!r} at state {state}", at
                    )
                out[symbol] = prob_dest
            arcs.append(out)
        r.done()
        fst = cls(label=label, arcs=arcs, exits=exits,
                  entity_count=entity_count, total_weight=total_weight)
        try:
            fst.validate()
        except ValueError as exc:
            raise SerializationError(f"invariant violation: {exc}", len(data)) from exc
        return fst

    def text_dump(self) -> str:
        """Human-readable rendering: one arc or EXIT line per row."""
        lines = []
        for state in range(len(self.arcs)):
            for symbol, (prob, dest) in self.arcs[state].items():
                lines.append(f"{state} {symbol} {prob:.17g} {dest}")
            if self.exits[state] > 0.0:
                lines.append(f"{state} EXIT {self.exits[state]:.17g}")
        return "\n".join(lines) + "\n"


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
