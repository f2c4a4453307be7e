"""Per-class probabilistic FSTs: minimal automata of relative-frequency tries.

Each class automaton is deterministic and acyclic over the class's
entities.  ``build_from_entities`` builds the trie of their relative
frequencies and merges its equivalent states (acyclic minimization, as in
Revuz 1992 and Daciuk et al. 2000), so a suffix that many entities share
is stored once and every probability keeps the trie's bits.  Arc weights
are probabilities (outgoing arcs plus the state's exit probability sum to
1), the start state never exits, and there are no arcs back to the start:
re-entry into a class is decided by the class emission model, not by the
automaton.  States are numbered in topological order; any such automaton
loads, a trie as well as a minimal one.

An automaton is its states and arcs in flat ``array`` columns, as
OpenFst's ``ConstFst`` keeps them, so it holds no object per state or
arc, and every reader reads the columns themselves (see
``ProbClassFst``).  Its integer columns are held at the narrowest width
their values need, as binary format v3 stores them after a header and
the sorted symbol table; the decoder reads each one whole, a v2 file's
at its fixed width, and ``validate`` then checks them in one pass.

Automata are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable
from itertools import islice
from operator import le, lt
from typing import Optional

from .seqmodel import is_number
from .serialization import VERSION, ByteReader, ByteWriter, SerializationError, narrowed
from .vocab import Vocabulary, read_lines

MAGIC = b"PCFST\x00"
# how far a state's exit plus arc probabilities may stray from 1
MASS_TOLERANCE = 1e-9
# typecode format v2 stores the state offsets, arc symbol ids and destinations as
ID = "I"

Entity = tuple[tuple[str, ...], float]


class ProbClassFst:
    """Deterministic acyclic stochastic automaton for one class.

    States are dense ids with start = 0; ``exits[s]`` is the probability
    of leaving the class at state ``s``.

    The constructor takes the columns that the binary format stores, and
    holds them as given, as read-only attributes:

    - ``symbols``, the sorted table of arc symbols, and ``ids``, its
      inverse ``{symbol: id}``;
    - per state, ``offsets[s]``, where its arcs start in the arc columns
      (``offsets`` is closed by the arc count, so state ``s`` owns the run
      ``offsets[s]:offsets[s + 1]``), and ``exits[s]``;
    - per arc, sorted by symbol id within its state's run, ``arc_ids``
      (an id into ``symbols``), ``probs`` and ``dests``.

    ``offsets``, ``arc_ids`` and ``dests`` are unsigned integer arrays of
    any width; a built or v3-loaded automaton holds each at the narrowest.

    The engine reads arcs from these columns: a bisect for the symbol's
    id in the state's run.  ``validate`` checks the columns; the
    constructor does not.
    """

    start = 0
    # inert: nothing in src/ reads either name, perfbench/tracing.py wraps
    # both, and ROADMAP item 20 deletes this line with those wrappers
    arcs, exit_prob = (), None

    def __init__(self, label: str, symbols: tuple[str, ...], offsets: array, exits: array,
                 arc_ids: array, probs: array, dests: array,
                 entity_count: int = 0, total_weight: float = 0.0):
        self.label = label
        self.entity_count = entity_count
        self.total_weight = total_weight
        self.symbols = symbols
        self.ids = {symbol: i for i, symbol in enumerate(symbols)}
        self.offsets, self.exits = offsets, exits
        self.arc_ids, self.probs, self.dests = arc_ids, probs, dests

    @property
    def num_states(self) -> int:
        return len(self.exits)

    def validate(self) -> None:
        """Raise ValueError naming the first violated structural invariant.

        The table shapes, the offsets and the symbol table are checked a
        column at a time; then one pass over the states raises the first
        fault of the first failing state.  Each arc is checked before its
        probability joins the state's mass, so the mass adds only values
        in (0, 1], at most one per symbol: a plain sum's rounding stays far
        below ``MASS_TOLERANCE``.  Every test fails on NaN.
        """
        label, symbols, exits, offsets = self.label, self.symbols, self.exits, self.offsets
        arc_ids, probs, dests = self.arc_ids, self.probs, self.dests
        num_states, num_symbols, num_arcs = len(exits), len(symbols), len(arc_ids)
        if not num_states or len(offsets) != num_states + 1:
            raise ValueError(f"{label}: inconsistent state tables")
        if offsets[0] != 0 or offsets[-1] != num_arcs:
            raise ValueError(f"{label}: offsets run from {offsets[0]} to {offsets[-1]}, "
                             f"not from 0 to the arc count {num_arcs}")
        if not all(map(le, offsets, islice(offsets, 1, None))):
            state = next(s for s in range(num_states) if offsets[s] > offsets[s + 1])
            raise ValueError(f"{label}: offsets descend at state {state}")
        if not all(map(lt, symbols, islice(symbols, 1, None))):
            i = next(i for i in range(1, num_symbols) if not symbols[i - 1] < symbols[i])
            raise ValueError(f"{label}: symbol table is not sorted and unique at "
                             f"{symbols[i]!r}")
        if exits[self.start] != 0.0:
            raise ValueError(f"{label}: start state has nonzero exit probability")
        lo = 0
        arcs = zip(arc_ids, probs, dests)  # each state takes its run in turn
        for state, (hi, exit_p) in enumerate(zip(islice(offsets, 1, None), exits)):
            if not 0.0 <= exit_p <= 1.0:
                raise ValueError(f"{label}: exit probability out of range at state {state}")
            total = exit_p
            if hi > lo:
                if exit_p == 1.0:
                    raise ValueError(f"{label}: arcs leave full-exit state {state}")
                previous = -1
                for sid, prob, dest in islice(arcs, hi - lo):
                    if sid >= num_symbols:
                        raise ValueError(f"{label}: arc id {sid} at state {state} is "
                                         f"outside the symbol table of {num_symbols}")
                    if sid <= previous:
                        raise ValueError(f"{label}: arc symbols repeated or out of order "
                                         f"at state {state}")
                    if not 0.0 < prob <= 1.0:
                        raise ValueError(f"{label}: arc {state}-{symbols[sid]} probability "
                                         f"{prob!r} out of range")
                    if not state < dest < num_states:
                        # Topological ids make cycles and start loop-backs impossible.
                        raise ValueError(f"{label}: arc {state}-{symbols[sid]} breaks "
                                         "topological order")
                    previous = sid
                    total += prob
            if abs(total - 1.0) > MASS_TOLERANCE:
                raise ValueError(f"{label}: state {state} mass {total!r} is not stochastic")
            lo = hi
        # every destination lies in 1..num_states - 1: all are reached when
        # the start state and the destinations cover every state
        if len(set(dests)) != num_states - 1:
            raise ValueError(f"{label}: unreachable states present")

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.raw(MAGIC)
        w.u16(VERSION)
        w.string(self.label)
        w.u64(self.entity_count)
        w.f64(self.total_weight)
        w.u32(len(self.symbols))
        for symbol in self.symbols:
            w.string(symbol)
        w.u32(len(self.exits))
        for column in (self.offsets, self.exits, self.arc_ids, self.probs, self.dests):
            w.column(column)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "ProbClassFst":
        r = ByteReader(data)
        r.expect_magic(MAGIC, "class FST")
        r.expect_version("class FST")
        label = r.string()
        entity_count = r.u64()
        total_weight = r.f64()
        symbols = tuple(r.string() for _ in range(r.u32()))
        num_states = r.u32()
        offsets = r.column(ID, num_states + 1)
        exits = r.column("d", num_states)
        num_arcs = offsets[-1]
        arc_ids = r.column(ID, num_arcs)
        probs = r.column("d", num_arcs)
        dests = r.column(ID, num_arcs)
        r.done()
        fst = cls(label, symbols, offsets, exits, arc_ids, probs, dests,
                  entity_count, total_weight)
        try:
            fst.validate()
        except ValueError as exc:
            raise SerializationError(f"invariant violation: {exc}", len(data)) from exc
        return fst

    def text_dump(self) -> str:
        """Human-readable rendering: one arc or EXIT line per row."""
        lines, offsets = [], self.offsets
        arcs = zip(self.arc_ids, self.probs, self.dests)  # each state takes its run in turn
        for state, exit_p in enumerate(self.exits):
            for sid, prob, dest in islice(arcs, offsets[state + 1] - offsets[state]):
                lines.append(f"{state} {self.symbols[sid]} {prob:.17g} {dest}")
            if exit_p > 0.0:
                lines.append(f"{state} EXIT {exit_p:.17g}")
        return "\n".join(lines) + "\n"


class _TrieNode:
    # state: the node's class of equivalent nodes, numbered as first met bottom up
    __slots__ = ("children", "weight", "end_weight", "state")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.weight = 0.0
        self.end_weight = 0.0


def build_from_entities(label: str, entities: Iterable) -> ProbClassFst:
    """Build the minimal class automaton from tokenized entities.

    ``entities`` yields ``(symbols, count)`` pairs, as ``load_entities``
    returns them; duplicates accumulate.  Arc and exit
    probabilities are the relative frequencies of the entities' trie, so
    every state is stochastic by construction; trie nodes with the same
    exit probability and the same arcs (symbol, probability, equivalent
    child), probabilities compared as exact floats, share one state.
    """
    normalized: list[Entity] = []
    for symbols, count in entities:
        if isinstance(symbols, str):
            raise ValueError(f"{label}: entity {symbols!r} is one string, not a sequence "
                             "of symbols")
        symbols = tuple(symbols)
        if not is_number(count):
            raise ValueError(f"{label}: entity count {count!r} is not a number")
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
    # every node's weight is a partial sum of the root's, so all are finite with it
    if root.weight == math.inf:
        raise ValueError(f"{label}: entity count total {root.weight!r} is not finite")

    # A postorder walk over arcs in symbol order puts each node in the class
    # of the equivalent nodes met before it (Revuz 1992).  Equivalent nodes
    # have equivalent children, so the classes are first met in the postorder
    # of the same walk over the merged automaton: reversed, that numbers the
    # states in reverse postorder from the start, an order both topological
    # and canonical, so builds from permuted entity lists serialize identically.
    classes: dict[tuple, int] = {}
    firsts: list[_TrieNode] = []  # per class, its first node
    stack = [(root, (), root.weight, False)]
    while stack:
        node, prefix, whole, done = stack.pop()
        if not done:
            stack.append((node, prefix, whole, True))
            stack.extend((node.children[sym], prefix + (sym,), node.weight, False)
                         for sym in sorted(node.children, reverse=True))
            continue
        # a positive count whose share of its node's weight rounds to 0.0
        # would read as an impossible arc or exit: refuse it by name
        for what, count, whole in (("entity prefix", node.weight, whole),
                                   ("entity", node.end_weight, node.weight)):
            if count and not count / whole:
                raise ValueError(f"{label}: {what} {' '.join(prefix)!r} count {count!r} "
                                 f"rounds to probability 0.0 against {whole!r}")
        node.state = classes.setdefault(
            (node.end_weight / node.weight,
             *((sym, child.weight / node.weight, child.state)
               for sym, child in sorted(node.children.items()))),
            len(firsts))
        if node.state == len(firsts):
            firsts.append(node)
    last = len(firsts) - 1
    symbols = tuple(sorted({sym for node in firsts for sym in node.children}))
    ids = {symbol: i for i, symbol in enumerate(symbols)}
    offsets, exits = [0], array("d")
    arc_ids, probs, dests = [], array("d"), []
    for node in reversed(firsts):
        exits.append(node.end_weight / node.weight)
        for sym, child in sorted(node.children.items()):
            arc_ids.append(ids[sym])
            probs.append(child.weight / node.weight)
            dests.append(last - child.state)
        offsets.append(len(arc_ids))
    fst = ProbClassFst(label, symbols, narrowed(offsets), exits, narrowed(arc_ids), probs,
                       narrowed(dests), entity_count=len(normalized), total_weight=root.weight)
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
