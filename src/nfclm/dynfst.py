"""Lazily expanded FST view of the model.

States are token histories carrying an alignment beam; arcs appear on
demand with negative-log next-symbol probabilities as weights, so any
FST-shaped consumer can drive the model without knowing about
alignments.  The automaton is infinite, so each state is recorded only
as the arc that created it, in three flat columns indexed by state id:
its source state and its symbol's engine id, as narrow unsigned arrays,
and its weight, as an array of doubles.  One dict maps an arc's packed
``source << width | symbol id`` to its destination, -1 for a dead arc,
so a state costs about 140 bytes with its final weight, and no caller's
string is kept: ``history_of`` and ``dump`` name symbols through the model's
own table (a beam keeps only its context and length).  A state's final
weight is computed on first request.  Beams live in a bounded LRU cache
and are replayed from the nearest resident ancestor when needed again;
replays are bit-exact because beam extension is deterministic.
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Optional

from .engine import (AlignmentBeam, DeadHistoryError, NfclmModel, eos_logprob,
                     extend, start_beam)
from .seqmodel import Rule


@dataclass
class SessionStats:
    expansions: int = 0
    replays: int = 0
    replayed_steps: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class DynFstSession:
    """Single-consumer expansion session over a shared immutable model.

    ``capacity`` bounds how many beams stay resident, the start state's
    included (it is never evicted), None for no bound; arcs are remembered
    for every state ever expanded, so arc queries stay cheap after
    eviction.  A state's final weight is computed from its beam when first
    asked for, replaying the beam if it was evicted, and remembered from
    then on.  A state id is an ``int`` exactly, one the session returned;
    any other id raises ``KeyError``, as does a symbol outside the
    vocabulary, which records nothing.
    """

    # an exact type, so that True is no capacity
    CAPACITY = Rule("an int >= 1, or None for no bound",
                    lambda v: v is None or type(v) is int and v >= 1)

    def __init__(self, model: NfclmModel, capacity: Optional[int] = None):
        self.CAPACITY.check("capacity", capacity)
        self.model = model
        self.capacity = capacity
        self.stats = SessionStats()
        # engine ids by token, and their width
        self._ids, self._width = model._ids, model._width
        # per state id, the arc into it: its source id, its symbol's engine
        # id, which is below ``1 << width``, and its weight; the start
        # state, id 0, has source 0, id 0 (no token) and weight 0.0
        self._parents = array("I", [0])
        self._symbols = array("H" if self._width <= 16 else "I", [0])
        self._weights = array("d", [0.0])
        # source id << width | symbol id -> destination id, -1 when no
        # alignment survives; packed keys sort as (source, symbol) do, since
        # engine ids follow string order
        self._arcs: dict[int, int] = {}
        # state id -> -log P(EOS | history), None when it cannot stop; filled
        # on first request
        self._finals: dict[int, Optional[float]] = {}
        self._start_beam = start_beam(model)
        self._resident: OrderedDict[int, AlignmentBeam] = OrderedDict()
        self.stats.expansions += 1

    # -- state bookkeeping -------------------------------------------------

    def _install(self, state_id: int, beam: AlignmentBeam) -> None:
        self._resident[state_id] = beam
        self.stats.expansions += 1
        # the start beam, held apart, takes one of the ``capacity`` slots
        while self.capacity is not None and len(self._resident) >= self.capacity:
            self._resident.popitem(last=False)
            self.stats.evictions += 1

    def _final_of(self, beam: AlignmentBeam) -> Optional[float]:
        final = eos_logprob(self.model, beam)
        return -final if final != -math.inf else None

    def _check(self, state_id: int) -> None:
        # an exact type, so that True and 1.0 are no state id
        if type(state_id) is not int or not 0 <= state_id < len(self._parents):
            raise KeyError(f"unknown state id {state_id!r}")

    def _resolve(self, state_id: int) -> AlignmentBeam:
        """The beam of a checked state id."""
        if state_id == 0:
            return self._start_beam
        beam = self._resident.get(state_id)
        if beam is not None:
            self._resident.move_to_end(state_id)
            return beam
        # Replay from the nearest resident ancestor.
        parents, symbols = self._parents, self._symbols
        path = [symbols[state_id]]
        ancestor = parents[state_id]
        while ancestor != 0 and ancestor not in self._resident:
            path.append(symbols[ancestor])
            ancestor = parents[ancestor]
        beam = self._resident.get(ancestor, self._start_beam)
        self.stats.replays += 1
        names = self.model._names
        for sid in reversed(path):
            beam, _ = extend(self.model, beam, names[sid])
            self.stats.replayed_steps += 1
        self._install(state_id, beam)
        return beam

    # -- FST surface ---------------------------------------------------------

    def start_state(self) -> int:
        return 0

    def history_of(self, state_id: int) -> tuple[str, ...]:
        """The symbols of the path to ``state_id``, the model's own strings."""
        self._check(state_id)
        names, parents, symbols = self.model._names, self._parents, self._symbols
        history = []
        while state_id:
            history.append(names[symbols[state_id]])
            state_id = parents[state_id]
        return tuple(reversed(history))

    def beam_of(self, state_id: int) -> AlignmentBeam:
        self._check(state_id)
        return self._resolve(state_id)

    def transition(self, state_id: int, symbol: str) -> Optional[tuple[int, float]]:
        """(destination id, arc weight) or None when no alignment survives."""
        if type(state_id) is not int:
            self._check(state_id)  # refuses it
        # a stored key's source is a known state id
        try:
            dest = self._arcs[state_id << self._width | self._ids[symbol]]
        except KeyError:
            dest = self._add(state_id, symbol)
        return None if dest < 0 else (dest, self._weights[dest])

    def _add(self, state_id: int, symbol: str) -> int:
        """Record the arc from ``state_id`` on ``symbol``: the id of the new
        state it leads to, or -1 when no alignment survives."""
        self._check(state_id)
        sid = self._ids.get(symbol)
        if sid is None:
            raise KeyError(f"symbol {symbol!r} is outside the vocabulary")
        try:
            # ``extend`` refuses a class label or BOS, which have ids too
            beam, step = extend(self.model, self._resolve(state_id), symbol)
        except DeadHistoryError:
            dest = -1
        else:
            dest = len(self._parents)
            self._parents.append(state_id)
            self._symbols.append(sid)
            self._weights.append(-step)
            self._install(dest, beam)
        self._arcs[state_id << self._width | sid] = dest
        return dest

    def final_weight(self, state_id: int) -> Optional[float]:
        """-log P(EOS | history); None when the state cannot terminate.

        Computed on the first request for the state, from its beam (an
        evicted beam is replayed and counted like any other), then remembered.
        """
        # a remembered id is a known one, of type int exactly
        if type(state_id) is not int or state_id not in self._finals:
            self._check(state_id)
            self._finals[state_id] = self._final_of(self._resolve(state_id))
        return self._finals[state_id]

    def dump(self) -> str:
        """Text rendering of everything expanded so far.

        One ``state`` line per state (history, then each alignment's
        decider history and log-weight), one ``arc`` line per surviving
        arc, and one ``final`` line per stoppable state.  Evicted beams
        are replayed but not installed: the cache and stats stay as they
        were.  Final weights not yet asked for are computed from the
        rebuilt beams and remembered.
        """
        names, parents, symbols = self.model._names, self._parents, self._symbols
        lines = []
        beams: list[AlignmentBeam] = []  # by state id; a parent's id is smaller
        for state_id in range(len(parents)):
            beam = self._start_beam if state_id == 0 else self._resident.get(state_id)
            if beam is None:
                beam, _ = extend(self.model, beams[parents[state_id]],
                                 names[symbols[state_id]])
            beams.append(beam)
            if state_id not in self._finals:
                self._finals[state_id] = self._final_of(beam)
            labels = " | ".join(
                f"{','.join(dh) or '<start>'}"
                f"{'' if position is None else f'[{position[0]}:{position[1]}]'}"
                f" {h.log_weight:.6f}"
                for h in beam.hypotheses for dh, position in [self.model.decode(h.key)]
            )
            history = self.history_of(state_id)
            lines.append(f"state {state_id}\t{' '.join(history) or '<start>'}\t{labels}")
        for _, dest in sorted(self._arcs.items()):
            if dest >= 0:
                lines.append(f"arc {parents[dest]}\t{names[symbols[dest]]}"
                             f"\t{self._weights[dest]:.6f}\t{dest}")
        for state_id in range(len(parents)):
            weight = self._finals[state_id]
            if weight is not None:
                lines.append(f"final {state_id}\t{weight:.6f}")
        return "\n".join(lines) + "\n"
