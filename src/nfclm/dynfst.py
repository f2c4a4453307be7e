"""Lazily expanded FST view of the model.

States are token histories carrying an alignment beam; arcs appear on
demand with negative-log next-symbol probabilities as weights, so any
FST-shaped consumer can drive the model without knowing about
alignments.  The automaton is infinite, so each state is recorded only
as the arc that created it (parent id, symbol), from which ``history_of``
rebuilds its history (a beam keeps only its context and length); its
final weight is computed on first request.  Beams live in a bounded LRU
cache and are replayed from the nearest resident ancestor when needed
again; replays are bit-exact because beam extension is deterministic.
"""

from __future__ import annotations

import math
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
    then on.
    """

    # an exact type, so that True is no capacity
    CAPACITY = Rule("an int >= 1, or None for no bound",
                    lambda v: v is None or type(v) is int and v >= 1)

    def __init__(self, model: NfclmModel, capacity: Optional[int] = None):
        self.CAPACITY.check("capacity", capacity)
        self.model = model
        self.capacity = capacity
        self.stats = SessionStats()
        # per state id: the (parent id, symbol) arc that created it; None
        # for the start state, id 0
        self._links: list[Optional[tuple[int, str]]] = [None]
        # state id -> -log P(EOS | history), None when it cannot stop; filled
        # on first request
        self._finals: dict[int, Optional[float]] = {}
        self._arcs: dict[tuple[int, str], Optional[tuple[int, float]]] = {}
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
        if not 0 <= state_id < len(self._links):
            raise KeyError(f"unknown state id {state_id}")

    def _resolve(self, state_id: int) -> AlignmentBeam:
        self._check(state_id)
        if state_id == 0:
            return self._start_beam
        beam = self._resident.get(state_id)
        if beam is not None:
            self._resident.move_to_end(state_id)
            return beam
        # Replay from the nearest resident ancestor.
        ancestor, symbol = self._links[state_id]
        symbols = [symbol]
        while ancestor != 0 and ancestor not in self._resident:
            ancestor, symbol = self._links[ancestor]
            symbols.append(symbol)
        beam = self._resident.get(ancestor, self._start_beam)
        self.stats.replays += 1
        for symbol in reversed(symbols):
            beam, _ = extend(self.model, beam, symbol)
            self.stats.replayed_steps += 1
        self._install(state_id, beam)
        return beam

    # -- FST surface ---------------------------------------------------------

    def start_state(self) -> int:
        return 0

    def history_of(self, state_id: int) -> tuple[str, ...]:
        self._check(state_id)
        symbols = []
        link = self._links[state_id]
        while link is not None:
            state_id, symbol = link
            symbols.append(symbol)
            link = self._links[state_id]
        return tuple(reversed(symbols))

    def beam_of(self, state_id: int) -> AlignmentBeam:
        return self._resolve(state_id)

    def transition(self, state_id: int, symbol: str) -> Optional[tuple[int, float]]:
        """(destination id, arc weight) or None when no alignment survives."""
        key = (state_id, symbol)
        if key in self._arcs:
            return self._arcs[key]
        try:
            beam, step = extend(self.model, self._resolve(state_id), symbol)
        except DeadHistoryError:
            self._arcs[key] = None
            return None
        dest = len(self._links)
        self._links.append(key)
        self._install(dest, beam)
        arc = (dest, -step)
        self._arcs[key] = arc
        return arc

    def final_weight(self, state_id: int) -> Optional[float]:
        """-log P(EOS | history); None when the state cannot terminate.

        Computed on the first request for the state, from its beam (an
        evicted beam is replayed and counted like any other), then remembered.
        """
        if state_id not in self._finals:
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
        lines = []
        beams: list[AlignmentBeam] = []  # by state id; a parent's id is smaller
        for state_id, link in enumerate(self._links):
            beam = self._start_beam if link is None else self._resident.get(state_id)
            if beam is None:
                parent, symbol = link
                beam, _ = extend(self.model, beams[parent], symbol)
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
        for (src, symbol), arc in sorted(self._arcs.items()):
            if arc is not None:
                dest, weight = arc
                lines.append(f"arc {src}\t{symbol}\t{weight:.6f}\t{dest}")
        for state_id in range(len(self._links)):
            weight = self._finals[state_id]
            if weight is not None:
                lines.append(f"final {state_id}\t{weight:.6f}")
        return "\n".join(lines) + "\n"
