"""Marginalization engine over class alignments.

The model assigns each history symbol to a generating class: the
background class, a named entity class, or the continuation marker for a
class span that is still open.  Next-symbol probabilities marginalize
over these alignments with a beam of the most probable ones per history.
With pruning off (``beam_delta`` infinite, ``beam_size`` never reached)
the beam is the forward algorithm over merged hypotheses: exact at any
length.

Each alignment hypothesis carries its collapsed decider history (class
spans as single tokens, background symbols verbatim), its position (in
the background, or inside a class automaton at a given state), and the
accumulated joint log-weight of alignment and symbols.  Hypotheses that
agree on (decider history, position) are exchangeable for every future
step, so they are merged by log-sum-exp.

The stored decider history is only the decider's context: its last
``decider.context_size`` tokens.  Merging on that is exact, not an
approximation.  The background model reads only the padded context that
a beam keeps of its token history, and the decider only its padded
context, so two hypotheses that agree on context and position get the
same factor on every future step.  Merging them shrinks the beam on
entity text to a few hypotheses.  Fig. 1's whole histories come from a
decider widened to read the whole sentence (``seqmodel.widened``).

A hypothesis holds its decider history and position as one integer key.
Each model interns BOS as id 1, and its vocabulary and class labels in
string order as ids from 2, of ``w`` bits each; it numbers the states of
all class automata in one position space, in label order: a class's rank
(from 1) above its state, 0 for the background.  A key packs the
history's last ``D`` tokens (``D`` the decider's context size), padded
on the left with BOS, above the position.  No history holds BOS, so
where two histories first differ the shorter holds a pad: integer order
is the tie order ``(len(dh), dh, position)``, the background first, and
ranking sorts keys.  Those ``D`` tokens are the decider's padded
context, and a successor's key is a shift, a mask and an OR.  A beam
holds its background context the same way, as the packed ids of its
last ``context_size`` tokens.  Strings stay at the boundary:
``NfclmModel.decode`` turns a key back into (decider history, position)
for ``DynFstSession.dump``, and a new cache row unpacks its context key
to call the component, the model's own symbol objects throughout.

The beam writes the mixture step once, in ``_mixture``, a plain call
per hypothesis: a hypothesis inside a class span may stay on its
automaton's arcs, and a hypothesis whose state can exit splits the exit
mass among the classes by the decider.  ``extend``, ``eos_logprob``,
``next_dist`` and ``sample`` call it per hypothesis; the route into
class ``c`` weighs the exit weight plus the row's log share of ``c``.
Arcs are read from the automata's flat columns (``ProbClassFst``): a
stay arc for a symbol is one bisect in the state's run of the id
column.  Each model indexes once, per symbol, the start arcs of the
classes that can emit it, as (class index, log-probability, successor
key bits), the class index being the class's place in a decider row, so
``extend`` visits only entry routes that can emit its symbol and
``eos_logprob`` only the background route; ``next_dist`` and ``sample``
take every route.  ``exact_sequence_logprob`` is the same walk with
pruning off; the tests compare it and the beam with an alignment
enumerator written from the definitions, apart from the kernel.

Every sentence score comes from one walk, ``sequence_logprobs``: it
scores a batch of token lists in sorted order over a stack of beams, so
a prefix that several lists share (as the hypotheses of an n-best list
do) is extended once.  ``sequence_logprob`` is its one-list case.  On
plain text the walk steps the beam's lone background hypothesis in place
(``_walk``).  Every walk starts from the model's one start beam, built
with the model; ``start_beam`` gives a caller a fresh beam of its own.

Beam arithmetic is 64-bit log-domain with max-shifted log-sum-exp over
fixed summation orders, which keeps repeated runs bit-identical.
``next_dist`` sums in the linear domain instead, in route order: one list
sweep over a scaled copy of the background's ``distribution_values``,
read once per context key into its cache row, and each class route's arc
columns, entry routes' built once per model, a stay route's sliced from
its state's run.

The background and decider lookups are memoized per packed context key:
for an n-gram, the longest suffix of the padded context that is one of
its stored contexts (``ConditionalSymbolModel.stored_contexts``), else
the empty context, 0.  A suffix is the context under a mask, checked
against a set per length of the stored contexts, packed when the model
is built.  Contexts that share a key share every value, so the caches
hold at most one row per stored context plus one, however much a model
scores.  A background row holds the log-probabilities asked at it,
keyed by the model's own symbol objects so that it keeps no caller's
string, and, once fanned out at, its V + 1 ``distribution_values`` as
8-byte floats.  It resolves its key's tokens once, when it is made, into
the background's state there (``ConditionalSymbolModel.resolve``), so a
miss is one ``logprob_at`` read of that state: for an n-gram, whose
state is one int packing 1 + the index of each level's stored context in
that level's bit field, a mask and a shift per level and a bisect for
the symbol in each such context's run, with no context walk.  A decider row
is the tuple of the logs of the decider's ``distribution_values``, and
keys whose rows are equal share one tuple.

Model components never change after construction, so one model can
serve any number of concurrent scoring sessions; beams are cheap
per-session values.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat, takewhile
from operator import add, eq, sub
from typing import NamedTuple, Optional, Sequence

from .classfst import ProbClassFst
from .seqmodel import COUNT, SEED, ConditionalSymbolModel, DeciderModel, check_sentences, number
from .vocab import BACKGROUND, BOS, EOS, ClassAlphabet, Vocabulary

DEFAULT_BEAM_SIZE = 100
DEFAULT_BEAM_DELTA = 30.0
# a beam size no list can reach, so with an infinite delta nothing is pruned
EXACT_BEAM_SIZE = sys.maxsize

class DeadHistoryError(Exception):
    """No alignment generates ``symbol`` after the first ``position`` tokens."""

    def __init__(self, position: int, symbol: str):
        self.position = position
        self.symbol = symbol
        super().__init__(f"no alignment can generate {symbol!r} at position {position}")


class ComponentError(ValueError):
    """A model component that does not fit the others.

    ``component`` is ``"classes"`` (the class alphabet), ``"background"``,
    ``"decider"`` or a class label.
    """

    def __init__(self, component: str, message: str):
        super().__init__(message)
        self.component = component


class AlignmentHypothesis(NamedTuple):
    """One class alignment of the consumed history.

    ``key`` packs the alignment's decider history and position (see the
    module docstring; ``NfclmModel.decode`` reads it back).  The history
    is as far as the decider can see it: its last
    ``decider.context_size`` tokens.  Alignments that agree on the key
    score every continuation alike, so the beam holds them as one
    hypothesis.
    """

    key: int
    log_weight: float


# ``AlignmentHypothesis((key, log_weight))`` built in C, without the
# named tuple's Python-level ``__new__``, for the hypotheses a step keeps
_hypothesis = partial(tuple.__new__, AlignmentHypothesis)


@dataclass
class AlignmentBeam:
    """Bounded set of alignment hypotheses for one token history.

    Of that history it keeps ``context``, the background's padded
    context as packed ids, and ``length``.  ``log_norm``, the log of the
    kept hypotheses' total weight, turns their joint weights into
    posteriors.  Its limits ``size_limit`` and ``delta`` are the model's:
    ``start_beam`` sets them, and ``extend`` passes them on.
    """

    context: int
    length: int
    hypotheses: list[AlignmentHypothesis]
    log_norm: float
    size_limit: int
    delta: float


class BackgroundRow(dict):
    """Background log-probabilities ``{symbol: logprob}`` cached at one
    context key, keyed by the model's own symbol objects, with ``state``,
    the background's ``resolve`` of the key's tokens, where the missing
    ones are read (for an n-gram, one int with a bit field per level), and
    ``dist_values``, its ``distribution_values`` there in the background's
    alphabet order (None until the key's first fan-out)."""

    __slots__ = ("state", "dist_values")

    def __init__(self, state):
        super().__init__()
        self.state = state
        self.dist_values = None


@dataclass
class NfclmModel:
    """Background model + per-class FSTs mixed by the decider.

    Fields must not change after construction, which derives lookup
    tables and the key layout from them; build a
    variant with ``dataclasses.replace`` instead.  ``RULES`` checks each
    setting.
    """

    RULES = {"beam_size": COUNT, "beam_delta": number("a number >= 0", lambda v: v >= 0)}

    vocabulary: Vocabulary
    classes: ClassAlphabet
    background: ConditionalSymbolModel
    class_fsts: dict[str, ProbClassFst]
    decider: DeciderModel
    beam_size: int = DEFAULT_BEAM_SIZE
    beam_delta: float = DEFAULT_BEAM_DELTA

    def __post_init__(self):
        for name, rule in self.RULES.items():
            rule.check(name, getattr(self, name))
        wanted = set(self.classes.nonbackground)
        have = set(self.class_fsts)
        if wanted != have:
            raise ComponentError("classes", f"class FSTs {sorted(have)} do not match "
                                            f"class alphabet {sorted(wanted)}")
        symbols = set(self.vocabulary.symbols)
        for label, fst in self.class_fsts.items():
            if fst.label != label:
                raise ComponentError(label, f"FST labeled {fst.label!r} registered under "
                                            f"{label!r}")
            if not symbols.issuperset(fst.symbols):
                sym = next(sym for sym in fst.symbols if sym not in symbols)
                raise ComponentError(
                    label, f"{label}: arc symbol {sym!r} is outside the vocabulary")
        if set(self.background.alphabet) != symbols | {EOS}:
            raise ComponentError("background",
                                 "background model must predict the vocabulary plus EOS")
        if set(self.decider.alphabet) != set(self.classes.labels):
            raise ComponentError("decider", "decider classes do not match the class alphabet")
        # histories hold vocabulary symbols and BOS padding, the decider's
        # also class tokens
        _check_histories("background", self.background, symbols | {BOS})
        _check_histories("decider", self.decider,
                         symbols | {BOS} | set(self.classes.nonbackground))
        self._build_keys()
        index = {c: i for i, c in enumerate(self.decider.alphabet)}  # a class's place in a row
        self._bg_class = index[BACKGROUND]
        # what next_dist reads as index columns over the background's
        # alphabet: per class rank, the position of each automaton symbol
        # id, and the entry routes as (class index, positions,
        # probabilities) of the start state's arcs
        position = {sym: i for i, sym in enumerate(self.background.alphabet)}.__getitem__
        self._arc_positions = [None] + [list(map(position, fst.symbols))
                                        for fst in self._fsts[1:]]
        # per vocabulary symbol: its id, the successor key bits of the
        # background route, per class rank the automaton's id of the symbol
        # (None when it has none), and the entry routes that can emit it,
        # each class whose start state has an arc for it, in alphabet order,
        # as (class index, log probability, successor key bits)
        entries: dict[str, tuple] = {}
        entry_columns = []
        for c in self.classes.nonbackground:
            fst = self.class_fsts[c]
            lo, hi = fst.offsets[fst.start], fst.offsets[fst.start + 1]
            arc_symbols = list(map(fst.symbols.__getitem__, fst.arc_ids[lo:hi]))
            probs, bits = list(fst.probs[lo:hi]), self._entry_bits[c]
            for sym, p, dest in zip(arc_symbols, probs, fst.dests[lo:hi]):
                entries[sym] = entries.get(sym, ()) + ((index[c], math.log(p), bits | dest),)
            entry_columns.append((index[c], list(map(position, arc_symbols)), probs))
        vocab = self.vocabulary.symbols
        stays = zip(repeat(None), *(map(fst.ids.get, vocab) for fst in self._fsts[1:]))
        self._emits = dict(zip(vocab, zip(
            map(self._ids.__getitem__, vocab), map(self._token_bits.__getitem__, vocab),
            stays, map(entries.get, vocab, repeat(())))))
        self._entry_columns = tuple(entry_columns)
        self._bg_cache: dict[int, BackgroundRow] = {}
        # the table every fan-out copies, already sized and keyed in order
        self._fan_out = dict.fromkeys(self.vocabulary.symbols + (EOS,), 0.0)
        self._decider_cache: dict[int, tuple[float, ...]] = {}
        # each distinct decider row made, keyed by itself
        self._decider_rows: dict[tuple[float, ...], tuple[float, ...]] = {}
        # the beam every walk starts from, which no caller is handed
        self._start_beam = start_beam(self)

    def _build_keys(self) -> None:
        """Intern the tokens and derive the key layout (module docstring)."""
        # by id: 0 is no token, and BOS, only ever a pad, sorts first
        names = self._names = (None, BOS) + tuple(
            sorted(set(self.vocabulary.symbols) | set(self.classes.labels)))
        self._ids = {name: i for i, name in enumerate(names) if i}
        width = self._width = len(self._ids).bit_length()
        # positions: a class's rank in label order above its state
        self._ranked = tuple(sorted(self.classes.nonbackground))
        self._fsts = (None,) + tuple(self.class_fsts[c] for c in self._ranked)
        self._no_stays = (None,) * len(self._fsts)
        states = self._state_bits = max((fst.num_states for fst in self._fsts[1:]),
                                        default=0).bit_length()
        pos_bits = self._pos_bits = states + len(self._ranked).bit_length()
        # the decider history above the position: its last D tokens
        size = self.decider.context_size
        # what a token appended to a decider history ORs into a successor
        # key: its id above the position, nothing when histories keep none
        self._token_bits = {name: i << pos_bits if size else 0
                            for name, i in self._ids.items()}
        self._entry_bits = {c: self._token_bits[c] | rank << states
                            for rank, c in enumerate(self._ranked, start=1)}
        # what ``_mixture`` reads
        self._layout = ((1 << pos_bits) - 1, states, (1 << states) - 1, pos_bits, width,
                        ((1 << width * size) - 1) << pos_bits)
        self._root = self.context((), size) << pos_bits
        bg_size = self.background.context_size
        self._bg_mask = (1 << width * bg_size) - 1
        self._start_context = self.context((), bg_size)
        self._bg_levels = self._stored_levels(self.background, bg_size)
        self._decider_levels = self._stored_levels(self.decider, size)

    def _stored_levels(self, component: ConditionalSymbolModel, size: int):
        """(mask, packed stored contexts) per context length, longest first;
        None when the component has no stored contexts."""
        stored = component.stored_contexts()
        if stored is None:
            return None
        symbols, stored = stored
        ids, width = self._ids, self._width
        levels = []
        for length in range(min(size, len(stored)), 0, -1):
            # each context packed as the sum of its tokens' ids shifted into
            # place, a column at a time through a table from the component's
            # ids; a token no history holds adds a negative term larger than
            # any sum, so that context is dropped
            unknown = -(1 << width * length)
            packed = None
            for i, column in enumerate(stored[length - 1]):
                shift = width * (length - 1 - i)
                term = [ids[s] << shift if s in ids else unknown for s in symbols]
                column = map(term.__getitem__, column)
                packed = column if packed is None else map(add, packed, column)
            stored_set = frozenset(filter((0).__le__, packed))
            if stored_set:
                levels.append(((1 << width * length) - 1, stored_set))
        return levels

    # -- the boundary between tokens and packed ids --------------------------

    def _key_tokens(self, key: int) -> tuple[str, ...]:
        """The tokens of a context key, oldest first; a key has no padding
        above its oldest token: ids start at 1."""
        names, width, mask = self._names, self._width, (1 << self._width) - 1
        return tuple([names[key >> width * i & mask]
                      for i in range(-(-key.bit_length() // width) - 1, -1, -1)])

    def context(self, tokens: Sequence[str], size: int) -> int:
        """The last ``size`` of ``tokens``, padded on the left with BOS,
        packed: a context ``background_logprob`` and ``decider_dist`` take."""
        tokens = tuple(tokens)[max(0, len(tokens) - size):]
        ids, width = self._ids, self._width
        packed = 0
        for token in (BOS,) * (size - len(tokens)) + tokens:
            packed = packed << width | ids[token]
        return packed

    def decode(self, key: int) -> tuple[tuple[str, ...], Optional[tuple[str, int]]]:
        """The (decider history, position) a hypothesis key packs: the
        position is None in the background, else (class, state)."""
        tokens = self._key_tokens(key >> self._pos_bits)
        tokens = tokens[tokens.count(BOS):]  # a history holds no BOS but its pads
        pos = key & (1 << self._pos_bits) - 1
        if not pos:
            return tokens, None
        states = self._state_bits
        return tokens, (self._ranked[(pos >> states) - 1], pos & (1 << states) - 1)

    # -- component lookups ------------------------------------------------

    def background_logprob(self, symbol: str, context: int) -> float:
        """Background log P(symbol | context), memoized per context key.

        ``context`` is a packed padded context (``context``), as a beam
        holds it.  The cache holds one ``BackgroundRow`` per key of the
        context, which ``next_dist`` also fills, so a model with stored
        contexts bounds its rows.  A context that is a key is its own row;
        only a miss computes the key.  A missing value is read at the
        row's state, resolved once at the key's own tokens, which give
        every context of the key its bits.  The row keeps ``symbol`` as
        its entry's key, so a caller passes the model's own symbol object.
        """
        row = self._bg_cache.get(context)
        if row is None:
            row = self._background_row(_stored_suffix(context, self._bg_levels))
        hit = row.get(symbol)
        if hit is None:
            hit = row[symbol] = self.background.logprob_at(symbol, row.state)
        return hit

    def _background_row(self, key: int) -> BackgroundRow:
        """The cache row of a context key, made on first use with the
        background's state at the key's tokens."""
        row = self._bg_cache.get(key)
        if row is None:
            row = self._bg_cache.setdefault(
                key, BackgroundRow(self.background.resolve(self._key_tokens(key))))
        return row

    def decider_dist(self, context: int) -> tuple[float, ...]:
        """The row the mixture step adds for a packed padded decider context:
        the decider's log shares, in the decider's own class order
        (``decider.alphabet``), memoized per context key like
        ``background_logprob`` and computed at the key's own tokens.  A new
        row is stored as the tuple already held for an equal one, so keys
        whose shares are equal share one object.  ``math.log`` never gives
        -0.0, and a NaN equals nothing, so equal rows are equal bit for
        bit."""
        hit = self._decider_cache.get(context)
        if hit is None:
            key = _stored_suffix(context, self._decider_levels)
            hit = self._decider_cache.get(key)
            if hit is None:
                values = self.decider.distribution_values(self._key_tokens(key))
                row = tuple(map(math.log, values))
                hit = self._decider_cache.setdefault(key, self._decider_rows.setdefault(row, row))
        return hit


def _check_histories(name: str, component: ConditionalSymbolModel, needed: set) -> None:
    """Raise ComponentError unless ``component`` reads histories of ``needed``."""
    if component.history_alphabet is None:
        return
    missing = sorted(needed - component.history_alphabet)
    if missing:
        more = f" and {len(missing) - 1} more" if len(missing) > 1 else ""
        raise ComponentError(name, f"{name} history alphabet lacks {missing[0]!r}{more}")


def _stored_suffix(context: int, levels) -> int:
    """The longest suffix of ``context`` among the stored contexts of
    ``levels`` (``NfclmModel._stored_levels``), else 0; with no stored
    contexts, ``context`` itself."""
    if levels is None:
        return context
    for mask, stored in levels:
        suffix = context & mask
        if suffix in stored:
            return suffix
    return 0


def start_beam(model: NfclmModel) -> AlignmentBeam:
    """A fresh beam before a sentence's first token, with the model's limits."""
    root = AlignmentHypothesis(model._root, 0.0)
    return AlignmentBeam(context=model._start_context, length=0, hypotheses=[root],
                         log_norm=0.0, size_limit=model.beam_size, delta=model.beam_delta)


def log_sum_exp(values: Sequence[float]) -> float:
    if len(values) == 1:
        return values[0] + 0.0  # the bits of best + log(1.0), -inf and -0.0 included
    best = max(values)
    if best == -math.inf:
        return -math.inf
    return best + math.log(math.fsum(map(math.exp, map(sub, values, repeat(best)))))


def _mixture(model: NfclmModel, key: int, log_weight: float,
             stays: Optional[tuple] = None) -> tuple:
    """``(stay, base, row, prefix)``: the mixture step out of one hypothesis.

    Inside a class span, ``stay`` is, for a symbol whose automaton ids
    ``stays`` gives per class rank, ``(probability, successor key)`` of
    the arc that emits it from the hypothesis's state, or None; with no
    ``stays``, the state's run ``(rank, lo, hi)`` of the automaton's arc
    columns.  A stay weighs ``log_weight``: arc probabilities already
    carry the stay mass.  ``stay`` is None in the background.  ``base`` is
    the weight of leaving the position, ``log_weight`` plus log exit
    probability, ``row`` the hypothesis's decider log shares
    (``decider_dist``), and ``prefix`` the key of its decider history
    after one more token, to which a route ORs the token's id above its
    position; all three are None when the state cannot exit.  The route
    into class ``c`` weighs ``base + row[c]``, to which callers add the
    emitted symbol's log-probability.
    """
    pos_mask, states, state_mask, pos_bits, width, shifted_mask = model._layout
    pos = key & pos_mask
    if pos:
        rank = pos >> states
        state = pos & state_mask
        fst = model._fsts[rank]
        if stays is None:
            offsets = fst.offsets
            stay = rank, offsets[state], offsets[state + 1]
        else:
            stay = None
            sid = stays[rank]
            if sid is not None:
                offsets, arc_ids = fst.offsets, fst.arc_ids
                hi = offsets[state + 1]
                i = bisect_left(arc_ids, sid, offsets[state], hi)
                if i < hi and arc_ids[i] == sid:
                    stay = fst.probs[i], key - state + fst.dests[i]
        exit_p = fst.exits[state]
        if exit_p == 0.0:
            return stay, None, None, None
        base = log_weight + math.log(exit_p)
    else:
        stay = None
        base = log_weight
    history = key - pos
    return stay, base, model.decider_dist(history >> pos_bits), history << width & shifted_mask


def extend(model: NfclmModel, beam: AlignmentBeam, symbol: str) -> tuple[AlignmentBeam, float]:
    """Advance the beam by one symbol; returns (new beam, log P(symbol | history)).

    Successors sharing a key, (decider history, position), are merged by
    log-sum-exp before pruning to the size and log-width limits.  Only
    the entry routes that can emit ``symbol`` are visited, and hypotheses
    are built only for the successors that survive pruning.  A lone
    finite successor is kept without ranking.  With no successor left, or
    none of finite weight, it raises ``DeadHistoryError``.
    """
    emits = model._emits.get(symbol)
    if emits is None:
        raise KeyError(f"symbol {symbol!r} is outside the vocabulary")
    sid, spoken, stays, entries = emits
    bg_lp = model.background_logprob(model._names[sid], beam.context)
    bg, context = model._bg_class, (beam.context << model._width | sid) & model._bg_mask
    merged: dict[int, list[float]] = {}
    for key, log_weight in beam.hypotheses:
        stay, base, row, prefix = _mixture(model, key, log_weight, stays)
        if stay is not None:
            prob, key = stay
            merged.setdefault(key, []).append(log_weight + math.log(prob))
        if base is not None:
            merged.setdefault(prefix | spoken, []).append(base + row[bg] + bg_lp)
            for c, log_p, bits in entries:
                merged.setdefault(prefix | bits, []).append(base + row[c] + log_p)
    if not merged:
        raise DeadHistoryError(beam.length, symbol)
    if len(merged) == 1:
        # one finite successor survives any pruning, with the ranked path's bits
        (key, weights), = merged.items()
        weight = log_sum_exp(weights)
        if -math.inf < weight < math.inf:
            total = weight + 0.0  # log_sum_exp([weight])
            return AlignmentBeam(context, beam.length + 1, [_hypothesis((key, weight))],
                                 total, beam.size_limit, beam.delta), total - beam.log_norm

    # best first, ties by key, which no two share; each rank holds the
    # negated weight, a lone weight's as log_sum_exp gives it
    ranked = sorted([(-(weights[0] + 0.0) if len(weights) == 1 else -log_sum_exp(weights), key)
                     for key, weights in merged.items()])
    # log_sum_exp is max plus an exactly rounded fsum: any term order gives its bits
    total = log_sum_exp([-neg for neg, _ in ranked])

    kept = ranked[: beam.size_limit]
    best = -kept[0][0]
    kept = [rank for rank in kept if best + rank[0] <= beam.delta]
    if not kept:  # the best successor weighs -inf: no alignment generates the symbol
        raise DeadHistoryError(beam.length, symbol)
    hypotheses = [_hypothesis((key, -neg)) for neg, key in kept]

    new_norm = (total if len(kept) == len(ranked)
                else log_sum_exp([h.log_weight for h in hypotheses]))
    return AlignmentBeam(context, beam.length + 1, hypotheses, new_norm,
                         beam.size_limit, beam.delta), total - beam.log_norm


def eos_logprob(model: NfclmModel, beam: AlignmentBeam) -> float:
    """log P(EOS | history) under the beam; -inf when no alignment can stop."""
    eos_lp = model.background_logprob(EOS, beam.context)
    bg = model._bg_class
    # EOS has the background route alone; no automaton arc emits it
    steps = [_mixture(model, key, lw, model._no_stays) for key, lw in beam.hypotheses]
    contributions = [base + row[bg] + eos_lp for _, base, row, _ in steps if base is not None]
    if not contributions:
        return -math.inf
    return log_sum_exp(contributions) - beam.log_norm


def advance(model: NfclmModel, symbols: Sequence[str]) -> AlignmentBeam:
    """Beam after consuming ``symbols`` from the start state."""
    check_sentences("symbols", (symbols,))
    beam = start_beam(model)
    for sym in symbols:
        beam, _ = extend(model, beam, sym)
    return beam


def next_dist(model: NfclmModel, beam: AlignmentBeam) -> dict[str, float]:
    """Next-symbol distribution over the vocabulary plus EOS, in that order.

    One linear-domain sweep over the routes, filling one list in the
    background's alphabet order: the background routes' posterior weight
    times the background's ``distribution_values`` at the context's key,
    read on the key's first fan-out into its ``_bg_cache`` row, plus each
    class route's posterior weight times its arcs, read as index and
    probability columns.  The list updates a copy of ``_fan_out``, which
    keeps its vocabulary key order.  Entry ``s`` equals ``exp`` of
    ``extend``'s step log-probability for ``s`` within 1e-12 relative (0
    where ``extend`` finds no alignment).
    """
    background: list[float] = []
    classes: list[tuple] = []
    fsts, positions, bg_class = model._fsts, model._arc_positions, model._bg_class
    for key, log_weight in beam.hypotheses:
        stay, base, row, _ = _mixture(model, key, log_weight)
        if stay is not None:  # a stay route's arc ids map to positions here
            rank, lo, hi = stay
            fst = fsts[rank]
            classes.append((map(positions[rank].__getitem__, fst.arc_ids[lo:hi]),
                            fst.probs[lo:hi], log_weight))
        if base is not None:
            background.append(base + row[bg_class])
            for c, where, probs in model._entry_columns:
                classes.append((where, probs, base + row[c]))
    if background:
        scale = math.exp(log_sum_exp(background) - beam.log_norm)
        # the row ``background_logprob`` reads, found as it finds it
        key = _stored_suffix(beam.context, model._bg_levels)
        row = model._background_row(key)
        bg = row.dist_values
        if bg is None:
            bg = row.dist_values = array(
                "d", model.background.distribution_values(model._key_tokens(key)))
        values = [scale * p for p in bg]
    else:
        values = [0.0] * len(model._fan_out)
    for where, probs, lw in classes:
        weight = math.exp(lw - beam.log_norm)
        for i, p in zip(where, probs):
            values[i] += weight * p
    dist = model._fan_out.copy()
    dist.update(zip(model.background.alphabet, values))
    return dist


def sequence_logprob(model: NfclmModel, symbols: Sequence[str]) -> float:
    """Sentence log-probability including the end-of-sentence factor.

    The one-list case of ``sequence_logprobs``; a dead history yields -inf.
    """
    check_sentences("symbols", (symbols,))
    return _walk(model, model._start_beam, [symbols])[0]


def exact_sequence_logprob(model: NfclmModel, symbols: Sequence[str]) -> float:
    """Sentence log-probability, EOS included, with pruning off.

    The walk of ``sequence_logprob`` from the model's start beam with
    ``EXACT_BEAM_SIZE`` and an infinite band: the forward algorithm over
    merged alignments, exact at any length, on ``model`` itself and its
    caches.
    """
    check_sentences("symbols", (symbols,))
    start = replace(model._start_beam, size_limit=EXACT_BEAM_SIZE, delta=math.inf)
    return _walk(model, start, [symbols])[0]


def sequence_logprobs(model: NfclmModel, token_lists: Sequence[Sequence[str]], *,
                      name: str = "token_lists entry") -> list[float]:
    """Sentence log-probability, EOS included, of each list, in input order.

    A lone ``str`` among the lists raises ValueError naming ``name``.

    The lists are walked in sorted order over a stack whose entry ``d``
    holds (beam, running total) after ``d`` tokens, so a prefix shared
    by several lists is extended once.  A prefix with no surviving
    alignment is marked dead and every list that starts with it scores
    -inf.  ``extend`` depends only on (model, beam, symbol) and totals are
    summed in token order, so each result has the bits of scoring that
    list alone, runs of background symbols included (``_walk``).  The walk
    starts from the model's start beam, which it never changes.  The stack
    keeps a beam, of O(context) tokens, per token that a list shares with
    the next, so a lone list holds one at a time.
    """
    return _walk(model, model._start_beam, check_sentences(name, token_lists))


def _walk(model: NfclmModel, start: AlignmentBeam,
          token_lists: Sequence[Sequence[str]]) -> list[float]:
    """``sequence_logprobs`` from ``start``, whose size limit and band every beam keeps.

    Where the top beam is one hypothesis at the background position and
    the next symbol has no entry route, the walk steps a run in place: the
    key, weight and background context are locals, the weight is also the
    lone beam's norm (``log_sum_exp`` of one term has its bits), the depth
    is the length, and each step is the one successor of ``extend``'s loop
    there, written out with its float operations in their order: the key
    shifts in the symbol's key bits, and the weight adds the decider row's
    background share, the symbol's background log-probability and 0.0
    (``log_sum_exp`` of one term), so every total keeps ``extend``'s bits.
    A beam is built only where the run ends before the list does and where
    a shared prefix needs its stack entry.  A run that takes the last token
    of a list that no later list shares also takes its EOS, the same weight
    at EOS, which less the norm has ``eos_logprob``'s bits on the lone
    beam.  Every other step is ``extend``'s: an unknown symbol, one with
    entry routes, a non-finite weight (its lookups are then made again, as
    cache hits), or a hypothesis inside a class.  Lookups stay calls to
    ``background_logprob`` and ``decider_dist``, so a step in a run fills
    and reads the caches as ``extend`` does.
    """
    # a lone list is walked as given: with nothing to sort, it is not copied
    if len(token_lists) == 1 and isinstance(token_lists[0], (list, tuple)):
        lists, order, followings = [token_lists[0]], (0,), ((),)
    else:
        lists = [tuple(tokens) for tokens in token_lists]
        order = sorted(range(len(lists)), key=lists.__getitem__)
        followings = [lists[j] for j in order[1:]] + [()]
    results = [-math.inf] * len(lists)
    # entry d: (beam, running total) after the list's first d tokens, None
    # once they are dead, kept while the next list shares them
    stack: list[Optional[tuple[AlignmentBeam, float]]] = [(start, 0.0)]
    emits, names, bg, bg_mask = model._emits, model._names, model._bg_class, model._bg_mask
    pos_mask, _, _, pos_bits, width, shifted_mask = model._layout
    background_logprob, decider_dist, inf = model.background_logprob, model.decider_dist, math.inf
    for i, following in zip(order, followings):
        tokens, top = lists[i], stack[-1]
        shared = sum(takewhile(bool, map(eq, tokens, following))) if following else 0
        depth, end = len(stack), len(tokens)
        while top is not None and depth <= end:
            beam, total = top
            hypotheses = beam.hypotheses
            if len(hypotheses) == 1 and not hypotheses[0][0] & pos_mask:
                # a run: step the lone background hypothesis in place, as
                # extend would, while no class enters on the next symbol; a
                # lone hypothesis's weight is its beam's norm, bit for bit
                (key, weight), = hypotheses
                context, first = beam.context, depth
                while depth <= end:
                    emit = emits.get(tokens[depth - 1])
                    if emit is None or emit[3]:
                        break  # extend refuses an unknown symbol and ranks entries
                    sid = emit[0]
                    step = (weight + decider_dist(key >> pos_bits)[bg]
                            + background_logprob(names[sid], context) + 0.0)
                    if not -inf < step < inf:
                        break  # extend ranks it
                    total += step - weight
                    key, weight = key << width & shifted_mask | emit[1], step
                    context = (context << width | sid) & bg_mask
                    if depth <= shared:
                        top = AlignmentBeam(context, depth, [_hypothesis((key, weight))], weight,
                                            beam.size_limit, beam.delta), total
                        stack.append(top)
                    depth += 1
                if depth > first and depth - 1 > shared:  # the last step pushed no beam
                    if depth > end:
                        # the run took the list's last token: EOS is its last
                        # route, with eos_logprob's bits on this lone beam
                        eos = (weight + decider_dist(key >> pos_bits)[bg]
                               + background_logprob(EOS, context) + 0.0)
                        results[i] = total + (eos - weight)
                        break
                    top = AlignmentBeam(context, depth - 1, [_hypothesis((key, weight))], weight,
                                        beam.size_limit, beam.delta), total
                if depth > end:
                    continue  # the top beam is the list's stack entry
            try:
                beam, lp = extend(model, top[0], tokens[depth - 1])
            except DeadHistoryError:
                top = None
            else:
                top = beam, top[1] + lp
            if depth <= shared:
                stack.append(top)
            depth += 1
        else:  # not scored by a run
            if top is not None:
                results[i] = top[1] + eos_logprob(model, top[0])
        del stack[shared + 1:]
    return results


def sample(model: NfclmModel, max_length: int, seed: int) -> list[str]:
    """Ancestral sample: draw a class route, then a symbol, until EOS.

    Each draw picks an index into a list the scorer reads: the route
    masses, the background's ``distribution_values`` at the sample's
    context (read uncached: sampling adds no ``_bg_cache`` row), or the
    drawn state's run of the ``probs`` column, whose index gives the arc.
    """
    COUNT.check("max_length", max_length)
    SEED.check("seed", seed)
    rng = random.Random(seed)

    def draw(weights: Sequence[float]) -> int:
        u = rng.random() * math.fsum(weights)
        running = 0.0
        last = None
        for i, p in enumerate(weights):
            if p <= 0.0:
                continue
            running += p
            last = i
            if u <= running:
                return i
        return last  # guard against rounding at the top end

    labels, fsts, alphabet = model.classes.labels, model.class_fsts, model.background.alphabet
    index = {c: i for i, c in enumerate(model.decider.alphabet)}  # a class's place in a row
    key, context = model._root, model._start_context
    out: list[str] = []
    while len(out) < max_length:
        stay, base, row, prefix = _mixture(model, key, 0.0)
        # per route, its mass and (automaton, state, successor key bits),
        # None for the background; a stay's mass is the sum of its state's
        # run of probabilities, so only the drawn route's arcs are read
        masses, routes = [], []
        if stay is not None:
            rank, lo, hi = stay
            fst, state = model._fsts[rank], key & (1 << model._state_bits) - 1
            masses.append(math.fsum(fst.probs[lo:hi]))
            routes.append((fst, state, key - state))
        if base is not None:
            for c in labels:
                fst = fsts.get(c)
                masses.append(math.exp(base + row[index[c]]))
                routes.append(None if fst is None else (fst, fst.start,
                                                        prefix | model._entry_bits[c]))
        route = routes[draw(masses)]
        if route is None:
            symbol = alphabet[draw(model.background.distribution_values(
                model._key_tokens(context)))]
            if symbol == EOS:
                break
            key = prefix | model._emits[symbol][1]
        else:
            fst, state, bits = route
            lo = fst.offsets[state]
            i = lo + draw(fst.probs[lo:fst.offsets[state + 1]])
            symbol = fst.symbols[fst.arc_ids[i]]
            key = bits | fst.dests[i]
        context = (context << model._width | model._ids[symbol]) & model._bg_mask
        out.append(symbol)
    return out
