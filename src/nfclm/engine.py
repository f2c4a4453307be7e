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

By default (``merge="context"``) the stored decider history is only the
decider's context: its last ``decider.context_size`` tokens.  Merging on
that is exact, not an approximation.  The background model reads only
the padded context that a beam keeps of its token history, and the
decider only its padded context, so two hypotheses that agree on context
and position get the same factor on every future step.  Merging them
shrinks the beam on entity text to a few hypotheses, and a step copies
at most ``context_size + 1`` tokens per hypothesis.
``merge="full"`` keeps each alignment's whole collapsed history, as in
the paper's Fig. 1 boxes; both modes extend through ``_successor``.

The beam writes the mixture step once, in ``_mixture``, which yields
once per hypothesis: a hypothesis inside a class span may stay on its
automaton's arcs, and a hypothesis whose state can exit splits the exit
mass among the classes by the decider.  ``extend``, ``eos_logprob``,
``next_dist`` and ``sample`` each add the route into class ``c`` as the
hypothesis's exit weight plus the decider row's log share of ``c``.
Arcs are read from the automata's flat columns (``ProbClassFst``): a
stay arc for a symbol is one bisect in the state's run of the id
column.  Each model indexes once, per symbol, the start arcs of the
classes that can emit it, as (log-probability, destination), so
``extend`` visits only entry routes that can emit its symbol and
``eos_logprob`` only the background route; ``next_dist`` and ``sample``
take every route.  ``exact_sequence_logprob`` is the same walk with
pruning off; the tests compare it and the beam with an alignment
enumerator written from the definitions, apart from the kernel.

Every sentence score comes from one walk, ``sequence_logprobs``: it
scores a batch of token lists in sorted order over a stack of beams, so
a prefix that several lists share (as the hypotheses of an n-best list
do) is extended once.  ``sequence_logprob`` is its one-list case.

Beam arithmetic is 64-bit log-domain with max-shifted log-sum-exp over
fixed summation orders, which keeps repeated runs bit-identical.
``next_dist`` sums in the linear domain instead, in route order: one list
sweep over a scaled copy of the background's ``distribution_values`` and
each class route's arc columns, entry routes' built once per model, a
stay route's sliced from its state's run.

The background and decider lookups are memoized per context key
(``ConditionalSymbolModel.context_key``), for an n-gram the longest
suffix of the padded context that has a count table.  Contexts that
share a key share every value, so the caches hold at most one row per
stored context plus one, however much a model scores.

Model components never change after construction, so one model can
serve any number of concurrent scoring sessions; beams are cheap
per-session values.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import repeat
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .classfst import ProbClassFst
from .seqmodel import ConditionalSymbolModel, DeciderModel, Rule
from .vocab import BACKGROUND, BOS, EOS, ClassAlphabet, Vocabulary

EPSILON = "<eps>"

DEFAULT_BEAM_SIZE = 100
DEFAULT_BEAM_DELTA = 30.0
# a beam size no beam reaches: with an infinite delta, pruning is off
EXACT_BEAM_SIZE = 10 ** 6

# what a hypothesis keeps of its decider history: the decider's context,
# or the whole collapsed history
MERGE_MODES = ("context", "full")

# background position: the hypothesis is not inside any class span
Position = Optional[tuple[str, int]]


class DeadHistoryError(Exception):
    """No alignment generates ``symbol`` after the first ``position`` tokens."""

    def __init__(self, position: int, symbol: str):
        self.position = position
        self.symbol = symbol
        super().__init__(f"no alignment can generate {symbol!r} at position {position}")


class ComponentError(ValueError):
    """A model component that does not fit the others.

    ``component`` is ``"background"``, ``"decider"`` or a class label.
    """

    def __init__(self, component: str, message: str):
        super().__init__(message)
        self.component = component


class AlignmentHypothesis(NamedTuple):
    """One class alignment of the consumed history.

    ``decider_history`` is the collapsed history as far as the decider
    can see it: its last ``decider.context_size`` tokens under
    ``merge="context"``, all of it under ``merge="full"``.  Alignments
    that agree on it and on ``position`` score every continuation alike,
    so the beam holds them as one hypothesis.
    """

    decider_history: tuple[str, ...]
    position: Position
    log_weight: float


@dataclass
class AlignmentBeam:
    """Bounded set of alignment hypotheses for one token history.

    Of that history it keeps ``context``, the background's padded
    context, and ``length``.  ``log_norm``, the log of the kept
    hypotheses' total weight, turns their joint weights into posteriors.
    """

    context: tuple[str, ...]
    length: int
    hypotheses: list[AlignmentHypothesis]
    log_norm: float = 0.0
    size_limit: int = DEFAULT_BEAM_SIZE
    delta: float = DEFAULT_BEAM_DELTA


class DeciderRow(dict):
    """A decider distribution ``{class: share}`` that also holds ``logs``,
    ``{class: log share}`` in class-alphabet order."""

    __slots__ = ("logs",)

    def __init__(self, distribution: dict[str, float], labels: Sequence[str]):
        super().__init__(distribution)
        self.logs = {c: math.log(self[c]) for c in labels}


@dataclass
class NfclmModel:
    """Background model + per-class FSTs mixed by the decider.

    Fields must not change after construction, which derives lookup
    tables and the ``merge`` bound from them; build a variant with
    ``dataclasses.replace`` instead.  ``RULES`` checks each setting.
    """

    # exact types, so that True is no beam size; NaN fails ``>= 0``
    RULES = {
        "beam_size": Rule("an int >= 1", lambda v: type(v) is int and v >= 1),
        "beam_delta": Rule("a number >= 0", lambda v: type(v) in (int, float) and v >= 0),
        "merge": Rule(f"one of {MERGE_MODES}", lambda v: v in MERGE_MODES),
    }

    vocabulary: Vocabulary
    classes: ClassAlphabet
    background: ConditionalSymbolModel
    class_fsts: dict[str, ProbClassFst]
    decider: DeciderModel
    beam_size: int = DEFAULT_BEAM_SIZE
    beam_delta: float = DEFAULT_BEAM_DELTA
    merge: str = "context"

    def __post_init__(self):
        for name, rule in self.RULES.items():
            rule.check(name, getattr(self, name))
        wanted = set(self.classes.nonbackground)
        have = set(self.class_fsts)
        if wanted != have:
            raise ValueError(
                f"class FSTs {sorted(have)} do not match class alphabet {sorted(wanted)}"
            )
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
        self._predicted = self.vocabulary.symbols + (EOS,)
        # what next_dist reads as index columns over ``_predicted``: per
        # class, the position of each automaton symbol id; the entry routes
        # as (class, positions, probabilities) of the start state's arcs; and
        # the background alphabet's positions, None when it runs in this order
        position = {sym: i for i, sym in enumerate(self._predicted)}.__getitem__
        self._arc_positions = {c: list(map(position, fst.symbols))
                               for c, fst in self.class_fsts.items()}
        # per symbol (EOS included), the entry routes that can emit it: each
        # class whose start state has an arc for it, in alphabet order, as
        # (class, log probability, destination) of that arc
        entries: dict[str, list] = {sym: [] for sym in self._predicted}
        entry_columns = []
        for c in self.classes.nonbackground:
            fst = self.class_fsts[c]
            arcs = fst.arcs[fst.start]
            for sym, (p, dest) in arcs.items():
                entries[sym].append((c, math.log(p), dest))
            entry_columns.append((c, list(map(position, arcs)), [p for p, _ in arcs.values()]))
        self._entry_arcs = {sym: tuple(arcs) for sym, arcs in entries.items()}
        self._entry_columns = tuple(entry_columns)
        bg_alphabet = tuple(self.background.alphabet)
        self._bg_order = (None if bg_alphabet == self._predicted else
                          list(map({s: i for i, s in enumerate(bg_alphabet)}.__getitem__,
                                   self._predicted)))
        self._bg_context_size = self.background.context_size
        self._decider_context_size = self.decider.context_size
        self._bg_key = self.background.context_key
        self._decider_key = self.decider.context_key
        # trailing decider tokens a hypothesis keeps under ``merge``
        self._history_bound = (self._decider_context_size if self.merge == "context"
                               else sys.maxsize)
        self._bg_cache: dict[tuple[str, ...], dict[str, float]] = {}
        self._decider_cache: dict[tuple[str, ...], DeciderRow] = {}

    # -- component lookups ------------------------------------------------

    def background_logprob(self, symbol: str, history: Sequence[str]) -> float:
        """Background log P(symbol | history), memoized per context key.

        The cache holds one ``{symbol: logprob}`` row per key of the padded
        context (``background.context_key``), so a model with stored
        contexts bounds its rows.  A padded context that is a key is its
        own row, found by the first lookup; only a miss computes the key.
        A tuple of ``context_size`` symbols, such as a beam's context, is
        its own padded context.
        """
        size = self._bg_context_size
        context = (history if type(history) is tuple and len(history) == size
                   else _context(history, size))
        row = self._bg_cache.get(context)
        if row is None:
            key = self._bg_key(context)
            row = self._bg_cache.get(key)
            if row is None:
                row = self._bg_cache.setdefault(key, {})
        hit = row.get(symbol)
        if hit is None:
            hit = self.background.logprob(symbol, context)
            row[symbol] = hit
        return hit

    def decider_dist(self, decider_history: tuple[str, ...]) -> DeciderRow:
        """Renormalized class distribution for a collapsed history.

        The cache is keyed like ``background_logprob``'s, by the key of the
        padded context.  A stored history of exactly ``context_size``
        tokens is its own padded context; a shorter one is padded first,
        because it may equal the key of another context.  Each row also
        holds the log shares that the mixture step adds.
        """
        context = (decider_history if len(decider_history) == self._decider_context_size
                   else _context(decider_history, self._decider_context_size))
        hit = self._decider_cache.get(context)
        if hit is None:
            key = self._decider_key(context)
            hit = self._decider_cache.get(key)
            if hit is None:
                hit = self._decider_cache.setdefault(
                    key, DeciderRow(self.decider.distribution(context), self.classes.labels))
        return hit


def _check_histories(name: str, component: ConditionalSymbolModel, needed: set) -> None:
    """Raise ComponentError unless ``component`` reads histories of ``needed``."""
    if component.history_alphabet is None:
        return
    missing = sorted(needed - component.history_alphabet)
    if missing:
        more = f" and {len(missing) - 1} more" if len(missing) > 1 else ""
        raise ComponentError(name, f"{name} history alphabet lacks {missing[0]!r}{more}")


def _context(history: Sequence[str], size: int) -> tuple[str, ...]:
    """The last ``size`` symbols of ``history``, padded with BOS on the left."""
    history = tuple(history)
    n = len(history)
    return history[n - size:] if n >= size else (BOS,) * (size - n) + history


def start_beam(model: NfclmModel) -> AlignmentBeam:
    root = AlignmentHypothesis(decider_history=(), position=None, log_weight=0.0)
    return AlignmentBeam(context=(BOS,) * model._bg_context_size, length=0, hypotheses=[root],
                         log_norm=0.0, size_limit=model.beam_size, delta=model.beam_delta)


def log_sum_exp(values: Sequence[float]) -> float:
    if len(values) == 1:
        return values[0] + 0.0  # the bits of best + log(1.0), -inf and -0.0 included
    best = max(values)
    if best == -math.inf:
        return -math.inf
    return best + math.log(math.fsum(math.exp(v - best) for v in values))


def _mixture(model: NfclmModel, hypotheses: Sequence[AlignmentHypothesis],
             symbol: Optional[str] = None):
    """The mixture step, once per hypothesis, in hypothesis order.

    Yields ``(hypothesis, stay, base, row)``.  Inside a class span,
    ``stay`` is, for a ``symbol``, the arc ``(probability, destination)``
    that emits it from the hypothesis's state, or None; with no ``symbol``,
    the state's run ``(lo, hi)`` of the automaton's arc columns.  A stay
    weighs the hypothesis weight: arc probabilities already carry the stay
    mass.  ``stay`` is None in the background.  ``base`` is the weight of
    leaving the position, the hypothesis weight plus log exit probability,
    and ``row`` the hypothesis's ``DeciderRow``; both are None when the
    state cannot exit.  The route into class ``c`` weighs
    ``base + row.logs[c]``, to which callers add the emitted symbol's
    log-probability.
    """
    class_fsts, decider_dist, log = model.class_fsts, model.decider_dist, math.log
    for hyp in hypotheses:
        dh, position, log_weight = hyp
        if position is None:
            yield hyp, None, log_weight, decider_dist(dh)
            continue
        label, state = position
        fst = class_fsts[label]
        offsets = fst.offsets
        if symbol is None:
            stay = offsets[state], offsets[state + 1]
        else:
            stay = None
            sid = fst.ids.get(symbol)
            if sid is not None:
                arc_ids, hi = fst.arc_ids, offsets[state + 1]
                i = bisect_left(arc_ids, sid, offsets[state], hi)
                if i < hi and arc_ids[i] == sid:
                    stay = fst.probs[i], fst.dests[i]
        exit_p = fst.exits[state]
        if exit_p == 0.0:
            yield hyp, stay, None, None
        else:
            yield hyp, stay, log_weight + log(exit_p), decider_dist(dh)


def _successor(hyp: AlignmentHypothesis, route: str, symbol: str,
               dest: Optional[int], bound: int) -> tuple[tuple[str, ...], Position]:
    """(decider history, position) after ``route`` emits ``symbol`` into ``dest``.

    The history keeps its last ``bound`` tokens (``model._history_bound``).
    """
    if route == EPSILON:
        return hyp.decider_history, (hyp.position[0], dest)
    if route == BACKGROUND:
        dh, position = hyp.decider_history + (symbol,), None
    else:
        dh, position = hyp.decider_history + (route,), (route, dest)
    return (dh[len(dh) - bound:] if len(dh) > bound else dh), position


def extend(model: NfclmModel, beam: AlignmentBeam, symbol: str) -> tuple[AlignmentBeam, float]:
    """Advance the beam by one symbol; returns (new beam, log P(symbol | history)).

    Successors sharing (decider history, position) are merged by
    log-sum-exp before pruning to the size and log-width limits; the
    history is bounded as ``model.merge`` says.  Only the
    entry routes that can emit ``symbol`` are visited, and hypotheses are
    built only for the successors that survive pruning; a lone finite
    successor is kept without ranking.
    """
    if symbol not in model.vocabulary:
        raise KeyError(f"symbol {symbol!r} is outside the vocabulary")
    bg_lp = model.background_logprob(symbol, beam.context)
    entries = model._entry_arcs[symbol]
    bound = model._history_bound
    log = math.log
    merged: dict[tuple, list[float]] = {}
    for hyp, stay, base, row in _mixture(model, beam.hypotheses, symbol):
        if stay is not None:
            prob, dest = stay
            merged.setdefault(_successor(hyp, EPSILON, symbol, dest, bound), []).append(
                hyp.log_weight + log(prob))
        if base is not None:
            logs = row.logs
            merged.setdefault(_successor(hyp, BACKGROUND, symbol, None, bound), []).append(
                base + logs[BACKGROUND] + bg_lp)
            for c, log_p, dest in entries:
                merged.setdefault(_successor(hyp, c, symbol, dest, bound), []).append(
                    base + logs[c] + log_p)
    if not merged:
        raise DeadHistoryError(beam.length, symbol)
    context = _context(beam.context + (symbol,), model._bg_context_size)
    if len(merged) == 1:
        # one finite successor survives any pruning; these are the bits
        # the ranked path below gives it
        ((dh, pos), weights), = merged.items()
        weight = log_sum_exp(weights)
        if -math.inf < weight < math.inf:
            total = weight + 0.0  # log_sum_exp([weight])
            return AlignmentBeam(context, beam.length + 1, [AlignmentHypothesis(dh, pos, weight)],
                                 total, beam.size_limit, beam.delta), total - beam.log_norm

    # best first, ties by (decider history, position), which no two share,
    # with the background position, as (), first; each rank holds the
    # negated weight
    ranked = sorted((-log_sum_exp(weights), len(dh), dh, pos or (), pos)
                    for (dh, pos), weights in merged.items())
    # log_sum_exp is max plus an exactly rounded fsum: any term order gives its bits
    total = log_sum_exp([-rank[0] for rank in ranked])
    step_logprob = total - beam.log_norm

    kept = ranked[: beam.size_limit]
    best = -kept[0][0]
    kept = [rank for rank in kept if best + rank[0] <= beam.delta]
    hypotheses = [AlignmentHypothesis(dh, pos, -neg) for neg, _, dh, _, pos in kept]

    new_norm = (total if len(kept) == len(ranked)
                else log_sum_exp([h.log_weight for h in hypotheses]))
    return AlignmentBeam(context, beam.length + 1, hypotheses, new_norm,
                         beam.size_limit, beam.delta), step_logprob


def eos_logprob(model: NfclmModel, beam: AlignmentBeam) -> float:
    """log P(EOS | history) under the beam; -inf when no alignment can stop."""
    eos_lp = model.background_logprob(EOS, beam.context)
    # EOS has the background route alone; no automaton arc emits it
    contributions = [base + row.logs[BACKGROUND] + eos_lp
                     for _, _, base, row in _mixture(model, beam.hypotheses, EOS)
                     if base is not None]
    if not contributions:
        return -math.inf
    return log_sum_exp(contributions) - beam.log_norm


def advance(model: NfclmModel, symbols: Sequence[str]) -> AlignmentBeam:
    """Beam after consuming ``symbols`` from the start state."""
    beam = start_beam(model)
    for sym in symbols:
        beam, _ = extend(model, beam, sym)
    return beam


def next_dist(model: NfclmModel, beam: AlignmentBeam) -> dict[str, float]:
    """Next-symbol distribution over the vocabulary plus EOS, in that order.

    One linear-domain sweep over the routes, filling one list in
    vocabulary order: the background routes' posterior weight times one
    background ``distribution_values``, plus each class route's posterior
    weight times its arcs, read as index and probability columns.  Entry
    ``s`` equals ``exp`` of ``extend``'s step log-probability for ``s``
    within 1e-12 relative (0 where ``extend`` finds no alignment).
    """
    background: list[float] = []
    classes: list[tuple] = []
    class_fsts, positions = model.class_fsts, model._arc_positions
    for hyp, stay, base, row in _mixture(model, beam.hypotheses):
        if stay is not None:  # a stay route's arc ids map to positions here
            label = hyp.position[0]
            fst, (lo, hi) = class_fsts[label], stay
            classes.append((map(positions[label].__getitem__, fst.arc_ids[lo:hi]),
                            fst.probs[lo:hi], hyp.log_weight))
        if base is not None:
            logs = row.logs
            background.append(base + logs[BACKGROUND])
            for c, where, probs in model._entry_columns:
                classes.append((where, probs, base + logs[c]))
    if background:
        scale = math.exp(log_sum_exp(background) - beam.log_norm)
        bg = model.background.distribution_values(beam.context)
        if model._bg_order is not None:
            bg = map(bg.__getitem__, model._bg_order)
        values = list(map(mul, repeat(scale), bg))
    else:
        values = [0.0] * len(model._predicted)
    for where, probs, lw in classes:
        weight = math.exp(lw - beam.log_norm)
        for i, p in zip(where, probs):
            values[i] += weight * p
    return dict(zip(model._predicted, values))


def sequence_logprob(model: NfclmModel, symbols: Sequence[str]) -> float:
    """Sentence log-probability including the end-of-sentence factor.

    The one-list case of ``sequence_logprobs``; a dead history yields -inf.
    """
    return sequence_logprobs(model, [symbols])[0]


def exact_sequence_logprob(model: NfclmModel, symbols: Sequence[str]) -> float:
    """Sentence log-probability, EOS included, with pruning off.

    ``sequence_logprob`` on ``model`` with ``EXACT_BEAM_SIZE`` and an
    infinite ``beam_delta``: the forward algorithm over merged alignments,
    exact at any length.
    """
    return sequence_logprob(replace(model, beam_size=EXACT_BEAM_SIZE, beam_delta=math.inf),
                            symbols)


def sequence_logprobs(model: NfclmModel,
                      token_lists: Sequence[Sequence[str]]) -> list[float]:
    """Sentence log-probability, EOS included, of each list, in input order.

    The lists are walked in sorted order over a stack whose entry ``d``
    holds (beam, running total) after ``d`` tokens, so a prefix shared
    by several lists is extended once.  A prefix with no surviving
    alignment is marked dead and every list that starts with it scores
    -inf.  ``extend`` depends only on (model, beam, symbol) and totals are
    summed in token order, so each result has the bits of scoring that
    list alone.  The stack holds at most one beam, of O(context)
    tokens, per token of the longest list.
    """
    lists = [tuple(tokens) for tokens in token_lists]
    results = [-math.inf] * len(lists)
    stack: list[Optional[tuple[AlignmentBeam, float]]] = [(start_beam(model), 0.0)]
    previous: tuple[str, ...] = ()
    for i in sorted(range(len(lists)), key=lists.__getitem__):
        tokens = lists[i]
        # the stack holds prefixes of ``previous``; keep those shared with ``tokens``
        depth = 0
        limit = min(len(stack) - 1, len(tokens))
        while depth < limit and tokens[depth] == previous[depth]:
            depth += 1
        del stack[depth + 1:]
        previous = tokens
        for sym in tokens[depth:]:
            top = stack[-1]
            if top is None:
                break
            try:
                beam, lp = extend(model, top[0], sym)
            except DeadHistoryError:
                stack.append(None)
            else:
                stack.append((beam, top[1] + lp))
        top = stack[-1]
        if top is not None:
            results[i] = top[1] + eos_logprob(model, top[0])
    return results


def sample(model: NfclmModel, max_length: int, seed: int) -> list[str]:
    """Ancestral sample: draw a class route, then a symbol, until EOS."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    rng = random.Random(seed)

    def draw(dist: dict[str, float]) -> str:
        u = rng.random() * math.fsum(dist.values())
        running = 0.0
        last = None
        for key, p in dist.items():
            if p <= 0.0:
                continue
            running += p
            last = key
            if u <= running:
                return key
        return last  # guard against rounding at the top end

    hyp = AlignmentHypothesis(decider_history=(), position=None, log_weight=0.0)
    out: list[str] = []
    while len(out) < max_length:
        (_, stay, base, row), = _mixture(model, [hyp])
        routes = {}  # route -> (arcs, log weight); the background's arcs are None
        if stay is not None:
            label, state = hyp.position
            routes[EPSILON] = model.class_fsts[label].arcs[state], hyp.log_weight
        if base is not None:
            for c, log_share in row.logs.items():
                fst = model.class_fsts.get(c)
                routes[c] = (None if fst is None else fst.arcs[fst.start]), base + log_share
        # the stay route's mass is that of its arcs; the others carry it in lw
        route = draw({
            route: math.fsum(p for p, _ in arcs.values()) if route == EPSILON
            else math.exp(lw)
            for route, (arcs, lw) in routes.items()
        })
        arcs = routes[route][0]
        if arcs is None:
            symbol = draw(model.background.distribution(
                _context(out, model._bg_context_size)))
            if symbol == EOS:
                break
            dest = None
        else:
            symbol = draw({sym: p for sym, (p, _) in arcs.items()})
            dest = arcs[symbol][1]
        dh, position = _successor(hyp, route, symbol, dest, model._history_bound)
        hyp = AlignmentHypothesis(dh, position, 0.0)
        out.append(symbol)
    return out
