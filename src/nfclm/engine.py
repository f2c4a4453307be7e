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
that is exact, not an approximation.  The background model conditions
on the token history, which every hypothesis of a beam shares, and the
decider reads only its padded context, so two hypotheses that agree on
context and position get the same factor on every future step.  Merging
them shrinks the beam on entity text to a few hypotheses, and a step
copies at most ``context_size + 1`` tokens per hypothesis.
``merge="full"`` keeps each alignment's whole collapsed history, as in
the paper's Fig. 1 boxes; both modes extend through ``_successor``.

The beam writes the mixture step once, in ``_routes``: a hypothesis
inside a class span may stay on its automaton's arcs, and a hypothesis
whose state can exit splits the exit mass among the classes by the
decider.  ``extend``, ``eos_logprob``, ``next_dist`` and ``sample`` all
read those routes.  The routes are filtered by symbol: each model indexes
once, per symbol, the background route and the classes whose start state
has an arc for it, so ``extend`` visits only routes that can emit its
symbol and ``eos_logprob`` only the background route; ``next_dist`` and
``sample`` take every route.  The exact oracle (``exact_*``, at most
``EXACT_HISTORY_LIMIT`` symbols) enumerates alignments from the
definitions without them, so comparing the two checks the beam path.

Every sentence score comes from one walk, ``sequence_logprobs``: it
scores a batch of token lists in sorted order over a stack of beams, so
a prefix that several lists share (as the hypotheses of an n-best list
do) is extended once.  ``sequence_logprob`` is its one-list case.

Beam arithmetic is 64-bit log-domain with max-shifted log-sum-exp over
fixed summation orders, which keeps repeated runs bit-identical.
``next_dist`` sums in the linear domain instead: each route's posterior
weight times its probabilities, one product per symbol it can emit.

Model components never change after construction (internal lookup caches
only memoize idempotent values), so one model can serve any number of
concurrent scoring sessions; beams are cheap per-session values.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .classfst import ProbClassFst
from .seqmodel import ConditionalSymbolModel, DeciderModel, Rule
from .vocab import BACKGROUND, BOS, EOS, ClassAlphabet, Vocabulary

EPSILON = "<eps>"

DEFAULT_BEAM_SIZE = 100
DEFAULT_BEAM_DELTA = 30.0

EXACT_HISTORY_LIMIT = 12

# what a hypothesis keeps of its decider history: the decider's context,
# or the whole collapsed history
MERGE_MODES = ("context", "full")

# background position: the hypothesis is not inside any class span
Position = Optional[tuple[str, int]]


class DeadHistoryError(Exception):
    """Every alignment assigns the extension probability zero."""

    def __init__(self, history: Sequence[str], symbol: str):
        self.history = tuple(history)
        self.symbol = symbol
        super().__init__(
            f"no alignment can generate {symbol!r} after {' '.join(self.history) or '<start>'}"
        )


class ComponentError(ValueError):
    """A model component that does not fit the others.

    ``component`` is ``"background"``, ``"decider"`` or a class label.
    """

    def __init__(self, component: str, message: str):
        super().__init__(message)
        self.component = component


@dataclass(frozen=True)
class AlignmentHypothesis:
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

    @property
    def key(self) -> tuple[tuple[str, ...], Position]:
        return (self.decider_history, self.position)


@dataclass
class AlignmentBeam:
    """Bounded set of alignment hypotheses for one token history.

    ``log_norm`` is the log of the kept hypotheses' total weight, which
    turns their joint weights into posteriors.
    """

    history: tuple[str, ...]
    hypotheses: list[AlignmentHypothesis]
    log_norm: float = 0.0
    size_limit: int = DEFAULT_BEAM_SIZE
    delta: float = DEFAULT_BEAM_DELTA

    def decider_histories(self) -> list[tuple[str, ...]]:
        return [h.decider_history for h in self.hypotheses]


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
        for label, fst in self.class_fsts.items():
            if fst.label != label:
                raise ComponentError(label, f"FST labeled {fst.label!r} registered under "
                                            f"{label!r}")
            for out in fst.arcs:
                for sym in out:
                    if sym not in self.vocabulary:
                        raise ComponentError(
                            label, f"{label}: arc symbol {sym!r} is outside the vocabulary")
        symbols = set(self.vocabulary.symbols)
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
        # (class, arcs out of its start state; None for the background) in
        # alphabet order: the routes of every hypothesis whose state exits
        self._entry_routes = tuple(
            (c, None) if c == BACKGROUND
            else (c, self.class_fsts[c].arcs[self.class_fsts[c].start])
            for c in self.classes.labels)
        self._predicted = self.vocabulary.symbols + (EOS,)
        # per symbol (EOS included), the entry routes that can emit it: the
        # background route and each class whose start state has an arc for it
        self._symbol_routes = {
            sym: tuple((c, arcs) for c, arcs in self._entry_routes
                       if arcs is None or sym in arcs)
            for sym in self._predicted}
        self._bg_context_size = self.background.context_size
        self._decider_context_size = self.decider.context_size
        # trailing decider tokens a hypothesis keeps under ``merge``
        self._history_bound = (self._decider_context_size if self.merge == "context"
                               else sys.maxsize)
        self._bg_cache: dict[tuple[str, ...], dict[str, float]] = {}
        self._decider_cache: dict[tuple[str, ...], dict[str, float]] = {}

    # -- component lookups ------------------------------------------------

    def background_logprob(self, symbol: str, history: Sequence[str]) -> float:
        """Background log P(symbol | history), memoized per padded context.

        The cache holds one ``{symbol: logprob}`` row per context, so a
        hit costs two dict lookups and builds no key tuple.
        """
        context = _context(history, self._bg_context_size)
        row = self._bg_cache.get(context)
        if row is None:
            row = self._bg_cache.setdefault(context, {})
        hit = row.get(symbol)
        if hit is None:
            hit = self.background.logprob(symbol, context)
            row[symbol] = hit
        return hit

    def decider_dist(self, decider_history: Sequence[str]) -> dict[str, float]:
        """Renormalized class distribution for a collapsed history."""
        context = _context(decider_history, self._decider_context_size)
        hit = self._decider_cache.get(context)
        if hit is None:
            hit = self.decider.distribution(context)
            self._decider_cache[context] = hit
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


def last_class(alignment: Sequence[str], candidate: str) -> str:
    """Last non-continuation label of ``alignment + [candidate]`` (or the marker)."""
    if candidate != EPSILON:
        return candidate
    for label in reversed(alignment):
        if label != EPSILON:
            return label
    return EPSILON


def class_prefix(history: Sequence[str], alignment: Sequence[str], label: str) -> tuple[str, ...]:
    """Symbols of the open span of ``label`` at the end of the history.

    Empty unless the alignment currently sits inside ``label``: the last
    labels must be ``label`` followed only by continuation markers.
    """
    if len(history) != len(alignment):
        raise ValueError(
            f"history length {len(history)} != alignment length {len(alignment)}"
        )
    i = len(alignment) - 1
    while i >= 0 and alignment[i] == EPSILON:
        i -= 1
    if i < 0 or alignment[i] != label or label in (BACKGROUND, EPSILON):
        return ()
    return tuple(history[i:])


def decider_history(history: Sequence[str], alignment: Sequence[str]) -> tuple[str, ...]:
    """Collapse an aligned history: spans become one class token each."""
    if len(history) != len(alignment):
        raise ValueError(
            f"history length {len(history)} != alignment length {len(alignment)}"
        )
    out: list[str] = []
    for i, label in enumerate(alignment):
        if label == EPSILON:
            if i == 0 or alignment[i - 1] == BACKGROUND:
                raise ValueError(f"continuation marker at position {i} has no open span")
            continue
        out.append(history[i] if label == BACKGROUND else label)
    return tuple(out)


def start_beam(model: NfclmModel) -> AlignmentBeam:
    root = AlignmentHypothesis(decider_history=(), position=None, log_weight=0.0)
    return AlignmentBeam(history=(), hypotheses=[root], log_norm=0.0,
                         size_limit=model.beam_size, delta=model.beam_delta)


def log_sum_exp(values: Sequence[float]) -> float:
    if len(values) == 1:
        return values[0] + 0.0  # the bits of best + log(1.0), -inf and -0.0 included
    best = max(values)
    if best == -math.inf:
        return -math.inf
    return best + math.log(math.fsum(math.exp(v - best) for v in values))


def _position_sort_key(position: Position) -> tuple[str, int]:
    return ("", -1) if position is None else position


def _routes(model: NfclmModel, hypotheses: Sequence[AlignmentHypothesis],
            entries: Sequence[tuple[str, Optional[dict]]]):
    """The mixture step: the routes out of each hypothesis, in a fixed order.

    Yields ``(hypothesis, route, arcs, log_weight)``.  A hypothesis inside
    a class span first yields its stay route (``route`` is EPSILON): the
    raw arcs at its class state, whose probabilities already carry the
    stay mass, at the hypothesis weight.  If its state can exit, one route
    per entry of ``entries`` follows, weighted hypothesis weight + log
    exit + log decider share: the background route has ``arcs`` None and
    takes the background model's symbol probability, an entry route the
    arcs out of its class automaton's start state.  ``entries`` is
    ``model._entry_routes`` (every class, in alphabet order) or the part
    of it that can emit one symbol, ``model._symbol_routes[symbol]``.
    Callers add the emitted symbol's log-probability to ``log_weight``.
    """
    for hyp in hypotheses:
        if hyp.position is None:
            log_exit = 0.0
        else:
            label, state = hyp.position
            fst = model.class_fsts[label]
            yield hyp, EPSILON, fst.arcs[state], hyp.log_weight
            exit_p = fst.exit_prob(state)
            if exit_p == 0.0:
                continue
            log_exit = math.log(exit_p)
        decider = model.decider_dist(hyp.decider_history)
        base = hyp.log_weight + log_exit
        for c, arcs in entries:
            yield hyp, c, arcs, base + math.log(decider[c])


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
    built only for the successors that survive pruning.
    """
    if symbol not in model.vocabulary:
        raise KeyError(f"symbol {symbol!r} is outside the vocabulary")
    bg_lp = model.background_logprob(symbol, beam.history)
    bound = model._history_bound
    merged: dict[tuple, list[float]] = {}
    for hyp, route, arcs, lw in _routes(model, beam.hypotheses,
                                        model._symbol_routes[symbol]):
        if arcs is None:
            dest, lw = None, lw + bg_lp
        else:
            hit = arcs.get(symbol)
            if hit is None:
                continue
            arc, dest = hit
            lw += math.log(arc)
        key = _successor(hyp, route, symbol, dest, bound)
        slot = merged.get(key)
        if slot is None:
            merged[key] = [lw]
        else:
            slot.append(lw)
    if not merged:
        raise DeadHistoryError(beam.history, symbol)

    # best first, ties by (decider history, position), which no two share;
    # each rank holds the negated weight
    ranked = sorted((-log_sum_exp(weights), len(dh), dh, _position_sort_key(pos), pos)
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
    return AlignmentBeam(beam.history + (symbol,), hypotheses, new_norm,
                         beam.size_limit, beam.delta), step_logprob


def eos_logprob(model: NfclmModel, beam: AlignmentBeam) -> float:
    """log P(EOS | history) under the beam; -inf when no alignment can stop."""
    eos_lp = model.background_logprob(EOS, beam.history)
    # EOS has the background route alone; stay routes (arcs set) cannot emit it
    contributions = [lw + eos_lp for _, _, arcs, lw
                     in _routes(model, beam.hypotheses, model._symbol_routes[EOS])
                     if arcs is None]
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

    One linear-domain sweep over the routes: the background routes'
    posterior weight times one background distribution, plus each class
    route's posterior weight times its arcs.  Entry ``s`` equals ``exp``
    of ``extend``'s step log-probability for ``s`` within 1e-12 relative
    (0 where ``extend`` finds no alignment).
    """
    background: list[float] = []
    classes: list[tuple[dict, float]] = []
    for _, _, arcs, lw in _routes(model, beam.hypotheses, model._entry_routes):
        if arcs is None:
            background.append(lw)
        else:
            classes.append((arcs, lw))
    if background:
        scale = math.exp(log_sum_exp(background) - beam.log_norm)
        bg = model.background.distribution(_context(beam.history, model._bg_context_size))
        dist = {sym: scale * bg[sym] for sym in model._predicted}
    else:
        dist = dict.fromkeys(model._predicted, 0.0)
    for arcs, lw in classes:
        weight = math.exp(lw - beam.log_norm)
        for sym, (arc, _) in arcs.items():
            dist[sym] += weight * arc
    return dist


# -- exact enumeration (the oracle path) ----------------------------------

def _alignment_exit(model: NfclmModel, history: tuple[str, ...],
                    alignment: tuple[str, ...]) -> Optional[float]:
    """Exit probability after an aligned history; None off the automaton."""
    open_label = last_class(alignment, EPSILON)
    if open_label in (EPSILON, BACKGROUND):
        return 1.0
    fst = model.class_fsts[open_label]
    state = fst.walk(class_prefix(history, alignment, open_label))
    return None if state is None else fst.exit_prob(state)


def _stop_mass(model: NfclmModel, history: tuple[str, ...],
               alignment: tuple[str, ...], weight: float) -> float:
    """Joint probability of an alignment of weight ``weight`` followed by EOS."""
    exit_p = _alignment_exit(model, history, alignment)
    if not exit_p:
        return 0.0
    dh = decider_history(history, alignment)
    return (weight * exit_p * model.decider_dist(dh)[BACKGROUND]
            * math.exp(model.background_logprob(EOS, history)))


def _alignment_step(model: NfclmModel, history: tuple[str, ...],
                    alignment: tuple[str, ...], candidate: str,
                    symbol: str) -> float:
    """Probability contribution of one (emission, symbol) step, from definitions."""
    exit_p = _alignment_exit(model, history, alignment)
    if exit_p is None:
        return 0.0
    if candidate == EPSILON:
        emission = 1.0 - exit_p
    else:
        if exit_p == 0.0:
            return 0.0
        dh = decider_history(history, alignment)
        emission = exit_p * model.decider_dist(dh)[candidate]
    if emission == 0.0:
        return 0.0

    effective = last_class(alignment, candidate)
    if effective == EPSILON:
        return 0.0
    if effective == BACKGROUND:
        component = math.exp(model.background_logprob(symbol, history))
    else:
        fst = model.class_fsts[effective]
        if candidate == EPSILON:
            state = fst.walk(class_prefix(history, alignment, effective))
            if state is None:
                return 0.0
            arc = fst.arc_prob(state, symbol)
            component = arc / (1.0 - fst.exit_prob(state)) if arc else 0.0
        else:
            component = fst.arc_prob(fst.start, symbol)
    return emission * component


def _enumerate_alignments(model: NfclmModel, history: tuple[str, ...]):
    """All (alignment, joint probability) pairs with nonzero weight.

    Depth-first over label choices, dropping a branch as soon as a factor
    is zero; probabilities are per-step products of emission and
    component terms computed from the alignment definitions alone.
    """
    labels = (EPSILON, BACKGROUND) + model.classes.nonbackground
    results: list[tuple[tuple[str, ...], float]] = []

    def descend(i: int, alignment: tuple[str, ...], weight: float) -> None:
        if i == len(history):
            results.append((alignment, weight))
            return
        for candidate in labels:
            p = _alignment_step(model, history[:i], alignment, candidate, history[i])
            if p > 0.0:
                descend(i + 1, alignment + (candidate,), weight * p)

    descend(0, (), 1.0)
    return results


def exact_alignment_histories(model: NfclmModel, history: Sequence[str]) -> set[tuple[str, ...]]:
    """Collapsed decider histories of every nonzero-probability alignment."""
    history = tuple(history)
    return {
        decider_history(history, alignment)
        for alignment, _ in _enumerate_alignments(model, history)
    }


def _oracle_input(model: NfclmModel, symbols: Sequence[str]) -> tuple[str, ...]:
    """``symbols`` as a tuple, checked against the length limit and the vocabulary."""
    symbols = tuple(symbols)
    if len(symbols) > EXACT_HISTORY_LIMIT:
        raise ValueError(
            f"input of {len(symbols)} symbols exceeds the exact-oracle limit "
            f"({EXACT_HISTORY_LIMIT})"
        )
    for sym in symbols:
        if sym not in model.vocabulary:
            raise KeyError(f"symbol {sym!r} is outside the vocabulary")
    return symbols


def exact_next_dist(model: NfclmModel, history: Sequence[str]) -> dict[str, float]:
    """Next-symbol distribution by exhaustive alignment enumeration."""
    history = _oracle_input(model, history)
    alignments = _enumerate_alignments(model, history)
    if not alignments:
        raise DeadHistoryError(history, "<next>")
    marginal = math.fsum(w for _, w in alignments)
    labels = (EPSILON, BACKGROUND) + model.classes.nonbackground
    masses: dict[str, list[float]] = {sym: [] for sym in model.vocabulary.symbols}
    masses[EOS] = []
    for alignment, weight in alignments:
        for sym in model.vocabulary.symbols:
            for candidate in labels:
                p = _alignment_step(model, history, alignment, candidate, sym)
                if p > 0.0:
                    masses[sym].append(weight * p)
        masses[EOS].append(_stop_mass(model, history, alignment, weight))
    return {sym: math.fsum(values) / marginal for sym, values in masses.items()}


def exact_sequence_logprob(model: NfclmModel, symbols: Sequence[str]) -> float:
    """Sentence log-probability, EOS included, by exhaustive enumeration."""
    symbols = _oracle_input(model, symbols)
    total = math.fsum(_stop_mass(model, symbols, alignment, weight)
                      for alignment, weight in _enumerate_alignments(model, symbols))
    return math.log(total) if total > 0.0 else -math.inf


def sequence_logprob(model: NfclmModel, symbols: Sequence[str]) -> float:
    """Sentence log-probability including the end-of-sentence factor.

    The one-list case of ``sequence_logprobs``; a dead history yields -inf.
    """
    return sequence_logprobs(model, [symbols])[0]


def sequence_logprobs(model: NfclmModel,
                      token_lists: Sequence[Sequence[str]]) -> list[float]:
    """Sentence log-probability, EOS included, of each list, in input order.

    The lists are walked in sorted order over a stack whose entry ``d``
    holds (beam, running total) after ``d`` tokens, so a prefix shared
    by several lists is extended once.  A prefix with no surviving
    alignment is marked dead and every list that starts with it scores
    -inf.  ``extend`` depends only on (model, beam, symbol) and totals are
    summed in token order, so each result has the bits of scoring that
    list alone.  The stack holds at most one beam per token of the
    longest list.
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
        routes = {route: (arcs, lw)
                  for _, route, arcs, lw in _routes(model, [hyp], model._entry_routes)}
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
