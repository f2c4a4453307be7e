"""The exact oracle: alignments enumerated from the model's definitions.

Every nonzero-probability class alignment of a history is enumerated
depth-first, and each step's probability is computed from the alignment
definitions alone: the decider's share of the exit mass, the class
automaton's arc, the background model's symbol probability.  It reads
the model's components, on contexts it pads itself, but none of the
engine's caches, keys, route kernel or beam, so comparing it with the
beam compares two independent computations.  Its cost grows with the number of
alignments, so it takes at most ``EXACT_HISTORY_LIMIT`` symbols.

``step``, ``arc_prob`` and ``walk`` read a class automaton's public
columns through ``conftest.state_arcs``.
"""

import math
from typing import Optional, Sequence

from conftest import state_arcs
from nfclm import BACKGROUND, BOS, EOS, DeadHistoryError, NfclmModel, ProbClassFst

EXACT_HISTORY_LIMIT = 12

# the continuation marker of alignment notation: the symbol stays on the
# open class span's automaton
EPSILON = "<eps>"


def padded(history: Sequence[str], size: int) -> tuple[str, ...]:
    """The last ``size`` symbols of ``history``, padded with BOS on the left."""
    history = tuple(history)[max(0, len(history) - size):]
    return (BOS,) * (size - len(history)) + history


def decider_share(model: NfclmModel, dh: Sequence[str], label: str) -> float:
    """The decider's share of ``label`` after the collapsed history ``dh``."""
    return model.decider.distribution(padded(dh, model.decider.context_size))[label]


def background_prob(model: NfclmModel, symbol: str, history: Sequence[str]) -> float:
    """The background probability of ``symbol`` after ``history``."""
    return math.exp(model.background.logprob(
        symbol, padded(history, model.background.context_size)))


def step(fst: ProbClassFst, state: int, symbol: str) -> Optional[int]:
    """Destination of the unique arc for ``symbol``, or None if absent."""
    hit = state_arcs(fst, state).get(symbol)
    return None if hit is None else hit[1]


def arc_prob(fst: ProbClassFst, state: int, symbol: str) -> float:
    """Probability of the matching arc; 0 when there is none."""
    hit = state_arcs(fst, state).get(symbol)
    return 0.0 if hit is None else hit[0]


def walk(fst: ProbClassFst, symbols: Sequence[str]) -> Optional[int]:
    """Follow ``symbols`` from the start state; None on a miss."""
    current = fst.start
    for sym in symbols:
        current = step(fst, current, sym)
        if current is None:
            return None
    return current


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


def _alignment_exit(model: NfclmModel, history: tuple[str, ...],
                    alignment: tuple[str, ...]) -> Optional[float]:
    """Exit probability after an aligned history; None off the automaton."""
    open_label = last_class(alignment, EPSILON)
    if open_label in (EPSILON, BACKGROUND):
        return 1.0
    fst = model.class_fsts[open_label]
    state = walk(fst, class_prefix(history, alignment, open_label))
    return None if state is None else fst.exits[state]


def _stop_mass(model: NfclmModel, history: tuple[str, ...],
               alignment: tuple[str, ...], weight: float) -> float:
    """Joint probability of an alignment of weight ``weight`` followed by EOS."""
    exit_p = _alignment_exit(model, history, alignment)
    if not exit_p:
        return 0.0
    dh = decider_history(history, alignment)
    return (weight * exit_p * decider_share(model, dh, BACKGROUND)
            * background_prob(model, EOS, history))


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
        emission = exit_p * decider_share(model, dh, candidate)
    if emission == 0.0:
        return 0.0

    effective = last_class(alignment, candidate)
    if effective == EPSILON:
        return 0.0
    if effective == BACKGROUND:
        component = background_prob(model, symbol, history)
    else:
        fst = model.class_fsts[effective]
        if candidate == EPSILON:
            state = walk(fst, class_prefix(history, alignment, effective))
            if state is None:
                return 0.0
            arc = arc_prob(fst, state, symbol)
            component = arc / (1.0 - fst.exits[state]) if arc else 0.0
        else:
            component = arc_prob(fst, fst.start, symbol)
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
        raise DeadHistoryError(len(history), "<next>")
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


