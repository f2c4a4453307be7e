"""Conditional symbol models: back-off n-gram reference implementations.

The contract is deliberately small — a predicted alphabet plus
``distribution``/``logprob`` over it, ``distribution_values`` for a
caller that reads the whole distribution as a list, and the resolve-once
pair ``resolve``/``logprob_at`` for a caller that asks many symbols at
one history: a state made once from the history, then one read per
symbol — so a learned model can replace the count-based ones without
touching the probability engine.  Each of these has a default that reads
``distribution`` or ``logprob``.  Histories are taken literally: callers
decide about start-of-sentence padding (the engine pads with BOS up to
``context_size``).
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, compress, count, filterfalse, groupby, islice, repeat
from operator import add, and_, ge, lshift, mul, rshift, sub, truediv
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .serialization import (VERSION, ByteReader, ByteWriter, SerializationError, narrowed,
                            narrowest)
from .vocab import BACKGROUND, BOS, EOS, ClassAlphabet, Vocabulary

NGRAM_MAGIC = b"NGBO\x00"
DECIDER_MAGIC = b"NDCD\x00"
# typecodes format v2 stores the symbol-id and count columns as, a u32 and
# a u64; a back-off weight is held as an f64
ID, TALLY, WEIGHT = "I", "Q", "d"

DECIDER_FLOOR = 1e-6
DEFAULT_ORDER, DEFAULT_DISCOUNT, DEFAULT_ALPHA = 3, 0.75, 1.0  # the training defaults


class Rule(NamedTuple):
    """A setting's rule: its text for errors, and its test, which checks the exact type."""

    text: str
    holds: Callable[[object], bool]

    def check(self, name: str, value) -> None:
        if not self.holds(value):
            raise ValueError(f"{name} must be {self.text}, got {value!r}")


def is_number(value) -> bool:
    """Whether ``value`` is an ``int`` or a ``float``: True, ``"1"`` and None are not."""
    return type(value) in (int, float)


def number(text: str, in_range: Callable[[float], bool]) -> Rule:
    """A number setting's rule; NaN fails ``in_range`` if each comparison in it does."""
    return Rule(text, lambda v: is_number(v) and in_range(v))


COUNT = Rule("an int >= 1", lambda v: type(v) is int and v >= 1)  # every count's rule
SEED = Rule("an int", lambda v: type(v) is int)  # a random seed's, as ``--seed`` reads it


def check_sentences(name: str, sentences: Sequence) -> Sequence:
    """``sentences``, having refused a lone ``str`` among them, named
    ``name``: a sentence, as an entity, is a sequence of symbols, and a
    string would read as its characters.  One test per sentence, none per
    symbol."""
    for symbols in sentences:
        if isinstance(symbols, str):
            raise ValueError(f"{name} {symbols!r} is one string, not a sequence of symbols")
    return sentences


class ConditionalSymbolModel(ABC):
    """P(next symbol | symbol history) over a fixed predicted alphabet."""

    @property
    @abstractmethod
    def alphabet(self) -> tuple[str, ...]:
        """Symbols the model can predict (sums to 1 over these)."""

    @property
    def context_size(self) -> int:
        """How much history the model can use; callers may pad up to this."""
        return 0

    @property
    def history_alphabet(self) -> Optional[frozenset[str]]:
        """Symbols a history may hold; None when any symbol may appear."""
        return None

    @abstractmethod
    def distribution(self, history: Sequence[str]) -> dict[str, float]:
        """Normalized distribution over the alphabet, keyed in alphabet
        order; a share of 0 is a symbol the model cannot emit there."""

    def distribution_values(self, history: Sequence[str]) -> list[float]:
        """``distribution``'s values as a fresh list in alphabet order."""
        return list(self.distribution(history).values())

    def logprob(self, symbol: str, history: Sequence[str]) -> float:
        """log of ``distribution``'s share of ``symbol``: -inf for a share of 0."""
        p = self.distribution(history)[symbol]
        return math.log(p) if p > 0.0 else -math.inf

    def resolve(self, history: Sequence[str]) -> object:
        """A state that ``logprob_at`` reads as ``history``: by default, the
        history itself.  A caller may keep one per context it reads (the
        engine keeps one per cache row), so a state should hold little: no
        copy of the model's tables and no caller's string (an n-gram's is one
        int)."""
        return tuple(history)

    def logprob_at(self, symbol: str, state) -> float:
        """``logprob(symbol, history)`` at the state ``resolve(history)``
        made: by default, that very call."""
        return self.logprob(symbol, state)

    def stored_contexts(self) -> Optional[tuple[Sequence[str], Sequence[Sequence[Iterable]]]]:
        """The contexts whose suffixes decide the model's output, by length.

        A symbol table, and at entry ``k - 1`` the contexts of ``k``
        symbols as ``k`` columns of ids into it, each read once: column
        ``i`` holds each context's ``i``-th symbol, oldest first.  At any
        context the model's ``distribution`` and ``logprob`` have the bits
        they have at its longest suffix listed here, or at ``()`` when none is,
        so a cache keyed by that suffix holds one row per distinct output
        and can fill it at the suffix itself.  None here: a model without
        stored contexts gives every context its own row.
        """
        return None


class NGramLevel(NamedTuple):
    """One level of an n-gram: the columns the binary format stores,
    contexts packed.

    Context ``j`` is ``contexts[j]``, the symbol ids of its ``k`` symbols
    packed into one int, each in ``width`` bits (the bit length of the
    symbol count), the oldest highest, so the ints order as the symbols
    do; the contexts ascend.
    Its targets and their counts are ``targets[offsets[j]:offsets[j + 1]]``
    and the same run of ``counts``, the targets ascending.  A context whose
    run is empty is read as absent.  The columns are unsigned integer
    arrays of any width; training and a v3 load hold each at the
    narrowest, the contexts at the narrowest that holds ``k * width`` bits.
    """

    contexts: Sequence[int]
    offsets: array
    targets: array
    counts: array


class BackoffNGram(ConditionalSymbolModel):
    """Interpolated absolute-discounting n-gram.

    ``levels`` holds one ``NGramLevel`` per context length, ids indexing
    ``symbols``, which ascends; the model holds the columns as given and
    never changes them; its ``order`` is their count, at least one.  Each
    context's total count and back-off weight are computed here, once.
    The unigram level interpolates with the uniform distribution over the
    predicted alphabet, so every symbol keeps probability above a positive
    floor.  History symbols outside ``history_alphabet`` are rejected.

    That context-free level is one list in alphabet order, built here.
    A query then walks only the levels its context reaches, finding each
    suffix by one bisect over its level's contexts:
    ``distribution_values`` as one scaled copy of the list per level plus
    a head term per target in the context's run.  ``resolve`` keeps what
    that walk finds, packed in one int, and ``logprob_at`` reads one symbol
    there, bisected in each run; ``logprob`` is the two at once.
    """

    # ``order`` is the training order, a level count
    RULES = {"discount": number("in (0,1)", lambda v: 0.0 < v < 1.0), "order": COUNT}

    def __init__(self, discount: float, symbols: Sequence[str], predicted: Sequence[str],
                 history_alphabet: Sequence[str], levels: Sequence[NGramLevel]):
        if not levels:
            raise ValueError("an n-gram needs at least one count level")
        self.RULES["discount"].check("discount", discount)
        if not predicted:
            raise ValueError("n-gram needs a nonempty predicted alphabet")
        # a repeat would hold one entry but count twice in the uniform floor
        if len(set(predicted)) != len(predicted):
            raise ValueError("n-gram predicted alphabet repeats a symbol")
        self.order = len(levels)
        self.discount = discount
        self.symbols = tuple(symbols)
        self.width = len(self.symbols).bit_length()
        self._ids = {sym: i for i, sym in enumerate(self.symbols)}
        self._predicted = tuple(predicted)
        # a symbol id's index in the predicted alphabet, None for a symbol not predicted
        self._slots = [None] * len(self.symbols)
        for i, sym in enumerate(self._predicted):
            self._slots[self._ids[sym]] = i
        self._history_alphabet = frozenset(history_alphabet)
        self.levels = tuple(NGramLevel(*level) for level in levels)
        # each level as a lookup reads it: the contexts, runs and weights,
        # then its field of a ``resolve`` state: as many bits as 1 + its
        # last context index needs, and their mask
        tables = []
        for level in self.levels:
            bits = len(level.contexts).bit_length()
            tables.append((*level, *_weights(level.offsets, level.counts, discount),
                           bits, (1 << bits) - 1))
        self._walk = tuple(tables[1:])
        self._level0 = [1.0 / len(self._predicted)] * len(self._predicted)
        totals = tables[0][4]  # of at most the context (); as in the walk, empty is absent
        if totals and totals[0]:
            self._level0 = self._fold(self._level0, tables[0], 0)

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self._predicted

    @property
    def context_size(self) -> int:
        return self.order - 1

    @property
    def history_alphabet(self) -> frozenset[str]:
        return self._history_alphabet

    def _check_history(self, history: Sequence[str]) -> tuple[str, ...]:
        for sym in history:
            if sym not in self._history_alphabet:
                raise KeyError(f"unknown history symbol {sym!r}")
        usable = min(len(history), self.order - 1)
        return tuple(history[len(history) - usable:])

    def _fold(self, values: list[float], table: tuple, j: int) -> list[float]:
        """Interpolate the run of context ``j`` of ``table`` into ``values``.

        One scaled copy of ``values``, then a head term for each target of
        the run: per entry the sum ``logprob`` takes for its one symbol, so
        both read the same bits.
        """
        _, offsets, targets, counts, totals, backoffs, _, _ = table
        values = list(map(mul, repeat(backoffs[j]), values))
        discount, total, slots = self.discount, totals[j], self._slots
        for k in range(offsets[j], offsets[j + 1]):
            i = slots[targets[k]]
            values[i] = (counts[k] - discount) / total + values[i]
        return values

    def distribution_values(self, history: Sequence[str]) -> list[float]:
        values = level0 = self._level0
        state = self.resolve(history)
        for table in self._walk:
            j = (state & table[-1]) - 1  # the field under the level's mask, less 1
            state >>= table[-2]
            if j >= 0:
                values = self._fold(values, table, j)
        return list(level0) if values is level0 else values

    def distribution(self, history: Sequence[str]) -> dict[str, float]:
        return dict(zip(self._predicted, self.distribution_values(history)))

    def resolve(self, history: Sequence[str]) -> int:
        """The walk ``history`` makes, packed in one int: per level of
        ``_walk``, shortest context first from the lowest bits, a field of
        as many bits as the level's context count needs, holding 1 + the
        index of that level's suffix among the level's contexts, or 0 where
        the level holds none.

        Each suffix is packed and bisected among its level's contexts; one
        that is absent or whose run is empty (total zero, as counts are
        positive) is 0, as ``stored_contexts`` leaves it out.  That is all
        ``logprob_at`` needs of the walk: a state holds no string, no
        column and no table, and above its longest stored suffix it is 0.
        """
        ids, width = self._ids, self.width
        key = shift = state = at = 0
        for sym, (contexts, _, _, _, totals, _, bits, _) in zip(
                reversed(self._check_history(history)), self._walk):
            key |= ids[sym] << shift
            shift += width
            j = bisect_left(contexts, key)
            if j < len(contexts) and contexts[j] == key and totals[j]:
                state |= j + 1 << at
            at += bits
        return state

    def logprob_at(self, symbol: str, state: int) -> float:
        """``logprob(symbol, history)`` at ``state = resolve(history)``: each
        level's field read with a mask and a shift, then a bisect for the
        symbol in the run of each level that holds a suffix."""
        target = self._ids.get(symbol)
        i = None if target is None else self._slots[target]
        if i is None:
            raise KeyError(f"symbol {symbol!r} is not predictable")
        p, discount = self._level0[i], self.discount
        for _, offsets, targets, counts, totals, backoffs, bits, mask in self._walk:
            j = (state & mask) - 1
            state >>= bits
            if j < 0:
                continue
            start, end = offsets[j], offsets[j + 1]
            k = bisect_left(targets, target, start, end)
            if k < end and targets[k] == target:
                p = (counts[k] - discount) / totals[j] + backoffs[j] * p
            else:
                p = backoffs[j] * p
        return math.log(p)

    def logprob(self, symbol: str, history: Sequence[str]) -> float:
        return self.logprob_at(symbol, self.resolve(history))

    def _columns(self, keys: Sequence[int], length: int) -> list[Iterable[int]]:
        """The symbol ids of packed contexts of ``length`` symbols, one
        iterable per position, oldest first."""
        width, mask = self.width, (1 << self.width) - 1
        columns = []
        for i in range(length):
            shift = width * (length - 1 - i)
            column = map(rshift, keys, repeat(shift)) if shift else keys
            columns.append(map(and_, column, repeat(mask)) if i else column)
        return columns

    def stored_contexts(self) -> tuple[tuple[str, ...], list[list[Iterable[int]]]]:
        """The contexts whose runs are not empty, as id columns per length up to the longest.

        A lookup reads only suffixes and skips absent contexts and empty
        runs (``resolve``), so at any context every level above its longest
        such suffix adds nothing and every level up to it reads a suffix of
        it, whether or not the levels are closed under suffixes.
        """
        stored = [list(compress(contexts, totals))
                  for contexts, _, _, _, totals, _, _, _ in self._walk]
        while stored and not stored[-1]:
            stored.pop()
        return self.symbols, [self._columns(keys, length)
                              for length, keys in enumerate(stored, start=1)]

    def serialize(self) -> bytes:
        """The header and symbol table, then each level as four columns: its
        contexts' symbol ids, each context's number of counts, and the
        target ids and counts, contexts and targets sorted."""
        ids = self._ids.__getitem__
        w = ByteWriter()
        w.raw(NGRAM_MAGIC)
        w.u16(VERSION)
        w.u16(self.order)
        w.f64(self.discount)
        w.u32(len(self.symbols))
        for s in self.symbols:
            w.string(s)
        for alphabet in (self._predicted, sorted(self._history_alphabet)):
            w.u32(len(alphabet))
            w.column(array(ID, map(ids, alphabet)))
        for length, level in enumerate(self.levels):
            w.u32(len(level.contexts))
            w.column(array(ID, chain.from_iterable(zip(*self._columns(level.contexts,
                                                                      length)))))
            w.column(array(ID, map(sub, level.offsets[1:], level.offsets)))
            w.column(level.targets)
            w.column(level.counts)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "BackoffNGram":
        r = ByteReader(data)
        r.expect_magic(NGRAM_MAGIC, "n-gram model")
        r.expect_version("n-gram model")
        order = r.u16()
        discount = r.f64()
        symbols = []
        for _ in range(r.u32()):
            at, sym = r.offset, r.string()
            # ids then order as symbols do, as serialize sorts contexts and targets
            if symbols and sym <= symbols[-1]:
                raise SerializationError(
                    f"symbol table is not sorted and unique at {sym!r}", at)
            symbols.append(sym)

        def ids(count: int) -> tuple[array, int]:
            """The next column of ``count`` symbol ids, and where its values start."""
            column = r.column(ID, count)
            at = r.offset - column.itemsize * count
            if column and max(column) >= len(symbols):
                k = next(k for k, i in enumerate(column) if i >= len(symbols))
                raise SerializationError(
                    f"symbol id {column[k]} is outside the symbol table of {len(symbols)}",
                    at + column.itemsize * k)
            return column, at

        predicted, _ = ids(r.u32())
        history_alphabet, _ = ids(r.u32())
        levels_at = r.offset
        allowed = frozenset(predicted)
        levels = []
        for length in range(order):
            n_contexts = r.u32()
            flat, contexts_at = ids(n_contexts * length)
            sizes = r.column(ID, n_contexts)
            targets, targets_at = ids(sum(sizes))
            counts = r.column(TALLY, len(targets))
            counts_at = r.offset - counts.itemsize * len(counts)
            if not allowed.issuperset(targets):
                k = next(k for k, t in enumerate(targets) if t not in allowed)
                raise SerializationError(
                    f"count target {symbols[targets[k]]!r} is outside the predicted alphabet",
                    targets_at + targets.itemsize * k)
            if 0 in counts:
                k = counts.index(0)
                raise SerializationError(f"zero count for {symbols[targets[k]]!r}",
                                         counts_at + counts.itemsize * k)
            level = NGramLevel(_packed(flat, n_contexts, length, len(symbols)),
                               array(narrowest(len(targets)), accumulate(sizes, initial=0)),
                               targets, counts)
            _check_order(level, flat, length, symbols, contexts_at, targets_at)
            levels.append(level)
        try:
            model = cls(discount, symbols, [symbols[i] for i in predicted],
                        [symbols[i] for i in history_alphabet], levels)
        except ValueError as exc:
            # a setting the constructor refuses is named where the count levels start
            raise SerializationError(f"corrupt n-gram payload: {exc}", levels_at) from exc
        r.done()
        return model


def _packed(flat: Sequence[int], count: int, length: int, n_symbols: int) -> Sequence[int]:
    """``count`` contexts of ``length`` symbol ids, one after another in
    ``flat``, each packed as ``NGramLevel`` holds it for a table of
    ``n_symbols``: a column of the narrowest unsigned typecode that holds
    every packed context of ``length`` ids, or a list when a context needs
    more than 64 bits."""
    width = n_symbols.bit_length()
    keys = flat[0::length] if length else repeat(0, count)
    for i in range(1, length):
        keys = map(add, map(lshift, keys, repeat(width)), flat[i::length])
    bits = width * length
    return array(narrowest((1 << bits) - 1), keys) if bits <= 64 else list(keys)


def _weights(offsets: array, counts: array, discount: float) -> tuple[array, array]:
    """Each context's total count and back-off weight ``discount * size /
    total``, with the bits a walk that sums its run per query gets: a total
    is the exact integer sum, held in the narrowest unsigned array that
    holds them all, or past 2**64 as the floats that dividing by them
    converts them to; a float divided by an int converts it to the same
    float.  An empty run, which no lookup reads, gets a zero total and
    weight."""
    # exact integer sums, past 2**64 too
    prefix = list(accumulate(counts, initial=0))
    ends = list(map(prefix.__getitem__, offsets))
    totals = list(map(sub, islice(ends, 1, None), ends))
    top = max(totals, default=0)
    totals = array(WEIGHT if top >> 64 else narrowest(top), totals)
    sizes = map(sub, islice(offsets, 1, None), offsets)
    # an empty run's weight is 0 / 1; every other total is at least 1
    divisors = map(max, totals, repeat(1)) if 0 in totals else totals
    return totals, array(WEIGHT, map(truediv, map(mul, repeat(discount), sizes), divisors))


def _check_order(level: NGramLevel, flat: array, length: int, symbols: Sequence[str],
                 contexts_at: int, targets_at: int) -> None:
    """Refuse a decoded level whose contexts, or whose targets within a run,
    do not strictly ascend, naming the first entry out of order; a repeat
    keeps its own message."""
    contexts, offsets, targets = level.contexts, level.offsets, level.targets
    i = next(compress(count(1), map(ge, contexts, islice(contexts, 1, None))), None)
    if i is not None:
        context = tuple(symbols[s] for s in flat[length * i:length * (i + 1)])
        what = "repeated context" if contexts[i] == contexts[i - 1] else "out-of-order context"
        raise SerializationError(f"{what} {context!r} at level {length}",
                                 contexts_at + flat.itemsize * length * i)
    # a target not above the one before it, unless it starts its context's run
    k = next(filterfalse(set(offsets).__contains__,
                         compress(count(1), map(ge, targets, islice(targets, 1, None)))), None)
    if k is not None:
        what = "repeated" if targets[k] == targets[k - 1] else "out-of-order"
        raise SerializationError(f"{what} count target {symbols[targets[k]]!r}",
                                 targets_at + targets.itemsize * k)


def train_ngram(corpus: Iterable[Sequence[str]], alphabet: Sequence[str],
                order: int = DEFAULT_ORDER, discount: float = DEFAULT_DISCOUNT) -> BackoffNGram:
    """Count a background n-gram over sentences of vocabulary symbols.

    Each sentence is padded with BOS and terminated with EOS; the model
    predicts over the alphabet plus EOS.
    """
    if isinstance(alphabet, Vocabulary):
        alphabet = alphabet.symbols
    sentences = [tuple(s) for s in check_sentences("corpus sentence", list(corpus))]
    if not sentences:
        raise ValueError("empty training corpus")
    allowed = set(alphabet)
    for sentence in sentences:
        for sym in sentence:
            if sym not in allowed:
                raise ValueError(f"corpus symbol {sym!r} is outside the alphabet")
    predicted, history_alphabet = tuple(alphabet) + (EOS,), tuple(alphabet) + (BOS,)
    symbols = sorted(set(predicted) | set(history_alphabet))
    levels = _count_events(order, (s + (EOS,) for s in sentences), lambda sym: sym, symbols)
    return BackoffNGram(discount, symbols, predicted, history_alphabet, levels)


def _count_events(order: int, sentences: Iterable[tuple[str, ...]],
                  label: Callable[[str], str], symbols: Sequence[str]) -> list[NGramLevel]:
    """An n-gram's count levels over the sorted symbol table ``symbols``.

    Each sentence is padded with ``order - 1`` BOS; each of its symbols
    counts ``label`` of itself after every suffix of the ``order - 1``
    symbols before it.
    """
    BackoffNGram.RULES["order"].check("order", order)
    ids = {sym: i for i, sym in enumerate(symbols)}
    events = [Counter() for _ in range(order)]
    pad = [ids[BOS]] * (order - 1)
    for sentence in sentences:
        padded = pad + [ids[sym] for sym in sentence]
        for i, sym in enumerate(sentence, start=len(pad)):
            target = ids[label(sym)]
            for length, counter in enumerate(events):
                counter[tuple(padded[i - length:i]), target] += 1
    levels = []
    for length, counter in enumerate(events):
        entries = sorted(counter.items())  # id order is symbol order
        contexts = [(context, len(list(run)))
                    for context, run in groupby(context for (context, _), _ in entries)]
        flat = list(chain.from_iterable(context for context, _ in contexts))
        levels.append(NGramLevel(_packed(flat, len(contexts), length, len(symbols)),
                                 array(narrowest(len(entries)),
                                       accumulate((n for _, n in contexts), initial=0)),
                                 narrowed([target for (_, target), _ in entries]),
                                 narrowed([n for _, n in entries])))
    return levels


def _scale_by_prior(raw: Sequence[float], prior: Sequence[float], alpha) -> list[float]:
    """Scale a class distribution by inverse prior mass: P'(c) ∝ P(c)/prior(c)^alpha.

    ``raw`` and ``prior`` are lists in one class order.  The settings are
    a decider's, which ``DeciderModel.RULES`` checked.  The direct form
    ``p / prior ** alpha`` serves whenever its weights and their total are
    finite and positive: with a normalized prior each weight is at least
    ``p``, so a finite total is the one test.  An extreme alpha or prior
    entry that under- or overflows it is scaled in log space instead.
    """
    try:
        weights = [p / q ** alpha for p, q in zip(raw, prior)]
        total = math.fsum(weights)
    except (ZeroDivisionError, OverflowError):
        total = math.inf
    if total < math.inf:
        return [w / total for w in weights]
    return _scale_in_log_space(raw, prior, alpha)


def _scale_in_log_space(raw: Sequence[float], prior: Sequence[float], alpha) -> list[float]:
    """``_scale_by_prior`` for settings whose direct form under- or overflows.

    Each class's log weight is taken relative to the smallest prior, so it
    stays at most ``log p`` and the largest is finite.  A share too small
    for a float is raised to the smallest normal one, which keeps every
    class reachable, as the decider's floor does.
    """
    smallest = min(map(math.log, prior))
    logs = [math.log(p) - alpha * (math.log(q) - smallest) for p, q in zip(raw, prior)]
    top = max(logs)
    shares = _normalized([math.exp(lw - top) for lw in logs])
    return [max(share, sys.float_info.min) for share in shares]


def _normalized(weights: Sequence[float]) -> list[float]:
    total = math.fsum(weights)
    return [p / total for p in weights]


class DeciderModel(ConditionalSymbolModel):
    """Class predictor over mixed histories of symbols and class tokens.

    Wraps a back-off n-gram whose targets are class labels, floors its
    probabilities at ``DECIDER_FLOOR`` so every class stays reachable, then
    scales by the inverse prior to the power ``alpha`` and normalizes, to
    keep mass from pooling on the background.  ``RULES`` checks each value.

    ``prior`` is the prior as given, restricted to the classes, and is
    what ``serialize`` writes; the scaling reads one normalized copy made
    here, so a decider loaded from its bytes scores with its bits.  A
    distribution is computed as a list in class order, with no dict.
    """

    RULES = {"alpha": number("a finite number >= 0", lambda v: 0 <= v <= sys.float_info.max),
             "prior": number("finite and strictly positive",
                             lambda v: 0 < v <= sys.float_info.max)}

    def __init__(self, ngram: BackoffNGram, prior: Mapping[str, float],
                 alpha: float = DEFAULT_ALPHA):
        self.RULES["alpha"].check("alpha", alpha)
        if not isinstance(prior, Mapping):
            raise ValueError(f"prior must be a mapping of class label to number, got {prior!r}")
        self.ngram = ngram
        self.classes = ngram.alphabet
        self.prior = {c: prior.get(c) for c in self.classes}
        for c, p in self.prior.items():
            self.RULES["prior"].check(f"prior for class {c!r}", p)
        self._normalized_prior = _normalized(list(self.prior.values()))
        self.alpha = alpha

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.classes

    @property
    def context_size(self) -> int:
        return self.ngram.context_size

    @property
    def history_alphabet(self) -> frozenset[str]:
        return self.ngram.history_alphabet

    def _floored(self, history: Sequence[str]) -> list[float]:
        return _normalized([max(p, DECIDER_FLOOR)
                            for p in self.ngram.distribution_values(history)])

    def distribution_values(self, history: Sequence[str]) -> list[float]:
        return _scale_by_prior(self._floored(history), self._normalized_prior, self.alpha)

    def distribution(self, history: Sequence[str]) -> dict[str, float]:
        return dict(zip(self.classes, self.distribution_values(history)))

    def stored_contexts(self) -> tuple[tuple[str, ...], list[list[Iterable[int]]]]:
        """The n-gram's: the floor and the prior scaling read no context."""
        return self.ngram.stored_contexts()

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.raw(DECIDER_MAGIC)
        w.u16(VERSION)
        w.f64(self.alpha)
        w.f64(DECIDER_FLOOR)  # a field of format v3, which stores the floor
        w.u32(len(self.classes))
        for c in self.classes:
            w.string(c)
            w.f64(self.prior[c])
        body = self.ngram.serialize()
        w.u64(len(body))
        w.raw(body)
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "DeciderModel":
        r = ByteReader(data)
        r.expect_magic(DECIDER_MAGIC, "decider model")
        r.expect_version("decider model")

        def setting(rule: Rule, name: str) -> float:
            at, value = r.offset, r.f64()
            if not rule.holds(value):
                raise SerializationError(f"{name} must be {rule.text}, got {value!r}", at)
            return value

        alpha = setting(cls.RULES["alpha"], "alpha")
        setting(Rule(repr(DECIDER_FLOOR), DECIDER_FLOOR.__eq__), "floor")
        prior = {}
        order = []
        for _ in range(r.u32()):
            c = r.string()
            prior[c] = setting(cls.RULES["prior"], f"prior for class {c!r}")
            order.append(c)
        body_len = r.u64()
        start = r.offset
        if start + body_len > len(data):
            raise SerializationError("truncated decider payload", start)
        try:
            ngram = BackoffNGram.deserialize(data[start:start + body_len])
        except SerializationError as exc:
            # the n-gram counts offsets from the start of its own slice
            raise SerializationError(exc.message, start + exc.offset) from exc
        r.offset = start + body_len
        r.done()
        try:
            model = cls(ngram, prior, alpha=alpha)
        except (ValueError, OverflowError) as exc:  # prior entries can sum past float range
            raise SerializationError(f"corrupt decider payload: {exc}", start) from exc
        if list(model.classes) != order:
            raise SerializationError("decider class order mismatch", start)
        return model


def widened(decider: DeciderModel, length: int) -> DeciderModel:
    """``decider`` reading up to ``length`` tokens (itself if it does): its
    n-gram again, with empty count levels above its order that no lookup
    finds, so every probability keeps its bits while a beam keeps decider
    histories of up to ``length`` tokens whole, as Fig. 1 draws them."""
    ngram = decider.ngram
    if length <= ngram.context_size:
        return decider
    empty = NGramLevel(array("B"), array("B", [0]), array("B"), array("B"))
    ngram = BackoffNGram(ngram.discount, ngram.symbols, ngram.alphabet, ngram.history_alphabet,
                         ngram.levels + (empty,) * (length - ngram.context_size))
    return DeciderModel(ngram, decider.prior, decider.alpha)


def class_prior_from_corpus(corpus: Iterable[Sequence[str]],
                            classes: ClassAlphabet) -> dict[str, float]:
    """Empirical class frequencies over the tagged portion of a corpus.

    Lines containing at least one class token count; in them, class tokens
    count for their class while ordinary-symbol positions count for the
    background class.  The result is floored and normalized so it is
    strictly positive over all classes.
    """
    counts = Counter()
    for sentence in corpus:
        sentence = tuple(sentence)
        if not any(tok in classes for tok in sentence):
            continue
        for tok in sentence:
            counts[tok if tok in classes else BACKGROUND] += 1
    total = sum(counts.values())
    if total == 0:
        # Degenerate (no tagged lines): fall back to uniform.
        return {c: 1.0 / len(classes) for c in classes}
    return dict(zip(classes, _normalized([max(counts[c] / total, DECIDER_FLOOR)
                                          for c in classes])))


def train_decider(corpus: Iterable[Sequence[str]], vocabulary: Vocabulary,
                  classes: ClassAlphabet, order: int = DEFAULT_ORDER,
                  discount: float = DEFAULT_DISCOUNT) -> DeciderModel:
    """Train the class predictor on a tagged corpus over symbols and entity class tokens.

    Every token position contributes one training pair: the mixed history
    predicts the class of the next token, with ordinary symbols counting
    as background.
    """
    sentences = [tuple(s) for s in check_sentences("corpus sentence", list(corpus))]
    if not sentences:
        raise ValueError("empty training corpus")
    for sentence in sentences:
        for tok in sentence:
            if tok not in vocabulary and tok not in classes.nonbackground:
                raise ValueError(f"unknown token {tok!r} in decider corpus")
    predicted = tuple(classes.labels)
    history_alphabet = tuple(vocabulary.symbols) + predicted + (BOS,)
    symbols = sorted(set(predicted) | set(history_alphabet))
    levels = _count_events(order, sentences, lambda tok: tok if tok in classes else BACKGROUND,
                           symbols)
    ngram = BackoffNGram(discount, symbols, predicted, history_alphabet, levels)
    prior = class_prior_from_corpus(sentences, classes)
    return DeciderModel(ngram, prior)


def ngram_sequence_logprob(model: ConditionalSymbolModel, symbols: Sequence[str]) -> float:
    """Chain-rule sentence log-probability under a plain symbol model, EOS included."""
    cs = model.context_size
    seq = (BOS,) * cs + tuple(symbols)
    total = 0.0
    for i in range(cs, len(seq)):
        total += model.logprob(seq[i], seq[i - cs:i])
    return total + model.logprob(EOS, seq[len(seq) - cs:])


# re-export for callers that build toy models
__all__ = [
    "ConditionalSymbolModel", "BackoffNGram", "NGramLevel", "DeciderModel", "train_ngram",
    "train_decider", "class_prior_from_corpus", "ngram_sequence_logprob", "DECIDER_FLOOR",
]
