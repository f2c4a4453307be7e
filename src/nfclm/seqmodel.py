"""Conditional symbol models: back-off n-gram reference implementations.

The contract is deliberately small — a predicted alphabet plus
``distribution``/``logprob`` over it, and ``distribution_values`` for a
caller that reads the whole distribution as a list — so a learned model
can replace the count-based ones without touching the probability
engine.  Histories are taken literally: callers decide about
start-of-sentence padding (the engine pads with BOS up to
``context_size``).
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from array import array
from collections import Counter
from itertools import compress, islice, repeat
from operator import mul
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .serialization import ByteReader, ByteWriter, SerializationError
from .vocab import BACKGROUND, BOS, EOS, ClassAlphabet, Vocabulary

NGRAM_MAGIC = b"NGBO\x00"
NGRAM_VERSION = 2
DECIDER_MAGIC = b"NDCD\x00"
DECIDER_VERSION = 2
# typecodes of the symbol-id and count columns: a u32 and a u64, as stored
ID, COUNT = "I", "Q"

DECIDER_FLOOR = 1e-6


class Rule(NamedTuple):
    """What one model setting must hold: its text for errors, and its test."""

    text: str
    holds: Callable[[object], bool]

    def check(self, name: str, value) -> None:
        if not self.holds(value):
            raise ValueError(f"{name} must be {self.text}, got {value!r}")


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
        """Normalized, strictly positive distribution over the alphabet,
        keyed in alphabet order."""

    def distribution_values(self, history: Sequence[str]) -> list[float]:
        """``distribution``'s values as a fresh list in alphabet order."""
        return list(self.distribution(history).values())

    def logprob(self, symbol: str, history: Sequence[str]) -> float:
        return math.log(self.distribution(history)[symbol])

    def stored_contexts(self) -> Optional[Sequence[Sequence[tuple[str, ...]]]]:
        """The contexts whose suffixes decide the model's output, by length.

        Entry ``k - 1`` holds contexts of ``k`` symbols.  At any context
        the model's ``distribution`` and ``logprob`` have the bits they
        have at its longest suffix listed here, or at ``()`` when none is,
        so a cache keyed by that suffix holds one row per distinct output
        and can fill it at the suffix itself.  None here: a model without
        stored contexts gives every context its own row.
        """
        return None


class BackoffNGram(ConditionalSymbolModel):
    """Interpolated absolute-discounting n-gram.

    ``counts`` holds one ``{context: {target: count}}`` table per level,
    level k keyed by contexts of k symbols; the model holds the tables as
    given and never changes them.  The unigram level interpolates with
    the uniform distribution over the predicted alphabet, so every symbol
    keeps probability above a positive floor.  History symbols outside
    ``history_alphabet`` are rejected.

    That context-free level is one list in alphabet order, built here.
    A query then walks only the levels its context reaches:
    ``distribution_values`` as one scaled copy of the list per level plus
    a head term per seen symbol, ``logprob`` for its one symbol.
    """

    def __init__(self, order: int, discount: float, predicted: Sequence[str],
                 history_alphabet: Sequence[str],
                 counts: Sequence[dict[tuple[str, ...], dict[str, int]]]):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if not 0.0 < discount < 1.0:
            raise ValueError(f"discount must be in (0,1), got {discount}")
        if not predicted:
            raise ValueError("n-gram needs a nonempty predicted alphabet")
        # a repeat would hold one entry but count twice in the uniform floor
        if len(set(predicted)) != len(predicted):
            raise ValueError("n-gram predicted alphabet repeats a symbol")
        if len(counts) != order:
            raise ValueError(f"an order-{order} n-gram needs {order} count levels, "
                             f"got {len(counts)}")
        self.order = order
        self.discount = discount
        self._predicted = tuple(predicted)
        self._index = {sym: i for i, sym in enumerate(self._predicted)}
        self._history_alphabet = frozenset(history_alphabet)
        self.counts = counts
        self._level0 = self._sweep([1.0 / len(self._predicted)] * len(self._predicted), (), 0)

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

    def _levels(self, context: tuple[str, ...], first: int):
        """Yield ``(table, total, back-off weight)`` for each level
        ``first..len(context)`` whose suffix of ``context`` has counts."""
        discount = self.discount
        for length in range(first, len(context) + 1):
            table = self.counts[length].get(context[len(context) - length:])
            if table:
                total = sum(table.values())
                yield table, total, discount * len(table) / total

    def _sweep(self, values: list[float], context: tuple[str, ...],
               first: int) -> list[float]:
        """Interpolate the levels into ``values``, a list in alphabet order.

        Each level is one scaled copy of ``values``, then a head term for
        each symbol its table has seen: per entry the sum ``logprob``
        takes for its one symbol, so both read the same bits.  Returns
        ``values`` itself when no level is reached.
        """
        discount, index = self.discount, self._index
        for table, total, backoff in self._levels(context, first):
            values = list(map(mul, repeat(backoff), values))
            for sym, seen in table.items():
                i = index[sym]
                values[i] = (seen - discount) / total + values[i]
        return values

    def distribution_values(self, history: Sequence[str]) -> list[float]:
        level0 = self._level0
        values = self._sweep(level0, self._check_history(history), 1)
        return list(level0) if values is level0 else values

    def distribution(self, history: Sequence[str]) -> dict[str, float]:
        return dict(zip(self._predicted, self.distribution_values(history)))

    def logprob(self, symbol: str, history: Sequence[str]) -> float:
        i = self._index.get(symbol)
        if i is None:
            raise KeyError(f"symbol {symbol!r} is not predictable")
        discount, p = self.discount, self._level0[i]
        for table, total, backoff in self._levels(self._check_history(history), 1):
            seen = table.get(symbol)
            p = (seen - discount) / total + backoff * p if seen else backoff * p
        return math.log(p)

    def stored_contexts(self) -> list[list[tuple[str, ...]]]:
        """The contexts of each length with a nonempty count table.

        ``_levels`` reads only suffix tables and skips absent or empty
        ones, so at any context every level above its longest such suffix
        adds nothing and every level up to it reads a suffix of it,
        whether or not the tables are closed under suffixes.
        """
        return [list(compress(level, level.values())) for level in self.counts[1:]]

    def serialize(self) -> bytes:
        """Format v2: the header and symbol table, then each level as four
        columns: its contexts' symbol ids, each context's number of counts,
        and the target ids and counts, contexts and targets sorted."""
        symbols = sorted(set(self._predicted) | self._history_alphabet
                         | {t for lvl in self.counts for ctx in lvl for t in ctx}
                         | {t for lvl in self.counts for c in lvl.values() for t in c})
        index = {s: i for i, s in enumerate(symbols)}.__getitem__
        w = ByteWriter()
        w.raw(NGRAM_MAGIC)
        w.u16(NGRAM_VERSION)
        w.u16(self.order)
        w.f64(self.discount)
        w.u32(len(symbols))
        for s in symbols:
            w.string(s)
        for alphabet in (self._predicted, sorted(self._history_alphabet)):
            w.u32(len(alphabet))
            w.column(array(ID, map(index, alphabet)))
        for level in self.counts:
            contexts = sorted(level)
            tables = [level[context] for context in contexts]
            targets = [sorted(table) for table in tables]
            w.u32(len(contexts))
            w.column(array(ID, [index(s) for context in contexts for s in context]))
            w.column(array(ID, map(len, tables)))
            w.column(array(ID, [index(s) for names in targets for s in names]))
            w.column(array(COUNT, [table[s] for table, names in zip(tables, targets)
                                   for s in names]))
        return w.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "BackoffNGram":
        r = ByteReader(data)
        r.expect_magic(NGRAM_MAGIC, "n-gram model")
        r.expect_version(NGRAM_VERSION, "n-gram model")
        order = r.u16()
        discount = r.f64()
        symbols = [r.string() for _ in range(r.u32())]

        def names(count: int) -> tuple[list[str], int]:
            """The symbols of the next column of ``count`` ids, and its offset."""
            at = r.offset
            ids = r.column(ID, count)
            if ids and max(ids) >= len(symbols):
                k = next(k for k, i in enumerate(ids) if i >= len(symbols))
                raise SerializationError(
                    f"symbol id {ids[k]} is outside the symbol table of {len(symbols)}",
                    at + 4 * k)
            return list(map(symbols.__getitem__, ids)), at

        predicted, _ = names(r.u32())
        history_alphabet, _ = names(r.u32())
        levels_at = r.offset
        allowed = frozenset(predicted)
        levels = []
        for length in range(order):
            n_contexts = r.u32()
            context_symbols, contexts_at = names(n_contexts * length)
            sizes = r.column(ID, n_contexts)
            targets, targets_at = names(sum(sizes))
            counts_at = r.offset
            counts = r.column(COUNT, len(targets))
            if not allowed.issuperset(targets):
                k = next(k for k, sym in enumerate(targets) if sym not in allowed)
                raise SerializationError(
                    f"count target {targets[k]!r} is outside the predicted alphabet",
                    targets_at + 4 * k)
            if 0 in counts:
                k = counts.index(0)
                raise SerializationError(f"zero count for {targets[k]!r}", counts_at + 8 * k)
            contexts = (zip(*[iter(context_symbols)] * length) if length
                        else repeat((), n_contexts))
            pairs = zip(targets, counts)
            level = {}
            start = 0
            for i, (context, size) in enumerate(zip(contexts, sizes)):
                if context in level:
                    raise SerializationError(f"repeated context {context!r} at level {length}",
                                             contexts_at + 4 * length * i)
                table = dict(islice(pairs, size))
                if len(table) != size:
                    k = start + _first_repeat(targets[start:start + size])
                    raise SerializationError(f"repeated count target {targets[k]!r}",
                                             targets_at + 4 * k)
                level[context] = table
                start += size
            levels.append(level)
        try:
            model = cls(order, discount, predicted, history_alphabet, levels)
        except ValueError as exc:
            # a setting the constructor refuses is named where the count levels start
            raise SerializationError(f"corrupt n-gram payload: {exc}", levels_at) from exc
        r.done()
        return model


def _first_repeat(items: Sequence) -> int:
    """The index of the first item equal to an earlier one; there must be one."""
    seen = set()
    for k, item in enumerate(items):
        if item in seen:
            return k
        seen.add(item)


def train_ngram(corpus: Iterable[Sequence[str]], alphabet: Sequence[str],
                order: int = 3, discount: float = 0.75) -> BackoffNGram:
    """Count a background n-gram over sentences of vocabulary symbols.

    Each sentence is padded with BOS and terminated with EOS; the model
    predicts over the alphabet plus EOS.
    """
    if isinstance(alphabet, Vocabulary):
        alphabet = alphabet.symbols
    sentences = [tuple(s) for s in corpus]
    if not sentences:
        raise ValueError("empty training corpus")
    allowed = set(alphabet)
    for sentence in sentences:
        for sym in sentence:
            if sym not in allowed:
                raise ValueError(f"corpus symbol {sym!r} is outside the alphabet")
    counts = _count_events(order, (s + (EOS,) for s in sentences), lambda sym: sym)
    return BackoffNGram(order, discount, tuple(alphabet) + (EOS,), tuple(alphabet) + (BOS,),
                        counts)


def _count_events(order: int, sentences: Iterable[tuple[str, ...]],
                  label: Callable[[str], str]) -> list[dict]:
    """An n-gram's count tables, one ``{context: {target: count}}`` per level.

    Each sentence is padded with ``order - 1`` BOS; each of its symbols
    counts ``label`` of itself after every suffix of the ``order - 1``
    symbols before it.
    """
    counts = [{} for _ in range(order)]
    pad = (BOS,) * (order - 1)
    for sentence in sentences:
        padded = pad + sentence
        for i in range(len(pad), len(padded)):
            target = label(padded[i])
            for length in range(order):
                table = counts[length].setdefault(padded[i - length:i], {})
                table[target] = table.get(target, 0) + 1
    return counts


def _scale_by_prior(raw, prior, alpha) -> dict[str, float]:
    """Scale a class distribution by inverse prior mass: P'(c) ∝ P(c)/prior(c)^alpha.

    The settings are a decider's, which ``DeciderModel.RULES`` checked.
    The direct form ``p / prior ** alpha`` serves whenever its weights and
    their total are finite and positive: with a normalized prior each
    weight is at least ``p``, so a finite total is the one test.  An
    extreme alpha or prior entry that under- or overflows it is scaled in
    log space instead.
    """
    try:
        weights = {c: p / prior[c] ** alpha for c, p in raw.items()}
        total = math.fsum(weights.values())
    except (ZeroDivisionError, OverflowError):
        total = math.inf
    if total < math.inf:
        return {c: w / total for c, w in weights.items()}
    return _scale_in_log_space(raw, prior, alpha)


def _scale_in_log_space(raw, prior, alpha) -> dict[str, float]:
    """``_scale_by_prior`` for settings whose direct form under- or overflows.

    Each class's log weight is taken relative to the smallest prior, so it
    stays at most ``log p`` and the largest is finite.  A share too small
    for a float is raised to the smallest normal one, which keeps every
    class reachable, as the decider's floor does.
    """
    smallest = min(math.log(prior[c]) for c in raw)
    logs = {c: math.log(p) - alpha * (math.log(prior[c]) - smallest) for c, p in raw.items()}
    top = max(logs.values())
    shares = _normalized({c: math.exp(lw - top) for c, lw in logs.items()})
    return {c: max(share, sys.float_info.min) for c, share in shares.items()}


def _normalized(weights: Mapping[str, float]) -> dict[str, float]:
    total = math.fsum(weights.values())
    return {c: p / total for c, p in weights.items()}


class DeciderModel(ConditionalSymbolModel):
    """Class predictor over mixed histories of symbols and class tokens.

    Wraps a back-off n-gram whose targets are class labels, applies a
    small probability floor so every class stays reachable, then
    renormalizes by the inverse class prior to keep mass from pooling on
    the background class.  ``RULES`` checks each setting and prior entry.

    ``prior`` is the prior as given, restricted to the classes, and is
    what ``serialize`` writes; the scaling reads one normalized copy made
    here, so a decider loaded from its bytes scores with its bits.
    """

    # exact types, so that True is no number; NaN fails every comparison
    RULES = {
        "alpha": Rule("a finite number >= 0",
                      lambda v: type(v) in (int, float) and 0 <= v <= sys.float_info.max),
        "prior": Rule("finite and strictly positive",
                      lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max),
        "floor": Rule("a number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1),
    }

    def __init__(self, ngram: BackoffNGram, prior: Mapping[str, float],
                 alpha: float = 1.0, floor: float = DECIDER_FLOOR):
        self.RULES["alpha"].check("alpha", alpha)
        self.RULES["floor"].check("floor", floor)
        self.ngram = ngram
        self.classes = ngram.alphabet
        self.prior = {c: prior.get(c) for c in self.classes}
        for c, p in self.prior.items():
            self.RULES["prior"].check(f"prior for class {c!r}", p)
        self._normalized_prior = _normalized(self.prior)
        self.alpha = alpha
        self.floor = floor

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.classes

    @property
    def context_size(self) -> int:
        return self.ngram.context_size

    @property
    def history_alphabet(self) -> frozenset[str]:
        return self.ngram.history_alphabet

    def raw_distribution(self, history: Sequence[str]) -> dict[str, float]:
        """Floored decider output before prior renormalization."""
        floor = self.floor
        return _normalized({c: max(p, floor) for c, p
                            in zip(self.classes, self.ngram.distribution_values(history))})

    def distribution(self, history: Sequence[str]) -> dict[str, float]:
        return _scale_by_prior(self.raw_distribution(history), self._normalized_prior,
                               self.alpha)

    def stored_contexts(self) -> list[list[tuple[str, ...]]]:
        """The n-gram's: the floor and the prior scaling read no context."""
        return self.ngram.stored_contexts()

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.raw(DECIDER_MAGIC)
        w.u16(DECIDER_VERSION)
        w.f64(self.alpha)
        w.f64(self.floor)
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
        r.expect_version(DECIDER_VERSION, "decider model")

        def setting(key: str, name: str) -> float:
            at, value, rule = r.offset, r.f64(), cls.RULES[key]
            if not rule.holds(value):
                raise SerializationError(f"{name} must be {rule.text}, got {value!r}", at)
            return value

        alpha, floor = setting("alpha", "alpha"), setting("floor", "floor")
        prior = {}
        order = []
        for _ in range(r.u32()):
            c = r.string()
            prior[c] = setting("prior", f"prior for class {c!r}")
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
            model = cls(ngram, prior, alpha=alpha, floor=floor)
        except (ValueError, OverflowError) as exc:  # prior entries can sum past float range
            raise SerializationError(f"corrupt decider payload: {exc}", start) from exc
        if list(model.classes) != order:
            raise SerializationError("decider class order mismatch", start)
        return model


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
    return _normalized({c: max(counts[c] / total, DECIDER_FLOOR) for c in classes})


def train_decider(corpus: Iterable[Sequence[str]], vocabulary: Vocabulary,
                  classes: ClassAlphabet, order: int = 3, discount: float = 0.75,
                  alpha: float = 1.0) -> DeciderModel:
    """Train the class predictor on a tagged corpus over symbols and entity class tokens.

    Every token position contributes one training pair: the mixed history
    predicts the class of the next token, with ordinary symbols counting
    as background.
    """
    sentences = [tuple(s) for s in corpus]
    if not sentences:
        raise ValueError("empty training corpus")
    for sentence in sentences:
        for tok in sentence:
            if tok not in vocabulary and tok not in classes.nonbackground:
                raise ValueError(f"unknown token {tok!r} in decider corpus")
    counts = _count_events(order, sentences,
                           lambda tok: tok if tok in classes else BACKGROUND)
    history_alphabet = tuple(vocabulary.symbols) + tuple(classes.labels) + (BOS,)
    ngram = BackoffNGram(order, discount, tuple(classes.labels), history_alphabet, counts)
    prior = class_prior_from_corpus(sentences, classes)
    return DeciderModel(ngram, prior, alpha=alpha)


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
    "ConditionalSymbolModel", "BackoffNGram", "DeciderModel", "train_ngram", "train_decider",
    "class_prior_from_corpus", "ngram_sequence_logprob", "DECIDER_FLOOR",
]
