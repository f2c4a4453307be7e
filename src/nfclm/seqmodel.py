"""Conditional symbol models: back-off n-gram reference implementations.

The contract is deliberately small — a predicted alphabet plus
``distribution``/``logprob`` over it — so a learned model can replace the
count-based ones without touching the probability engine.  Histories are
taken literally: callers decide about start-of-sentence padding (the
engine pads with BOS up to ``context_size``).
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from collections import Counter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .serialization import ByteReader, ByteWriter, SerializationError
from .vocab import BACKGROUND, BOS, EOS, ClassAlphabet, Vocabulary

NGRAM_MAGIC = b"NGBO\x00"
NGRAM_VERSION = 1
DECIDER_MAGIC = b"NDCD\x00"
DECIDER_VERSION = 1

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
        """Normalized, strictly positive distribution over the alphabet."""

    def logprob(self, symbol: str, history: Sequence[str]) -> float:
        return math.log(self.distribution(history)[symbol])


class UniformModel(ConditionalSymbolModel):
    """History-independent uniform distribution; handy as a toy background."""

    def __init__(self, alphabet: Sequence[str]):
        if not alphabet:
            raise ValueError("uniform model needs a nonempty alphabet")
        self._alphabet = tuple(alphabet)
        self._symbols = frozenset(self._alphabet)
        self._p = 1.0 / len(self._alphabet)

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self._alphabet

    def distribution(self, history: Sequence[str]) -> dict[str, float]:
        return {sym: self._p for sym in self._alphabet}

    def logprob(self, symbol: str, history: Sequence[str]) -> float:
        if symbol not in self._symbols:
            raise KeyError(f"unknown symbol {symbol!r}")
        return math.log(self._p)


class BackoffNGram(ConditionalSymbolModel):
    """Interpolated absolute-discounting n-gram.

    Counts live in per-level tables keyed by context tuples.  The unigram
    level interpolates with the uniform distribution over the predicted
    alphabet, so every symbol keeps probability above a positive floor.
    History symbols outside ``history_alphabet`` are rejected.

    That context-free level is one ``{symbol: p}`` table, built on first
    use and dropped by ``observe``; change counts only through
    ``observe`` so it never goes stale.  A query then walks only the
    levels its context reaches.
    """

    def __init__(self, order: int, discount: float, predicted: Sequence[str],
                 history_alphabet: Sequence[str]):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if not 0.0 < discount < 1.0:
            raise ValueError(f"discount must be in (0,1), got {discount}")
        if not predicted:
            raise ValueError("n-gram needs a nonempty predicted alphabet")
        self.order = order
        self.discount = discount
        self._predicted = tuple(predicted)
        self._history_alphabet = frozenset(history_alphabet)
        # counts[k][context][target]; context length == k
        self.counts: list[dict[tuple[str, ...], Counter]] = [
            {} for _ in range(order)
        ]
        self._level0: Optional[dict[str, float]] = None

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self._predicted

    @property
    def context_size(self) -> int:
        return self.order - 1

    @property
    def history_alphabet(self) -> frozenset[str]:
        return self._history_alphabet

    def observe(self, history: Sequence[str], target: str) -> None:
        history = tuple(history)
        for length in range(min(len(history), self.order - 1) + 1):
            context = history[len(history) - length:]
            table = self.counts[length].setdefault(context, Counter())
            table[target] += 1
        self._level0 = None

    def _check_history(self, history: Sequence[str]) -> tuple[str, ...]:
        for sym in history:
            if sym not in self._history_alphabet:
                raise KeyError(f"unknown history symbol {sym!r}")
        usable = min(len(history), self.order - 1)
        return tuple(history[len(history) - usable:])

    def _walk(self, dist: dict[str, float], context: tuple[str, ...],
              first: int) -> dict[str, float]:
        """Interpolate levels ``first..len(context)`` into ``dist`` in place."""
        for length in range(first, len(context) + 1):
            table = self.counts[length].get(context[len(context) - length:])
            if not table:
                continue
            total = sum(table.values())
            backoff = self.discount * len(table) / total
            for sym in dist:
                seen = table.get(sym, 0)
                head = (seen - self.discount) / total if seen else 0.0
                dist[sym] = head + backoff * dist[sym]
        return dist

    def _level0_table(self) -> dict[str, float]:
        table = self._level0
        if table is None:
            uniform = 1.0 / len(self._predicted)
            table = self._walk({sym: uniform for sym in self._predicted}, (), 0)
            self._level0 = table  # published whole: sharing threads never see it half built
        return table

    def distribution(self, history: Sequence[str]) -> dict[str, float]:
        context = self._check_history(history)
        return self._walk(dict(self._level0_table()), context, 1)

    def logprob(self, symbol: str, history: Sequence[str]) -> float:
        level0 = self._level0_table()
        if symbol not in level0:
            raise KeyError(f"symbol {symbol!r} is not predictable")
        context = self._check_history(history)
        return math.log(self._walk({symbol: level0[symbol]}, context, 1)[symbol])

    def serialize(self) -> bytes:
        symbols = sorted(set(self._predicted) | self._history_alphabet
                         | {t for lvl in self.counts for ctx in lvl for t in ctx}
                         | {t for lvl in self.counts for c in lvl.values() for t in c})
        index = {s: i for i, s in enumerate(symbols)}
        w = ByteWriter()
        w.raw(NGRAM_MAGIC)
        w.u16(NGRAM_VERSION)
        w.u16(self.order)
        w.f64(self.discount)
        w.u32(len(symbols))
        for s in symbols:
            w.string(s)
        w.u32(len(self._predicted))
        for s in self._predicted:
            w.u32(index[s])
        w.u32(len(self._history_alphabet))
        for s in sorted(self._history_alphabet):
            w.u32(index[s])
        for level in self.counts:
            w.u32(len(level))
            for context in sorted(level):
                for sym in context:
                    w.u32(index[sym])
                table = level[context]
                w.u32(len(table))
                for sym in sorted(table):
                    w.u32(index[sym])
                    w.u64(table[sym])
        return w.getvalue()

    @classmethod
    def _read_body(cls, r: ByteReader) -> "BackoffNGram":
        order = r.u16()
        discount = r.f64()
        symbols = [r.string() for _ in range(r.u32())]
        predicted = [symbols[r.u32()] for _ in range(r.u32())]
        history_alphabet = [symbols[r.u32()] for _ in range(r.u32())]
        model = cls(order, discount, predicted, history_alphabet)
        targets = frozenset(predicted)
        for length in range(order):
            n_contexts = r.u32()
            level = model.counts[length]
            for _ in range(n_contexts):
                context = tuple(symbols[r.u32()] for _ in range(length))
                table = Counter()
                for _ in range(r.u32()):
                    at = r.offset
                    sym = symbols[r.u32()]
                    count = r.u64()
                    if sym not in targets:
                        raise SerializationError(
                            f"count target {sym!r} is outside the predicted alphabet", at)
                    if not count:
                        raise SerializationError(f"zero count for {sym!r}", at + 4)
                    table[sym] = count
                level[context] = table
        return model

    @classmethod
    def deserialize(cls, data: bytes) -> "BackoffNGram":
        r = ByteReader(data)
        r.expect_magic(NGRAM_MAGIC, "n-gram model")
        r.expect_version(NGRAM_VERSION, "n-gram model")
        try:
            model = cls._read_body(r)
        except (IndexError, ValueError) as exc:
            raise SerializationError(f"corrupt n-gram payload: {exc}", r.offset) from exc
        r.done()
        return model

    def dump_counts(self) -> str:
        lines = []
        for length, level in enumerate(self.counts):
            for context in sorted(level):
                prefix = " ".join(context)
                for sym in sorted(level[context]):
                    lines.append(f"{length}\t{prefix}\t{sym}\t{level[context][sym]}")
        return "\n".join(lines) + "\n"


def train_ngram(corpus: Iterable[Sequence[str]], alphabet: Sequence[str],
                order: int = 3, discount: float = 0.75) -> BackoffNGram:
    """Count a background n-gram over sentences of vocabulary symbols.

    Each sentence is padded with BOS and terminated with EOS; the model
    predicts over the alphabet plus EOS.
    """
    if isinstance(alphabet, Vocabulary):
        alphabet = alphabet.symbols
    predicted = tuple(alphabet) + (EOS,)
    model = BackoffNGram(order, discount, predicted, tuple(alphabet) + (BOS,))
    allowed = set(alphabet)
    n_sentences = 0
    for sentence in corpus:
        sentence = tuple(sentence)
        for sym in sentence:
            if sym not in allowed:
                raise ValueError(f"corpus symbol {sym!r} is outside the alphabet")
        padded = (BOS,) * (order - 1) + sentence + (EOS,)
        for i in range(order - 1, len(padded)):
            model.observe(padded[max(0, i - order + 1):i], padded[i])
        n_sentences += 1
    if n_sentences == 0:
        raise ValueError("empty training corpus")
    return model


def renormalize_by_prior(raw: Mapping[str, float], prior: Mapping[str, float],
                         alpha: float) -> dict[str, float]:
    """Scale a class distribution by inverse prior mass: P'(c) ∝ P(c)/prior(c)^alpha."""
    DeciderModel.RULES["alpha"].check("alpha", alpha)
    for c in raw:
        DeciderModel.RULES["prior"].check(f"prior for class {c!r}", prior.get(c))
    return _scale_by_prior(raw, prior, alpha)


def _scale_by_prior(raw, prior, alpha) -> dict[str, float]:
    """``renormalize_by_prior`` for settings a decider has already checked.

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


class _Prior(dict):
    """A decider's normalized class prior: a decider built from it keeps
    its bits, which normalizing it again could move."""


class DeciderModel(ConditionalSymbolModel):
    """Class predictor over mixed histories of symbols and class tokens.

    Wraps a back-off n-gram whose targets are class labels, applies a
    small probability floor so every class stays reachable, then
    renormalizes by the inverse class prior to keep mass from pooling on
    the background class.  ``RULES`` checks each setting and prior entry.
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
        for c in self.classes:
            self.RULES["prior"].check(f"prior for class {c!r}", prior.get(c))
        if not (isinstance(prior, _Prior) and len(prior) == len(self.classes)):
            prior = _Prior(_normalized({c: prior[c] for c in self.classes}))
        self.prior = prior
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
        dist = self.ngram.distribution(history)
        return _normalized({c: max(p, self.floor) for c, p in dist.items()})

    def distribution(self, history: Sequence[str]) -> dict[str, float]:
        return _scale_by_prior(self.raw_distribution(history), self.prior, self.alpha)

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
    """Train the class predictor on a tagged corpus over symbols and class tokens.

    Every token position contributes one training pair: the mixed history
    predicts the class of the next token, with ordinary symbols counting
    as background.
    """
    sentences = [tuple(s) for s in corpus]
    if not sentences:
        raise ValueError("empty training corpus")
    history_alphabet = tuple(vocabulary.symbols) + tuple(classes.labels) + (BOS,)
    ngram = BackoffNGram(order, discount, tuple(classes.labels), history_alphabet)
    for sentence in sentences:
        for tok in sentence:
            if tok not in classes and tok not in vocabulary:
                raise ValueError(f"unknown token {tok!r} in decider corpus")
        padded = (BOS,) * (order - 1) + sentence
        for i in range(order - 1, len(padded)):
            target = padded[i]
            label = target if target in classes else BACKGROUND
            ngram.observe(padded[max(0, i - order + 1):i], label)
    prior = class_prior_from_corpus(sentences, classes)
    return DeciderModel(ngram, prior, alpha=alpha)


def ngram_sequence_logprob(model: ConditionalSymbolModel, symbols: Sequence[str],
                           include_eos: bool = True) -> float:
    """Chain-rule sentence log-probability under a plain symbol model."""
    cs = model.context_size
    seq = (BOS,) * cs + tuple(symbols)
    total = 0.0
    for i in range(cs, len(seq)):
        total += model.logprob(seq[i], seq[i - cs:i])
    if include_eos:
        total += model.logprob(EOS, seq[len(seq) - cs:])
    return total


# re-export for callers that build toy models
__all__ = [
    "ConditionalSymbolModel", "UniformModel", "BackoffNGram", "DeciderModel",
    "train_ngram", "train_decider", "renormalize_by_prior",
    "class_prior_from_corpus", "ngram_sequence_logprob", "DECIDER_FLOOR",
]
