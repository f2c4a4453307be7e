"""Symbol vocabulary, class alphabet, and sub-word tokenization."""

from __future__ import annotations

import os
from typing import Iterable, Sequence

BOS = "<s>"
EOS = "</s>"
BOUNDARY = "_"
BACKGROUND = "@bg"


class Vocabulary:
    """Ordered set of sub-word symbols with BOS/EOS sentinels appended.

    Ids 0..n-1 are the sub-words in load order; BOS and EOS take the two
    ids after them.  Sub-words may carry a leading ``_`` marking the start
    of a word; ``_`` is reserved and may not appear anywhere else.
    """

    def __init__(self, symbols: Sequence[str]):
        seen = {}
        for i, sym in enumerate(symbols):
            if not sym:
                raise ValueError(f"empty symbol at position {i}")
            if sym in (BOS, EOS):
                raise ValueError(f"symbol {sym!r} collides with a reserved sentinel")
            if sym.startswith("@"):
                raise ValueError(f"symbol {sym!r} collides with the class-label convention")
            if BOUNDARY in sym[1:]:
                raise ValueError(
                    f"symbol {sym!r} uses the word-boundary marker {BOUNDARY!r} mid-symbol"
                )
            if any(ch.isspace() for ch in sym):
                raise ValueError(f"symbol {sym!r} contains whitespace")
            if sym in seen:
                raise ValueError(f"duplicate symbol {sym!r} at position {i}")
            seen[sym] = i
        self.symbols: tuple[str, ...] = tuple(symbols)
        self._index = seen
        self.bos_id = len(self.symbols)
        self.eos_id = len(self.symbols) + 1
        self._max_len = max((len(s) for s in self.symbols), default=0)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self.symbols == other.symbols

    def id_of(self, symbol: str) -> int:
        if symbol == BOS:
            return self.bos_id
        if symbol == EOS:
            return self.eos_id
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"unknown symbol {symbol!r}") from None

    def symbol_of(self, symbol_id: int) -> str:
        if symbol_id == self.bos_id:
            return BOS
        if symbol_id == self.eos_id:
            return EOS
        if 0 <= symbol_id < len(self.symbols):
            return self.symbols[symbol_id]
        raise KeyError(f"unknown symbol id {symbol_id}")


class ClassAlphabet:
    """Ordered class labels, always containing the background label @bg.

    The continuation marker used in alignments is not a member; it only
    appears in alignment sequences (see :mod:`nfclm.engine`).
    """

    def __init__(self, labels: Sequence[str]):
        seen = set()
        for i, label in enumerate(labels):
            if not label.startswith("@"):
                raise ValueError(f"class label {label!r} must begin with '@' (position {i})")
            if label in seen:
                raise ValueError(f"duplicate class label {label!r} at position {i}")
            seen.add(label)
        if BACKGROUND not in seen:
            raise ValueError(f"class alphabet must contain {BACKGROUND!r}")
        self.labels: tuple[str, ...] = tuple(labels)
        self.nonbackground: tuple[str, ...] = tuple(c for c in self.labels if c != BACKGROUND)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(self.labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassAlphabet) and self.labels == other.labels


def _read_lines(source) -> list[str]:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    return list(source)


def load_vocabulary(source) -> Vocabulary:
    """Load a vocabulary from a file path or an iterable of lines.

    One symbol per line; file order defines ids; duplicates and empty
    files are rejected.
    """
    lines = _read_lines(source)
    if not lines:
        raise ValueError("vocabulary source is empty")
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            raise ValueError(f"blank vocabulary line {i}")
    dupes = {}
    for i, line in enumerate(lines, start=1):
        if line in dupes:
            raise ValueError(f"duplicate symbol {line!r} on line {i} (first seen line {dupes[line]})")
        dupes[line] = i
    return Vocabulary(lines)


def load_class_alphabet(source) -> ClassAlphabet:
    """Load a class alphabet (one ``@``-prefixed name per line, ``@bg`` required)."""
    lines = [ln.strip() for ln in _read_lines(source)]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("class alphabet source is empty")
    return ClassAlphabet(lines)


def tokenize(text: str, vocabulary: Vocabulary) -> list[str]:
    """Segment raw text into vocabulary symbols by greedy longest match.

    Each whitespace-separated word is prefixed with the boundary marker
    before matching.  A word that cannot be fully segmented is an error;
    unknown characters never map to a fallback symbol.
    """
    out: list[str] = []
    for word in text.split():
        if BOUNDARY in word:
            raise ValueError(f"word {word!r} contains the reserved boundary marker {BOUNDARY!r}")
        marked = BOUNDARY + word
        pos = 0
        while pos < len(marked):
            limit = min(vocabulary._max_len, len(marked) - pos)
            for length in range(limit, 0, -1):
                piece = marked[pos : pos + length]
                if piece in vocabulary:
                    out.append(piece)
                    pos += length
                    break
            else:
                raise ValueError(
                    f"cannot segment word {word!r}: no vocabulary symbol matches at offset {pos}"
                )
    return out


def detokenize(symbols: Iterable[str]) -> str:
    """Concatenate symbols, turning boundary markers back into spaces."""
    return "".join(symbols).replace(BOUNDARY, " ").strip()
