"""Symbol vocabulary, class alphabet, and the text reader."""

from __future__ import annotations

import os
from typing import Sequence

BOS = "<s>"
EOS = "</s>"
BOUNDARY = "_"
BACKGROUND = "@bg"


class Vocabulary:
    """Ordered set of sub-word symbols, given as the lines of a vocabulary file.

    Sub-words may carry a leading ``_`` marking the start of a word;
    ``_`` is reserved and may not appear anywhere else.  Errors start
    with ``name:line:``, counting symbols from 1.
    """

    def __init__(self, symbols: Sequence[str], name: str = "<vocabulary>"):
        self.symbols: tuple[str, ...] = tuple(symbols)
        if not self.symbols:
            raise ValueError(f"{name}: empty vocabulary")
        seen: dict[str, int] = {}
        for i, sym in enumerate(self.symbols, start=1):
            if not isinstance(sym, str):
                raise ValueError(f"{name}:{i}: symbol {sym!r} is not a str")
            if not sym.strip():
                raise ValueError(f"{name}:{i}: blank line")
            if sym in (BOS, EOS):
                raise ValueError(f"{name}:{i}: symbol {sym!r} collides with a reserved sentinel")
            if sym.startswith("@"):
                raise ValueError(
                    f"{name}:{i}: symbol {sym!r} collides with the class-label convention")
            if BOUNDARY in sym[1:]:
                raise ValueError(f"{name}:{i}: symbol {sym!r} uses the word-boundary "
                                 f"marker {BOUNDARY!r} mid-symbol")
            if any(ch.isspace() for ch in sym):
                raise ValueError(f"{name}:{i}: symbol {sym!r} contains whitespace")
            if sym in seen:
                raise ValueError(f"{name}:{i}: duplicate symbol {sym!r} "
                                 f"(line {i} repeats line {seen[sym]})")
            seen[sym] = i
        self._members = seen

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._members


class ClassAlphabet:
    """Ordered class labels, given as the lines of a class-alphabet file.

    Surrounding whitespace is dropped and blank lines are skipped; the
    background label @bg is required.  Errors start with ``name:line:``,
    counting lines from 1.  Labels begin with ``@``, so none is the
    continuation marker of the tests' alignment notation
    (``tests/oracle.py``).
    """

    def __init__(self, labels: Sequence[str], name: str = "<classes>"):
        seen: dict[str, int] = {}
        for i, line in enumerate(labels, start=1):
            if not isinstance(line, str):
                raise ValueError(f"{name}:{i}: class label {line!r} is not a str")
            label = line.strip()
            if not label:
                continue
            if not label.startswith("@"):
                raise ValueError(f"{name}:{i}: class label {label!r} must begin with '@'")
            if any(ch.isspace() for ch in label):
                raise ValueError(f"{name}:{i}: class label {label!r} contains whitespace")
            if label in seen:
                raise ValueError(f"{name}:{i}: duplicate class label {label!r} "
                                 f"(first on line {seen[label]})")
            seen[label] = i
        if BACKGROUND not in seen:
            raise ValueError(f"{name}: class alphabet must contain {BACKGROUND!r}")
        self.labels: tuple[str, ...] = tuple(seen)
        self.nonbackground: tuple[str, ...] = tuple(c for c in self.labels if c != BACKGROUND)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(self.labels)


def read_lines(source, default_name: str) -> tuple[str, list[str]]:
    """The name and lines of a text input: a file path, a file's bytes, a
    text stream over bytes (such as stdin), or lines already read.

    A path names itself; any other input is named ``default_name``, such
    as ``<vocabulary>`` or ``<stdin>``.  Every text loader reads through
    here, checks its format once, and starts an error about line ``i``
    (counted from 1) with ``f"{name}:{i}: "`` and any other error with
    ``f"{name}: "``, as for a path that cannot be opened or a byte that is
    not UTF-8.  A file is read a line at a time, and its lines end only at
    LF, CRLF or CR, as editors count them; ``str.splitlines`` would also
    end them at form feeds and other separators.  One leading byte-order
    mark (U+FEFF) is dropped from the first line, of a file or of lines
    already read.
    """
    name = default_name
    if isinstance(source, (str, os.PathLike)):
        name = os.fspath(source)
        try:
            fh = open(source, "rb")
        except OSError as exc:  # such as a missing file or a directory
            raise ValueError(f"{name}: {exc.strerror}") from None
        with fh:
            lines = _decoded(fh, name)
    elif hasattr(source, "buffer"):  # read as a file, whatever the stream's own encoding
        lines = _decoded(source.buffer, name)
    else:
        lines = _decoded([source], name) if isinstance(source, bytes) else list(source)
    if lines:
        lines[0] = lines[0].removeprefix("\ufeff")
    return name, lines


def _decoded(chunks, name: str) -> list[str]:
    """The UTF-8 lines of ``chunks`` of bytes, each a whole number of lines,
    as a binary file's lines (ending at LF) are."""
    lines = []
    try:
        for chunk in chunks:
            for line in chunk.splitlines():  # ends lines at LF, CRLF and CR only
                lines.append(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{name}:{len(lines) + 1}: not UTF-8 text ({exc.reason})") from None
    return lines


def load_vocabulary(source) -> Vocabulary:
    """Load a vocabulary: one symbol per line, in order, no blanks or duplicates."""
    name, lines = read_lines(source, "<vocabulary>")
    return Vocabulary(lines, name)


def load_class_alphabet(source) -> ClassAlphabet:
    """Load a class alphabet: one ``@``-prefixed label per line, ``@bg`` required."""
    name, lines = read_lines(source, "<classes>")
    return ClassAlphabet(lines, name)
