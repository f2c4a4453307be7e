"""Template grammars: patterns over terminals and entity-class slots.

Patterns are single-level (no recursive non-terminals): a pattern is a
token sequence where ``@``-prefixed tokens name an entity class to be
filled from that class's entity list.  Expansion samples patterns and
entities uniformly; the tagged variant leaves class tokens in place,
which is exactly the decider's training format.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .classfst import Entity, load_entities
from .seqmodel import Rule
from .vocab import BACKGROUND, ClassAlphabet, Vocabulary, read_lines


FRACTION = Rule("in [0,1]", lambda v: 0.0 <= v <= 1.0)  # a mix's; NaN fails both tests


@dataclass
class CfgGrammar:
    patterns: list[tuple[str, ...]]
    entities: dict[str, list[Entity]]


def parse_grammar(pattern_source, entity_dir, vocabulary: Vocabulary,
                  classes: ClassAlphabet) -> CfgGrammar:
    """Load and validate a grammar from a pattern file and an entity directory.

    ``pattern_source`` is read by :func:`nfclm.vocab.read_lines`.  Entity
    files are named ``<class>.txt`` in the entity-list format.  Every
    referenced non-terminal needs a nonempty entity list; terminals and
    entity symbols must be vocabulary symbols.
    """
    name, lines = read_lines(pattern_source, "<patterns>")
    if not lines:
        raise ValueError(f"{name}: empty pattern file")

    patterns: list[tuple[str, ...]] = []
    first_use: dict[str, int] = {}
    for i, line in enumerate(lines, start=1):
        tokens = tuple(line.split())
        if not tokens:
            raise ValueError(f"{name}:{i}: empty pattern")
        for tok in tokens:
            if tok.startswith("@"):
                if tok == BACKGROUND:
                    raise ValueError(f"{name}:{i}: {BACKGROUND} cannot appear in a pattern")
                if tok not in classes:
                    raise ValueError(f"{name}:{i}: unknown class {tok!r}")
                first_use.setdefault(tok, i)
            elif tok not in vocabulary:
                raise ValueError(f"{name}:{i}: unknown terminal symbol {tok!r}")
        patterns.append(tokens)

    entities: dict[str, list[Entity]] = {}
    for label in sorted(first_use):
        path = os.path.join(os.fspath(entity_dir), f"{label}.txt")
        if not os.path.exists(path):
            raise ValueError(f"{name}:{first_use[label]}: non-terminal {label} "
                             f"has no entity file at {path}")
        entities[label] = load_entities(path, vocabulary)
    return CfgGrammar(patterns=patterns, entities=entities)


def _draws(grammar: CfgGrammar, n_samples: int, seed: int):
    """Shared sampling stream: pattern index plus one entity index per slot."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = random.Random(seed)
    for _ in range(n_samples):
        p = rng.randrange(len(grammar.patterns))
        pattern = grammar.patterns[p]
        picks = [
            rng.randrange(len(grammar.entities[tok])) if tok.startswith("@") else -1
            for tok in pattern
        ]
        yield pattern, picks


def expand(grammar: CfgGrammar, n_samples: int, seed: int) -> list[tuple[str, ...]]:
    """Plain expansions: every class slot replaced by a sampled entity."""
    out = []
    for pattern, picks in _draws(grammar, n_samples, seed):
        sentence: list[str] = []
        for tok, pick in zip(pattern, picks):
            if pick < 0:
                sentence.append(tok)
            else:
                sentence.extend(grammar.entities[tok][pick][0])
        out.append(tuple(sentence))
    return out


def expand_tagged(grammar: CfgGrammar, n_samples: int, seed: int) -> list[tuple[str, ...]]:
    """Tagged expansions: class slots stay as single class tokens.

    Consumes the same sampling stream as :func:`expand`, so the two
    variants pick identical patterns (and entities) under one seed.
    """
    return [pattern for pattern, _ in _draws(grammar, n_samples, seed)]


def mix_corpora(background: Sequence[Sequence[str]], tagged: Sequence[Sequence[str]],
                background_fraction: float, seed: int,
                size: int | None = None) -> list[tuple[str, ...]]:
    """Deterministic shuffled mix with an exact background-line count.

    Draws ``round(fraction * size)`` lines from the background pool and
    the rest from the tagged pool, both uniformly with replacement, then
    shuffles.  ``size`` defaults to the combined pool size; two empty pools
    are an error, whatever the size.
    """
    FRACTION.check("background fraction", background_fraction)
    if not background and not tagged:
        raise ValueError("background and tagged corpora are both empty")
    if size is None:
        size = len(background) + len(tagged)
    if size < 1:
        raise ValueError("mix size must be >= 1")
    n_background = round(background_fraction * size)
    n_tagged = size - n_background
    if n_background > 0 and not background:
        raise ValueError("background corpus is empty but the fraction requires it")
    if n_tagged > 0 and not tagged:
        raise ValueError("tagged corpus is empty but the fraction requires it")
    rng = random.Random(seed)
    mixed = [tuple(background[rng.randrange(len(background))]) for _ in range(n_background)]
    mixed += [tuple(tagged[rng.randrange(len(tagged))]) for _ in range(n_tagged)]
    rng.shuffle(mixed)
    return mixed


def write_corpus(sentences: Iterable[Sequence[str]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in sentences:
            fh.write(" ".join(sentence) + "\n")


def read_numbered_corpus(source, alphabet=None, name: str = "<corpus>"
                         ) -> tuple[str, list[tuple[int, tuple[str, ...]]]]:
    """The input's name and its sentences, each with its line number.

    A sentence is the whitespace-separated symbols of one nonblank line.
    ``source`` is read by :func:`nfclm.vocab.read_lines`, lines named
    ``name``.  With an ``alphabet`` (a container of symbols), every
    symbol must belong to it.  Lines count from 1 and include blank
    lines, so an error about a sentence can start with ``f"{name}:{line}: "``.
    """
    name, lines = read_lines(source, name)
    numbered = []
    for i, line in enumerate(lines, start=1):
        sentence = tuple(line.split())
        for sym in sentence:
            if alphabet is not None and sym not in alphabet:
                raise ValueError(f"{name}:{i}: unknown symbol {sym!r}")
        if sentence:
            numbered.append((i, sentence))
    return name, numbered
