"""Perplexity evaluation and n-best rescoring."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .engine import NfclmModel, sequence_logprobs
from .seqmodel import ConditionalSymbolModel, check_sentences, ngram_sequence_logprob, number
from .vocab import read_lines


@dataclass
class FusionWeights:
    """Non-negative interpolation weights for shallow fusion; ``RULES`` checks each."""

    RULES = dict.fromkeys(("lm_weight", "ilm_weight"),
                          number("finite and >= 0", lambda v: 0 <= v <= sys.float_info.max))

    lm_weight: float = 0.0
    ilm_weight: float = 0.0

    def __post_init__(self):
        for name, rule in self.RULES.items():
            rule.check(name, getattr(self, name))


@dataclass
class NBestEntry:
    utterance_id: str
    asr_score: float
    ilm_score: float
    tokens: tuple[str, ...]

    def __post_init__(self):
        if not math.isfinite(self.asr_score) or not math.isfinite(self.ilm_score):
            raise ValueError(f"{self.utterance_id}: scores must be finite")


@dataclass
class RescoredEntry:
    entry: NBestEntry
    lm_logprob: float
    fused_score: float
    original_rank: int
    failed: bool = False


class DeadSentenceError(ValueError):
    """A corpus sentence has probability 0; ``index`` is its position in the corpus."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"sentence {index} has probability 0; pass skip_dead=True to exclude it")


@dataclass
class PerplexityReport:
    perplexity: float
    total_logprob: float
    symbol_count: int
    sentence_count: int
    dead_sentences: list[int] = field(default_factory=list)


def perplexity(model, corpus: Iterable[Sequence[str]],
               skip_dead: bool = False) -> PerplexityReport:
    """Corpus perplexity: exp(-logprob / symbols), EOS counted per sentence.

    ``model`` is a full model, whose corpus is scored in one
    ``sequence_logprobs`` walk, or a plain symbol model; ``corpus`` is read
    once.  Log-probs are summed in corpus order.  A sentence no alignment
    can generate makes the whole corpus unscorable (``DeadSentenceError``)
    unless ``skip_dead`` excludes it from both the mass and the symbol
    count; the positions of excluded sentences in ``corpus`` are reported.
    """
    corpus = check_sentences("corpus sentence", list(corpus))
    if isinstance(model, NfclmModel):
        scores = sequence_logprobs(model, corpus)
    elif isinstance(model, ConditionalSymbolModel):
        scores = [ngram_sequence_logprob(model, sentence) for sentence in corpus]
    else:
        raise TypeError(f"cannot score with {type(model).__name__}")
    total = 0.0
    symbols = 0
    scored = 0
    dead: list[int] = []
    for i, (sentence, lp) in enumerate(zip(corpus, scores)):
        if lp == -math.inf:
            dead.append(i)
            if skip_dead:
                continue
            raise DeadSentenceError(i)
        total += lp
        symbols += len(sentence) + 1
        scored += 1
    if symbols == 0:
        raise ValueError("no scorable sentences")
    return PerplexityReport(
        perplexity=math.exp(-total / symbols),
        total_logprob=total,
        symbol_count=symbols,
        sentence_count=scored,
        dead_sentences=dead,
    )


def rescore_nbest(model: NfclmModel, entries: Sequence[NBestEntry],
                  weights: FusionWeights) -> list[RescoredEntry]:
    """Fuse scores and re-rank: ASR + lm_weight * LM - ilm_weight * ILM.

    The list's hypotheses are scored in one ``sequence_logprobs`` walk,
    so a prefix they share is extended once; a model with pruning off
    gives the exact marginal at any length.  The sort is stable with ties
    broken by original rank; entries whose hypotheses cannot be scored
    (symbols outside the vocabulary or a dead history) are flagged and
    ranked last in original order.
    """
    if not entries:
        raise ValueError("empty n-best list")
    scorable = [rank for rank, entry in enumerate(entries)
                if all(map(model._emits.__contains__, entry.tokens))]  # keyed by the vocabulary
    scores = sequence_logprobs(model, [entries[rank].tokens for rank in scorable])
    lm_of = dict(zip(scorable, scores))
    rescored = []
    for rank, entry in enumerate(entries):
        lm = lm_of.get(rank, -math.inf)
        failed = lm == -math.inf
        fused = -math.inf if failed else (
            entry.asr_score + weights.lm_weight * lm - weights.ilm_weight * entry.ilm_score
        )
        rescored.append(RescoredEntry(entry, lm, fused, rank, failed))
    rescored.sort(key=lambda r: (r.failed, -r.fused_score if not r.failed else 0.0,
                                 r.original_rank))
    return rescored


def parse_nbest_file(source) -> list[NBestEntry]:
    """Read entries: ``utt-id TAB asr TAB ilm TAB tokens`` per line.

    ``source`` is read by :func:`nfclm.vocab.read_lines`, lines named
    ``<n-best>``.
    """
    name, lines = read_lines(source, "<n-best>")
    entries = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{name}:{i}: expected 4 tab-separated fields, got {len(parts)}")
        utt, asr, ilm, hyp = parts
        try:
            entry = NBestEntry(utt, float(asr), float(ilm), tuple(hyp.split()))
        except ValueError as exc:
            raise ValueError(f"{name}:{i}: {exc}") from exc
        entries.append(entry)
    if not entries:
        raise ValueError(f"{name}: empty n-best list")
    return entries
