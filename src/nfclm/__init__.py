"""Factored class language model toolkit.

A background conditional-symbol model plus per-class probabilistic FSTs,
mixed by a class decider and marginalized over class alignments with a
soft beam.  Usable as a direct next-token scorer, a lazily expanded FST,
a perplexity evaluator, and an n-best rescorer.
"""

from .classfst import ProbClassFst, build_from_entities, load_entities
from .cfg import CfgGrammar, expand, expand_tagged, mix_corpora, parse_grammar
from .dynfst import DynFstSession
from .engine import (AlignmentBeam, AlignmentHypothesis, DeadHistoryError,
                     NfclmModel, advance, eos_logprob,
                     exact_sequence_logprob, extend, next_dist, sample,
                     sequence_logprob, sequence_logprobs, start_beam)
from .evaluate import (FusionWeights, NBestEntry, PerplexityReport,
                       RescoredEntry, perplexity, rescore_nbest)
from .seqmodel import (BackoffNGram, ConditionalSymbolModel, DeciderModel,
                       train_decider, train_ngram)
from .vocab import (BACKGROUND, BOS, EOS, ClassAlphabet, Vocabulary,
                    load_class_alphabet, load_vocabulary)
from . import bundle

__version__ = "0.1.0"

__all__ = [
    "AlignmentBeam", "AlignmentHypothesis", "BACKGROUND", "BOS",
    "BackoffNGram", "CfgGrammar", "ClassAlphabet", "ConditionalSymbolModel",
    "DeadHistoryError", "DeciderModel", "DynFstSession", "EOS",
    "FusionWeights", "NBestEntry", "NfclmModel", "PerplexityReport",
    "ProbClassFst", "RescoredEntry", "Vocabulary", "advance",
    "build_from_entities", "bundle", "eos_logprob", "exact_sequence_logprob",
    "expand", "expand_tagged", "extend", "load_class_alphabet", "load_entities",
    "load_vocabulary",
    "mix_corpora", "next_dist", "parse_grammar", "perplexity", "rescore_nbest",
    "sample", "sequence_logprob", "sequence_logprobs", "start_beam", "train_decider",
    "train_ngram",
]
