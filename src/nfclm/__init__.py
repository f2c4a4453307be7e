"""Factored class language model toolkit.

A background conditional-symbol model plus per-class probabilistic FSTs,
mixed by a class decider and marginalized over class alignments with a
soft beam.  Usable as a direct next-token scorer, a lazily expanded FST,
a perplexity evaluator, and an n-best rescorer.
"""

from .classfst import ProbClassFst, build_from_entities, load_entities
from .cfg import CfgGrammar, expand, expand_tagged, mix_corpora, parse_grammar
from .dynfst import DynFstSession
from .engine import (EPSILON, AlignmentBeam, AlignmentHypothesis,
                     DeadHistoryError, NfclmModel, advance, class_prefix,
                     decider_history, eos_logprob, exact_alignment_histories,
                     exact_next_dist, extend, last_class, next_dist, sample,
                     sequence_logprob, start_beam)
from .evaluate import (FusionWeights, NBestEntry, PerplexityReport,
                       RescoredEntry, perplexity, rescore_nbest)
from .seqmodel import (BackoffNGram, ConditionalSymbolModel, DeciderModel,
                       UniformModel, renormalize_by_prior, train_decider,
                       train_ngram)
from .vocab import (BACKGROUND, BOS, EOS, ClassAlphabet, Vocabulary,
                    detokenize, load_class_alphabet, load_vocabulary,
                    tokenize)
from . import bundle

__version__ = "0.1.0"

__all__ = [
    "AlignmentBeam", "AlignmentHypothesis", "BACKGROUND", "BOS",
    "BackoffNGram", "CfgGrammar", "ClassAlphabet", "ConditionalSymbolModel",
    "DeadHistoryError", "DeciderModel", "DynFstSession", "EOS", "EPSILON",
    "FusionWeights", "NBestEntry", "NfclmModel", "PerplexityReport",
    "ProbClassFst", "RescoredEntry", "UniformModel", "Vocabulary", "advance",
    "build_from_entities", "bundle", "class_prefix", "decider_history",
    "detokenize", "eos_logprob", "exact_alignment_histories", "exact_next_dist",
    "expand", "expand_tagged", "extend",
    "last_class", "load_class_alphabet", "load_entities", "load_vocabulary",
    "mix_corpora", "next_dist", "parse_grammar", "perplexity",
    "renormalize_by_prior", "rescore_nbest", "sample", "sequence_logprob",
    "start_beam", "tokenize", "train_decider", "train_ngram",
]
