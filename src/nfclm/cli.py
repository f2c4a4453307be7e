"""Command-line pipeline: build, train, pack, and evaluate models.

All machine-readable output is line-oriented UTF-8 with tab-separated
fields and is deterministic given the flags and ``--seed`` (default 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import bundle as bundle_mod
from . import cfg as cfg_mod
from .classfst import build_from_entities, load_entities
from .dynfst import DynFstSession
from .engine import (DEFAULT_BEAM_DELTA, DEFAULT_BEAM_SIZE, EXACT_BEAM_SIZE,
                     DeadHistoryError, NfclmModel, advance, next_dist, sample,
                     sequence_logprobs)
from .evaluate import (DeadSentenceError, FusionWeights, parse_nbest_file,
                       perplexity, rescore_nbest)
from .seqmodel import (COUNT, DEFAULT_DISCOUNT, DEFAULT_ORDER, BackoffNGram, DeciderModel,
                       train_decider, train_ngram, widened)
from .serialization import SerializationError
from .vocab import load_class_alphabet, load_vocabulary


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# every option that two or more subcommands take alike; the optional --out of
# expand-cfg and mix, which defaults to stdout, is declared with each
_OPTIONS = {
    **{name: dict(required=True)
       for name in ("--bundle", "--corpus", "--vocab", "--classes", "--out")},
    "--order": dict(type=int, default=DEFAULT_ORDER),
    "--discount": dict(type=float, default=DEFAULT_DISCOUNT),
    "--seed": dict(type=int, default=0, help="random seed (default: 0)"),
    "--beam-n": dict(type=int, default=None, help="beam size override"),
    "--beam-delta": dict(type=float, default=None, help="beam log-prob band override"),
    "--alpha": dict(type=float, default=None,
                    help="decider prior-renormalization exponent override"),
    "--exact": dict(action="store_true",
                    help="keep every alignment (no beam pruning)"),
}
_MODEL_OPTIONS = ("--beam-n", "--beam-delta", "--alpha")
# the rule each numeric flag's value must hold, checked before any file is
# read: a setting's is its owner's, and every count meets ``COUNT``
_FLAG_RULES = {"--beam-n": NfclmModel.RULES["beam_size"],
               "--beam-delta": NfclmModel.RULES["beam_delta"],
               "--alpha": DeciderModel.RULES["alpha"],
               "--order": COUNT, "--fraction": cfg_mod.FRACTION,
               "--discount": BackoffNGram.RULES["discount"],
               "--lm-weight": FusionWeights.RULES["lm_weight"],
               "--ilm-weight": FusionWeights.RULES["ilm_weight"],
               "-n": COUNT, "--max-len": COUNT, "--size": COUNT}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """Register the shared options ``names``; each subcommand takes only those it reads."""
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


def _load_bundle(args):
    """The bundle with the flag overrides; ``--exact`` switches pruning off."""
    beam_size, beam_delta = getattr(args, "beam_n", None), getattr(args, "beam_delta", None)
    if getattr(args, "exact", False):
        if beam_size is not None or beam_delta is not None:
            raise ValueError("--exact keeps every alignment; it cannot be combined with "
                             "--beam-n or --beam-delta")
        beam_size, beam_delta = EXACT_BEAM_SIZE, math.inf
    return bundle_mod.load(args.bundle, beam_size=beam_size, beam_delta=beam_delta,
                           alpha=args.alpha)


def _read_numbered(path, alphabet=None):
    """The corpus at ``path``, ``-`` for stdin; see :func:`nfclm.cfg.read_numbered_corpus`."""
    return cfg_mod.read_numbered_corpus(sys.stdin if path == "-" else path, alphabet, "<stdin>")


def cmd_build_fst(args) -> int:
    fst = build_from_entities(args.class_label, load_entities(args.entities))
    with open(args.out, "wb") as fh:
        fh.write(fst.serialize())
    if args.text_dump:
        with open(args.text_dump, "w", encoding="utf-8") as fh:
            fh.write(fst.text_dump())
    print(f"{args.class_label}\tstates\t{fst.num_states}\tentities\t{fst.entity_count}")
    return 0


def _train(args, train, alphabet, *components):
    """The model ``train`` makes of ``--corpus``, written to ``--out``, and the
    corpus's sentence count; an error about the whole corpus starts with its name."""
    name, numbered = _read_numbered(args.corpus, alphabet)
    try:
        model = train([s for _, s in numbered], *components, args.order, args.discount)
    except ValueError as exc:  # such as that the corpus holds no sentence
        raise ValueError(f"{name}: {exc}") from None
    with open(args.out, "wb") as fh:
        fh.write(model.serialize())
    return model, len(numbered)


def cmd_train_bglm(args) -> int:
    vocabulary = load_vocabulary(args.vocab)
    model, sentences = _train(args, train_ngram, vocabulary, vocabulary)
    print(f"bglm\torder\t{model.order}\tsentences\t{sentences}")
    return 0


def cmd_train_decider(args) -> int:
    vocabulary = load_vocabulary(args.vocab)
    classes = load_class_alphabet(args.classes)
    model, _ = _train(args, train_decider, {*vocabulary.symbols, *classes.nonbackground},
                      vocabulary, classes)
    prior = "\t".join(f"{c}\t{_fmt(model.prior[c])}" for c in model.classes)
    print(f"decider\torder\t{model.ngram.order}\tprior\t{prior}")
    return 0


def cmd_expand_cfg(args) -> int:
    vocabulary = load_vocabulary(args.vocab)
    classes = load_class_alphabet(args.classes)
    grammar = cfg_mod.parse_grammar(args.patterns, args.entity_dir, vocabulary, classes)
    expandfn = cfg_mod.expand_tagged if args.tagged else cfg_mod.expand
    sentences = expandfn(grammar, args.n, args.seed)
    _write_sentences(sentences, args.out)
    return 0


def _write_sentences(sentences, out) -> None:
    if out and out != "-":
        cfg_mod.write_corpus(sentences, out)
    else:
        for sentence in sentences:
            print(" ".join(sentence))


def cmd_mix(args) -> int:
    inputs = [_read_numbered(path) for path in (args.background, args.cfg)]
    try:
        mixed = cfg_mod.mix_corpora(*([s for _, s in numbered] for _, numbered in inputs),
                                    args.fraction, args.seed, size=args.size)
    except ValueError as exc:  # the flags hold their rules, so an input it draws from is empty
        raise ValueError(f"{', '.join(name for name, numbered in inputs if not numbered)}: "
                         f"{exc}") from None
    _write_sentences(mixed, args.out)
    return 0


def cmd_pack(args) -> int:
    class_fsts = {}
    for spec in args.fst or []:
        label, _, path = spec.partition("=")
        if not label or not path:
            raise ValueError(f"--fst expects label=path, got {spec!r}")
        if label in class_fsts:
            raise ValueError(f"--fst gives class {label!r} twice")
        class_fsts[label] = path
    model = bundle_mod.assemble(
        args.bglm, args.decider, class_fsts,
        beam_size=args.beam_n if args.beam_n is not None else DEFAULT_BEAM_SIZE,
        beam_delta=args.beam_delta if args.beam_delta is not None else DEFAULT_BEAM_DELTA,
        alpha=args.alpha,
    )
    report = bundle_mod.pack(model, args.out_dir)
    for name in sorted(report):
        print(f"{name}\t{report[name]}")
    return 0


def cmd_score(args) -> int:
    model = _load_bundle(args)
    sentences = [s for _, s in _read_numbered(args.corpus, model.vocabulary)[1]]
    for sentence, lp in zip(sentences, sequence_logprobs(model, sentences)):
        print(f"{_fmt(lp)}\t{' '.join(sentence)}")
    return 0


def cmd_ppl(args) -> int:
    model = _load_bundle(args)
    scorer = model.background if args.background_only else model
    name, numbered = _read_numbered(args.corpus, model.vocabulary)
    try:
        report = perplexity(scorer, [sentence for _, sentence in numbered],
                            skip_dead=args.skip_dead)
    except DeadSentenceError as exc:
        raise ValueError(f"{name}:{numbered[exc.index][0]}: sentence has probability 0; "
                         "pass --skip-dead to exclude it") from None
    except ValueError as exc:  # no sentence left to score
        raise ValueError(f"{name}: {exc}") from None
    print(f"perplexity\t{_fmt(report.perplexity)}")
    print(f"logprob\t{_fmt(report.total_logprob)}")
    print(f"symbols\t{report.symbol_count}")
    print(f"sentences\t{report.sentence_count}")
    print(f"dead\t{len(report.dead_sentences)}")
    for i in report.dead_sentences:
        print(f"dead-line\t{numbered[i][0]}")
    return 0


def cmd_next(args) -> int:
    model = _load_bundle(args)
    dist = next_dist(model, advance(model, args.history.split()))
    for sym in sorted(dist, key=lambda s: (-dist[s], s)):
        print(f"{sym}\t{_fmt(dist[sym])}")
    return 0


def cmd_rescore(args) -> int:
    model = _load_bundle(args)
    entries = parse_nbest_file(args.nbest)
    weights = FusionWeights(lm_weight=args.lm_weight, ilm_weight=args.ilm_weight)
    # each utterance is its own n-best list, in order of first appearance
    utterances: dict[str, list] = {}
    for entry in entries:
        utterances.setdefault(entry.utterance_id, []).append(entry)
    for group in utterances.values():
        for rank, r in enumerate(rescore_nbest(model, group, weights), start=1):
            flag = "FAILED" if r.failed else "ok"
            print(f"{rank}\t{r.entry.utterance_id}\t{_fmt(r.fused_score)}"
                  f"\t{_fmt(r.entry.asr_score)}\t{_fmt(r.lm_logprob)}"
                  f"\t{_fmt(r.entry.ilm_score)}\t{flag}\t{' '.join(r.entry.tokens)}")
    return 0


def cmd_sample(args) -> int:
    model = _load_bundle(args)
    for i in range(args.n):
        print(" ".join(sample(model, args.max_len, args.seed + i)))
    return 0


def cmd_dump_dynfst(args) -> int:
    model, sentence = _load_bundle(args), args.sentence.split()
    if args.exact:
        # every alignment, each with its whole decider history (Fig. 1)
        model = dataclasses.replace(model, decider=widened(model.decider, len(sentence)))
    session = DynFstSession(model)
    state = session.start_state()
    for symbol in sentence:
        arc = session.transition(state, symbol)
        if arc is None:
            print(f"dead\t{symbol}", file=sys.stderr)
            return 1
        state = arc[0]
    sys.stdout.write(session.dump())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfclm",
        description="Factored class language model toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-fst", help="build a class FST from an entity list")
    p.add_argument("--class-label", required=True)
    p.add_argument("--entities", required=True)
    _add_options(p, "--out")
    p.add_argument("--text-dump", default=None)
    p.set_defaults(func=cmd_build_fst)

    p = sub.add_parser("train-bglm", help="train the background n-gram")
    _add_options(p, "--corpus", "--vocab", "--order", "--discount", "--out")
    p.set_defaults(func=cmd_train_bglm)

    p = sub.add_parser("train-decider", help="train the class decider")
    _add_options(p, "--corpus", "--vocab", "--classes", "--order", "--discount", "--out")
    p.set_defaults(func=cmd_train_decider)

    p = sub.add_parser("expand-cfg", help="expand grammar patterns into sentences")
    p.add_argument("--patterns", required=True)
    p.add_argument("--entity-dir", required=True)
    _add_options(p, "--vocab", "--classes")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--tagged", action="store_true",
                   help="keep class tokens instead of expanding entities")
    p.add_argument("--out", default="-")
    _add_options(p, "--seed")
    p.set_defaults(func=cmd_expand_cfg)

    p = sub.add_parser("mix", help="mix background and tagged corpora")
    p.add_argument("--background", required=True)
    p.add_argument("--cfg", required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--out", default="-")
    _add_options(p, "--seed")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("pack", help="assemble a model bundle directory")
    p.add_argument("--bglm", required=True)
    p.add_argument("--decider", required=True)
    p.add_argument("--fst", action="append", metavar="LABEL=PATH")
    p.add_argument("--out-dir", required=True)
    _add_options(p, *_MODEL_OPTIONS)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("score", help="log-probability per sentence")
    _add_options(p, "--bundle", "--corpus", *_MODEL_OPTIONS, "--exact")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("ppl", help="corpus perplexity")
    _add_options(p, "--bundle", "--corpus")
    p.add_argument("--background-only", action="store_true")
    p.add_argument("--skip-dead", action="store_true",
                   help="exclude zero-probability sentences instead of failing")
    _add_options(p, *_MODEL_OPTIONS, "--exact")
    p.set_defaults(func=cmd_ppl)

    p = sub.add_parser("next", help="next-symbol distribution after a history")
    _add_options(p, "--bundle")
    p.add_argument("--history", default="")
    _add_options(p, *_MODEL_OPTIONS, "--exact")
    p.set_defaults(func=cmd_next)

    p = sub.add_parser("rescore", help="shallow-fusion n-best rescoring")
    _add_options(p, "--bundle")
    p.add_argument("--nbest", required=True)
    p.add_argument("--lm-weight", type=float, default=0.0)
    p.add_argument("--ilm-weight", type=float, default=0.0)
    _add_options(p, *_MODEL_OPTIONS, "--exact")
    p.set_defaults(func=cmd_rescore)

    p = sub.add_parser("sample", help="draw sentences from the model")
    _add_options(p, "--bundle")
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--max-len", type=int, default=30)
    _add_options(p, "--alpha", "--seed")  # sampling builds no beam
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("dump-dynfst", help="expand a sentence and dump the sub-graph")
    _add_options(p, "--bundle")
    p.add_argument("--sentence", required=True)
    _add_options(p, *_MODEL_OPTIONS, "--exact")
    p.set_defaults(func=cmd_dump_dynfst)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, rule in _FLAG_RULES.items():  # each flag the subcommand took
            value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
            if value is not None:
                rule.check(flag, value)
        return args.func(args)
    except (ValueError, KeyError, OSError, DeadHistoryError,
            SerializationError, bundle_mod.BundleError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        print(f"nfclm: error: {message}", file=sys.stderr)
        return 1
