"""Deterministic synthetic scale bundle and workload inputs.

``scale.py bundle`` builds what is the same for every seed, once per
size: the model (vocabulary, three entity classes, the background and
tagged training corpora, the trained models), all drawn from the fixed
``BUNDLE_SEED``, and a pool of n-best references with their scoring costs.
A bundle drawn per seed would add a between-seed spread in beam width
that no amount of work inside one run averages away.

``scale.py inputs`` draws the inputs of every workload from ``--seed``:
the sentences, the oracle windows and the n-best lists.  The shape is
fixed by ``SIZES``.

Design points the workloads depend on:

- Entity words are partly borrowed from carrier words, and entity
  pieces are shared between classes, so an entity-dense utterance has
  several live class alignments at once.
- Entity pieces (``_e*``, ``x*``) are rare in background text, so
  background sentences keep the beam near a single alignment.
- n-best hypotheses perturb only the tail of a reference, so the
  hypotheses of one list share long prefixes.
- The i-th n-best reference is the middle one of the stratum of the
  cost-ranked pool that the van der Corput sequence gives, so the first
  k lists cover the cost range evenly for any k, and each aligned group
  of 2**j lists holds one list per 2**-j of the range.  Scoring cost is
  heavy-tailed (30x between the cheapest and the dearest list); a timed
  run then sees the same cost mix whatever the seed.  The seed draws the
  hypotheses; references drawn at random within their strata moved the
  median list latency by up to 24% from seed to seed.  ``nbest.jsonl``
  ranks the pool by the cost of scoring the whole reference, what
  ``rescore-nbest`` pays; ``lazy.jsonl`` by the beam sizes at its first
  ``FANOUT_STATES`` states, where ``lazy-fst`` queries the fan-out.
"""

from __future__ import annotations

import argparse
import json
import os
import random

from nfclm import (NfclmModel, build_from_entities, load_class_alphabet,
                   load_vocabulary, mix_corpora, train_decider, train_ngram)
from nfclm import DeadHistoryError, bundle, extend, start_beam
from nfclm.cfg import CfgGrammar, expand_tagged

CLASSES = ("@bg", "@song", "@artist", "@place")
BUNDLE_SEED = 2201
FANOUT_STATES = 4          # as in worker.py: lazy-fst's fan-out states per utterance

SIZES = {
    # The workload shape the benchmark reports on.
    "scale": dict(
        words=620, conts=80, carriers=40, entity_words=220, entity_conts=60,
        entities=20000, bg_train=9000, decider_lines=8000, patterns=300,
        entity_utts=9000, bg_utts=120000, nbest_lists=160, nbest=100,
        windows=24, ref_pool=2048,
    ),
    # A few-second configuration for the smoke test.
    "tiny": dict(
        words=40, conts=10, carriers=10, entity_words=20, entity_conts=8,
        entities=150, bg_train=600, decider_lines=600, patterns=8,
        entity_utts=40, bg_utts=60, nbest_lists=6, nbest=12, windows=3,
        ref_pool=16,
    ),
}

ENTITY_LEN = (15, 30)
WINDOW = 12
SHARED_WORD_RATE = 0.08    # entity words borrowed from carrier words
SHARED_CARRIERS = 8        # how many carrier words entities may borrow
BG_CARRIER_RATE = 0.03     # carrier words inside background sentences
BG_ENTITY_RATE = 0.002     # entity pieces inside background sentences


def _zipf_pick(rng: random.Random, items, skew: float = 1.2):
    """An item drawn with a heavy head, so some pieces are far more common."""
    return items[min(int(len(items) * rng.random() ** (1.0 + skew)), len(items) - 1)]


class _Alphabet:
    def __init__(self, sz):
        self.words = [f"_w{i}" for i in range(sz["words"])]
        self.conts = [f"c{i}" for i in range(sz["conts"])]
        self.carriers = [f"_k{i}" for i in range(sz["carriers"])]
        self.entity_words = [f"_e{i}" for i in range(sz["entity_words"])]
        self.entity_conts = [f"x{i}" for i in range(sz["entity_conts"])]

    def symbols(self):
        return (self.words + self.conts + self.carriers
                + self.entity_words + self.entity_conts)


def _entity(rng, ab: _Alphabet, pieces):
    out = []
    for _ in range(rng.choice((1, 1, 2, 2, 2, 3))):
        if rng.random() < SHARED_WORD_RATE:
            out.append(rng.choice(ab.carriers[:SHARED_CARRIERS]))
            continue
        out.append(_zipf_pick(rng, pieces))
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            out.append(_zipf_pick(rng, ab.entity_conts))
    return tuple(out)


def _background_sentence(rng, ab: _Alphabet):
    # drifting index walk gives the n-gram real bigram structure
    i = rng.randrange(len(ab.words))
    out = []
    for _ in range(rng.randint(5, 12)):
        r = rng.random()
        if r < BG_ENTITY_RATE:
            out.append(rng.choice(ab.entity_words))
        elif r < BG_ENTITY_RATE + BG_CARRIER_RATE:
            out.append(rng.choice(ab.carriers))
        else:
            out.append(ab.words[i])
            if rng.random() < 0.3:
                out.append(ab.conts[(i * 7 + rng.randrange(3)) % len(ab.conts)])
            i = (i + rng.choice((1, 1, 2, 3, 5, 8))) % len(ab.words)
    return tuple(out)


def _pattern(rng, ab: _Alphabet):
    n_slots = rng.randint(1, 3)
    n_carrier = rng.randint(9, 18)
    cuts = sorted(rng.sample(range(1, n_carrier), n_slots))
    carrier = [rng.choice(ab.carriers) if rng.random() < 0.7 else rng.choice(ab.words)
               for _ in range(n_carrier)]
    pattern = []
    prev = 0
    for cut in cuts:
        pattern += carrier[prev:cut]
        pattern.append(rng.choice(CLASSES[1:]))
        prev = cut
    pattern += carrier[prev:]
    return tuple(pattern)


def _fill(rng, pattern, entities):
    """Expand one pattern; returns tokens and the (start, end) of each span."""
    tokens: list[str] = []
    spans = []
    for tok in pattern:
        if tok.startswith("@"):
            symbols = entities[tok][rng.randrange(len(entities[tok]))][0]
            spans.append((len(tokens), len(tokens) + len(symbols)))
            tokens.extend(symbols)
        else:
            tokens.append(tok)
    return tuple(tokens), spans


def _entity_utterances(rng, patterns, entities, n):
    out = []
    while len(out) < n:
        tokens, spans = _fill(rng, rng.choice(patterns), entities)
        if ENTITY_LEN[0] <= len(tokens) <= ENTITY_LEN[1]:
            out.append((tokens, spans))
    return out


def _beam_costs(model, tokens) -> tuple[int, int]:
    """(alignments summed over all steps, over the first FANOUT_STATES states).

    The first estimates the cost of scoring ``tokens``; over the
    references of n-best lists its logarithm correlates with that of the
    measured rescoring time at 0.98.  The second estimates the cost of
    the fan-outs ``lazy-fst`` queries at the start of an utterance: each
    one extends the beam of its state by every symbol.
    """
    beam = start_beam(model)
    sizes = [len(beam.hypotheses)]
    for symbol in tokens:
        try:
            beam, _ = extend(model, beam, symbol)
        except DeadHistoryError:
            break
        sizes.append(len(beam.hypotheses))
    return sum(sizes[1:]), sum(sizes[:FANOUT_STATES])


def _van_der_corput(i: int) -> float:
    """i-th point of the base-2 van der Corput sequence in [0, 1)."""
    q, denom = 0.0, 1.0
    while i:
        denom *= 2
        i, bit = divmod(i, 2)
        q += bit / denom
    return q


def _stratified_pick(i: int, strata: int, pool_size: int) -> int:
    """Pool rank of the i-th reference: the middle of its van der Corput stratum."""
    return int((_van_der_corput(i) + 0.5 / strata) * pool_size)


def _window(rng, tokens, spans):
    """A window of at most WINDOW tokens that cuts across an entity span."""
    start, end = rng.choice(spans)
    lo = max(0, start - rng.randint(1, WINDOW // 2))
    if rng.random() < 0.5:
        lo = max(0, min(end - 1, len(tokens) - WINDOW))  # start inside the span
    return tokens[lo:lo + WINDOW]


def _perturb_tail(rng, ref, ab: _Alphabet, symbols):
    """A hypothesis sharing a prefix with ``ref``: its tail is edited."""
    cut = rng.randint(max(1, len(ref) * 2 // 3), len(ref) - 1)
    tail = list(ref[cut:])
    edits = 0
    for _ in range(rng.randint(1, 3)):
        op = rng.random()
        pos = rng.randrange(len(tail) + 1)
        pool = ab.entity_words + ab.entity_conts if rng.random() < 0.5 else symbols
        if op < 0.5 and pos < len(tail):
            tail[pos] = rng.choice(pool)
        elif op < 0.75 and pos < len(tail) and len(tail) > 1:
            del tail[pos]
        else:
            tail.insert(pos, rng.choice(pool))
        edits += 1
    return ref[:cut] + tuple(tail), edits


def _nbest_list(rng, ref, ab, symbols, n):
    hyps = {ref: 0}
    while len(hyps) < n:
        hyp, edits = _perturb_tail(rng, ref, ab, symbols)
        hyps.setdefault(hyp, edits)
    rows = []
    for hyp, edits in hyps.items():
        # acoustic score prefers fewer edits, with enough noise that the
        # reference is not always first before rescoring
        asr = -3.0 * edits + rng.gauss(0.0, 1.5)
        ilm = -6.0 * len(hyp) + rng.gauss(0.0, 1.0)
        rows.append([round(asr, 6), round(ilm, 6), " ".join(hyp)])
    rng.shuffle(rows)
    return rows


def _grammar(sz):
    """Alphabet, entity classes and grammar, and the rng that drew them."""
    rng = random.Random(BUNDLE_SEED)
    ab = _Alphabet(sz)
    entities = {}
    width = len(ab.entity_words) * 5 // 11
    for k, label in enumerate(CLASSES[1:]):
        # overlapping slices: some entity words belong to two classes
        pieces = ab.entity_words[k * width * 3 // 5:k * width * 3 // 5 + width]
        pool: dict[tuple[str, ...], float] = {}
        while len(pool) < sz["entities"]:
            pool.setdefault(_entity(rng, ab, pieces),
                            float(min(50, 1 + int(rng.paretovariate(1.5)))))
        entities[label] = sorted(pool.items())
    grammar = CfgGrammar(
        patterns=[_pattern(rng, ab) for _ in range(sz["patterns"])],
        entities=entities,
    )
    return ab, grammar, rng


def build_bundle(size: str, out_dir: str) -> None:
    """Write the model and the reference pool under ``out_dir``.

    Layout: ``bundle/`` (a packed model), ``references.jsonl`` (one
    ``[scoring cost, fan-out cost, reference]`` per line) and
    ``meta.json``.
    """
    sz = SIZES[size]
    ab, grammar, rng = _grammar(sz)
    vocab = load_vocabulary(ab.symbols())
    classes = load_class_alphabet(list(CLASSES))
    bg_train = [_background_sentence(rng, ab) for _ in range(sz["bg_train"])]
    background = train_ngram(bg_train, vocab, order=3)
    tagged = expand_tagged(grammar, sz["decider_lines"], seed=rng.randrange(2 ** 31))
    mixed = mix_corpora(bg_train, tagged, 0.5, seed=rng.randrange(2 ** 31),
                        size=sz["decider_lines"])
    decider = train_decider(mixed, vocab, classes, order=3)
    fsts = {label: build_from_entities(label, pool)
            for label, pool in grammar.entities.items()}
    model = NfclmModel(vocabulary=vocab, classes=classes, background=background,
                       class_fsts=fsts, decider=decider)

    references = _entity_utterances(rng, grammar.patterns, grammar.entities, sz["ref_pool"])
    costed = [(*_beam_costs(model, ref), ref) for ref, _ in references]

    os.makedirs(out_dir, exist_ok=True)
    bundle.pack(model, os.path.join(out_dir, "bundle"))
    with open(os.path.join(out_dir, "references.jsonl"), "w", encoding="utf-8") as fh:
        for scoring, fanout, ref in costed:
            fh.write(json.dumps([scoring, fanout, " ".join(ref)]) + "\n")
    meta = {
        "bundle_seed": BUNDLE_SEED,
        "size": size,
        "vocabulary": len(vocab),
        "entities_per_class": sz["entities"],
        "fst_states": {label: fst.num_states for label, fst in fsts.items()},
        "reference_pool": len(costed),
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def make_inputs(seed: int, size: str, bundle_dir: str, out_dir: str) -> None:
    """Write the workload inputs drawn with ``seed`` under ``out_dir``.

    Layout: ``entity.txt`` and ``background.txt`` (one sentence per
    line), ``windows.txt`` (oracle windows), ``nbest.jsonl`` and
    ``lazy.jsonl`` (one n-best list per line) and ``meta.json``.
    """
    sz = SIZES[size]
    ab, grammar, _ = _grammar(sz)
    symbols = ab.symbols()
    with open(os.path.join(bundle_dir, "references.jsonl"), encoding="utf-8") as fh:
        pool = [json.loads(line) for line in fh]
    strata = 1 << (sz["nbest_lists"] - 1).bit_length()

    def lists(rng, cost):
        """``nbest_lists`` n-best lists, references stratified by ``cost``."""
        ranked = [tuple(entry[2].split())
                  for entry in sorted(pool, key=lambda entry: (entry[cost], entry[2]))]
        for i in range(sz["nbest_lists"]):
            ref = ranked[_stratified_pick(i, strata, len(ranked))]
            yield json.dumps({"reference": " ".join(ref),
                              "hyps": _nbest_list(rng, ref, ab, symbols, sz["nbest"])})

    rng = random.Random(seed)
    entity_utts = _entity_utterances(rng, grammar.patterns, grammar.entities,
                                     sz["entity_utts"])
    windows = [_window(rng, *entity_utts[rng.randrange(len(entity_utts))])
               for _ in range(sz["windows"])]

    os.makedirs(out_dir, exist_ok=True)

    def write_lines(name, lines):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")

    write_lines("entity.txt", (" ".join(t) for t, _ in entity_utts))
    write_lines("background.txt", (" ".join(_background_sentence(rng, ab))
                                   for _ in range(sz["bg_utts"])))
    write_lines("windows.txt", (" ".join(w) for w in windows))
    write_lines("nbest.jsonl", lists(rng, 0))
    write_lines("lazy.jsonl", lists(rng, 1))
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "size": size}, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("bundle", "inputs"))
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, help="workload seed (inputs)")
    parser.add_argument("--bundle", help="directory written by the bundle step (inputs)")
    args = parser.parse_args()
    if args.step == "bundle":
        build_bundle(args.size, args.out)
    elif args.seed is None or args.bundle is None:
        parser.error("the inputs step needs --seed and --bundle")
    else:
        make_inputs(args.seed, args.size, args.bundle, args.out)
