import dataclasses
import math
import random
import struct
from array import array
from collections import Counter
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import pytest

from nfclm import (BOS, EOS, BackoffNGram, DeciderModel, NfclmModel, ProbClassFst,
                   build_from_entities, load_class_alphabet, load_vocabulary, train_decider,
                   train_ngram)
from nfclm.engine import EXACT_BEAM_SIZE, _stored_suffix
from nfclm.seqmodel import NGramLevel, widened

TOY_SYMBOLS = ["_play", "_ro", "sie", "_by", "_browne", "salie", "berta", "_flack"]

SONG_ENTITIES = [("_ro", "sie"), ("_ro", "salie")]
ARTIST_ENTITIES = [("_ro", "berta", "_flack"), ("_browne",)]

# binaries written by the format v2 serializer, kept as bytes because the
# serializer now writes v3 only; see data/v2/README.md
V2_DATA = Path(__file__).parent / "data" / "v2"

# longer than any toy sentence that the tests walk with whole decider histories
FULL_LENGTH = 16


@pytest.fixture(scope="session")
def toy_vocab():
    return load_vocabulary(TOY_SYMBOLS)


@pytest.fixture(scope="session")
def toy_classes():
    return load_class_alphabet(["@bg", "@song", "@artist"])


@pytest.fixture(scope="session")
def song_fst():
    return build_from_entities("@song", entity_pairs(SONG_ENTITIES))


@pytest.fixture(scope="session")
def artist_fst():
    return build_from_entities("@artist", entity_pairs(ARTIST_ENTITIES))


def entity_pairs(entities):
    """``entities``, symbol tuples, as the ``(symbols, 1)`` pairs that
    ``build_from_entities`` takes."""
    return [(symbols, 1) for symbols in entities]


def state_arcs(fst, state):
    """The arcs of ``fst``'s state ``state`` as ``{symbol: (probability,
    destination)}`` in symbol order, read from the state's run of the
    public columns."""
    lo, hi = fst.offsets[state], fst.offsets[state + 1]
    return {fst.symbols[sid]: (prob, dest)
            for sid, prob, dest in zip(fst.arc_ids[lo:hi], fst.probs[lo:hi], fst.dests[lo:hi])}


def fst_columns(fst):
    """The columns ``fst`` holds, which a round trip gives back equal."""
    return fst.symbols, fst.offsets, fst.exits, fst.arc_ids, fst.probs, fst.dests


def fst_from_dicts(label, arcs, exits):
    """A ``ProbClassFst`` over one ``{symbol: (probability, destination)}``
    per state and the states' exit probabilities, its columns unchecked."""
    symbols = tuple(sorted({symbol for out in arcs for symbol in out}))
    rows = [(symbols.index(symbol), *out[symbol]) for out in arcs for symbol in sorted(out)]
    return ProbClassFst(label, symbols, array("I", accumulate(map(len, arcs), initial=0)),
                        array("d", exits), array("I", [sid for sid, _, _ in rows]),
                        array("d", [prob for _, prob, _ in rows]),
                        array("I", [dest for _, _, dest in rows]))


def trie_fst(label, entities):
    """The relative-frequency trie of ``entities``, ``(symbols, count)``
    pairs, in the form bundles were packed in before equivalent states
    were merged: a state per prefix, numbered in preorder over arcs in
    symbol order, each probability the quotient a build divides."""
    weights, ends = Counter(), Counter()  # per prefix, summed in entity order
    for symbols, count in entities:
        for k in range(len(symbols) + 1):
            weights[symbols[:k]] += float(count)
        ends[symbols] += float(count)
    prefixes = sorted(weights)  # tuple order is preorder
    ids = {prefix: i for i, prefix in enumerate(prefixes)}
    arcs = [{} for _ in prefixes]
    for prefix in prefixes[1:]:
        arcs[ids[prefix[:-1]]][prefix[-1]] = (weights[prefix] / weights[prefix[:-1]],
                                              ids[prefix])
    return fst_from_dicts(label, arcs, [ends[prefix] / weights[prefix] for prefix in prefixes])


def ngram_from_tables(discount, predicted, history_alphabet, tables):
    """A ``BackoffNGram`` holding ``tables``, one ``{context: {target: count}}``
    per context length, as its sorted columns."""
    symbols = sorted(set(predicted) | set(history_alphabet)
                     | {s for table in tables for context, run in table.items()
                        for s in (*context, *run)})
    ids = {s: i for i, s in enumerate(symbols)}
    width = len(symbols).bit_length()
    levels = []
    for table in tables:
        contexts = sorted(table)
        entries = [(ids[t], table[c][t]) for c in contexts for t in sorted(table[c])]
        levels.append(NGramLevel(
            array("Q", [sum(ids[s] << width * (len(c) - 1 - i) for i, s in enumerate(c))
                        for c in contexts]),
            array("I", accumulate((len(table[c]) for c in contexts), initial=0)),
            array("I", [t for t, _ in entries]), array("Q", [n for _, n in entries])))
    return BackoffNGram(discount, symbols, predicted, history_alphabet, levels)


def count_tables(ngram):
    """An n-gram's levels read back from its public columns: one
    ``{context: {target: count}}`` per context length, an empty run an
    empty table."""
    symbols, width = ngram.symbols, ngram.width
    tables = []
    for length, (contexts, offsets, targets, counts) in enumerate(ngram.levels):
        tables.append({
            tuple(symbols[key >> width * (length - 1 - i) & (1 << width) - 1]
                  for i in range(length)):
            {symbols[targets[k]]: counts[k] for k in range(offsets[j], offsets[j + 1])}
            for j, key in enumerate(contexts)})
    return tables


class Level(NamedTuple):
    """Where one n-gram level's context count and the values of its four
    columns start."""

    count: int
    contexts: int
    sizes: int
    targets: int
    counts: int


def ngram_levels(data, base=0):
    """The ``Level`` of each level of the n-gram payload at ``base`` in
    ``data``, of format v2 (integer columns of u32 ids and u64 counts) or
    v3 (each integer column after a byte that gives its width)."""
    version, order = struct.unpack_from("<HH", data, base + 5)

    def u32(at):
        return struct.unpack_from("<I", data, at)[0]

    def column(at, count, v2_width):
        """Where a column of ``count`` values starts, its width and its end."""
        width = v2_width if version == 2 else data[at]
        start = at + (version > 2)
        return start, width, start + width * count

    at = base + 21
    for _ in range(u32(at - 4)):
        at += 4 + u32(at)
    for _ in range(2):  # predicted, then history alphabet ids
        at = column(at + 4, u32(at), 4)[2]
    levels = []
    for length in range(order):
        n_contexts = u32(at)
        contexts, _, end = column(at + 4, length * n_contexts, 4)
        sizes, width, end = column(end, n_contexts, 4)
        n_counts = sum(int.from_bytes(data[k:k + width], "little")
                       for k in range(sizes, end, width))
        targets, _, end = column(end, n_counts, 4)
        counts, _, end = column(end, n_counts, 8)
        levels.append(Level(at, contexts, sizes, targets, counts))
        at = end
    return levels


def put(data, at, fmt, value, cut=None):
    """``data`` with ``value`` packed by ``fmt`` at ``at``, cut at ``cut``."""
    data = bytearray(data)
    struct.pack_into(fmt, data, at, value)
    return bytes(data[:cut])


def keyed(scale, raw, prior, alpha):
    """``scale``, a prior scaling of lists in one class order, applied to a
    raw distribution and a prior keyed by class."""
    return dict(zip(raw, scale(list(raw.values()), [prior[c] for c in raw], alpha)))


def uniform_background(alphabet):
    """An untrained unigram: every symbol of ``alphabet`` gets 1/len, after any history."""
    return ngram_from_tables(0.5, alphabet, alphabet + (BOS,), [{}])


def make_toy_model(vocab, classes, song, artist, **kwargs):
    """Uniform background over the toy symbols + EOS, tiny trained decider."""
    decider = train_decider(
        [("_play", "@song", "_by", "@artist"),
         ("_play", "@song"),
         ("_play", "_by", "@artist")],
        vocab, classes, order=2)
    return NfclmModel(
        vocabulary=vocab,
        classes=classes,
        background=uniform_background(vocab.symbols + (EOS,)),
        class_fsts={"@song": song, "@artist": artist},
        decider=decider,
        **kwargs,
    )


@pytest.fixture()
def toy_model(toy_vocab, toy_classes, song_fst, artist_fst):
    return make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)


@pytest.fixture()
def toy_model_exact_beam(toy_vocab, toy_classes, song_fst, artist_fst):
    """Beam settings wide enough to keep every alignment."""
    return make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst,
                          beam_size=EXACT_BEAM_SIZE, beam_delta=float("inf"))


def context(model, histories):
    """``model`` as it is: its beams keep each alignment's decider context."""
    return model


def full(model, histories):
    """``model`` with its decider widened to read the longest of
    ``histories`` whole (``seqmodel.widened``), so that along them its
    beams keep each alignment's whole decider history, as Fig. 1 draws
    them."""
    return dataclasses.replace(
        model, decider=widened(model.decider, max(map(len, histories), default=0)))


# what a beam keeps of each alignment's decider history: its context, or all of it
READINGS = (context, full)


@pytest.fixture()
def toy_model_full(toy_model):
    """The toy model keeping whole decider histories, as Fig. 1 draws them."""
    return dataclasses.replace(toy_model, decider=widened(toy_model.decider, FULL_LENGTH))


@pytest.fixture()
def toy_model_exact_beam_full(toy_model_exact_beam):
    """Every alignment, each with its whole decider history (Fig. 1)."""
    model = toy_model_exact_beam
    return dataclasses.replace(model, decider=widened(model.decider, FULL_LENGTH))


def hypothesis_key(model, decider_history=(), position=None):
    """The key of a hypothesis, packed as the engine module docstring lays
    it out and apart from the engine: BOS is id 1, the vocabulary and class
    labels ids from 2 in string order, each ``w`` bits wide; the decider
    history's last ``D`` tokens (``D`` the decider's context size),
    BOS-padded on the left to ``D``, above the position, which is 0 in the
    background and else the class's rank (from 1) among the sorted class
    labels above its state."""
    names = (BOS,) + tuple(sorted(set(model.vocabulary.symbols) | set(model.classes.labels)))
    ids = {name: i for i, name in enumerate(names, start=1)}
    width = len(names).bit_length()
    ranked = sorted(model.classes.nonbackground)
    state_bits = max((model.class_fsts[c].num_states for c in ranked), default=0).bit_length()
    size = model.decider.context_size
    history = tuple(decider_history)[max(0, len(decider_history) - size):]
    packed = 0
    for token in (BOS,) * (size - len(history)) + history:
        packed = packed << width | ids[token]
    bits = 0 if position is None else (ranked.index(position[0]) + 1) << state_bits | position[1]
    return packed << state_bits + len(ranked).bit_length() | bits


def histories(model, beam):
    """The decoded decider history of each hypothesis of ``beam``."""
    return [model.decode(h.key)[0] for h in beam.hypotheses]


def positions(model, beam):
    """The decoded position of each hypothesis of ``beam``."""
    return [model.decode(h.key)[1] for h in beam.hypotheses]


def decider_row(model, decider_history):
    """The decider's distribution after a collapsed history of tokens, at
    the padded context the kernel reads."""
    from oracle import padded

    return model.decider.distribution(padded(decider_history, model.decider.context_size))


def assert_beam_matches_oracle(model, history) -> bool:
    """Beam ``next_dist`` after ``history`` equals the exact oracle within
    1e-9 in log space; a history the oracle finds dead must die in the
    beam too.  Returns whether the history was live."""
    from nfclm import DeadHistoryError, advance, next_dist
    from oracle import exact_next_dist

    try:
        exact = exact_next_dist(model, history)
    except DeadHistoryError:
        with pytest.raises(DeadHistoryError):
            advance(model, history)
        return False
    beamed = next_dist(model, advance(model, history))
    for sym, p in exact.items():
        if p == 0.0:
            assert beamed[sym] == 0.0, (history, sym)
        else:
            assert abs(math.log(beamed[sym]) - math.log(p)) <= 1e-9, (history, sym)
    return True


def random_instance(rng: random.Random, max_history: int = 8):
    """Small random model plus live histories sampled from it.

    Sized for the exact-enumeration oracle: up to 12 symbols, 2-3
    entity classes, entities up to length 6.
    """
    from nfclm import sample as model_sample

    n_initial = rng.randint(2, 6)
    n_cont = rng.randint(2, 6)
    symbols = [f"_w{i}" for i in range(n_initial)] + [f"c{i}" for i in range(n_cont)]
    vocab = load_vocabulary(symbols)
    n_classes = rng.randint(2, 3)
    labels = ["@bg"] + [f"@k{i}" for i in range(n_classes)]
    classes = load_class_alphabet(labels)

    fsts = {}
    for label in labels[1:]:
        entities = []
        for _ in range(rng.randint(1, 5)):
            length = rng.randint(1, 6)
            entities.append((tuple(rng.choice(symbols) for _ in range(length)),
                             rng.randint(1, 3)))
        fsts[label] = build_from_entities(label, entities)

    bg_corpus = [
        tuple(rng.choice(symbols) for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(5, 15))
    ]
    background = train_ngram(bg_corpus, vocab, order=rng.randint(1, 3),
                             discount=rng.uniform(0.5, 0.9))

    tagged_corpus = []
    for _ in range(rng.randint(5, 15)):
        sentence = []
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.3:
                sentence.append(rng.choice(labels[1:]))
            else:
                sentence.append(rng.choice(symbols))
        tagged_corpus.append(tuple(sentence))
    trained = train_decider(tagged_corpus, vocab, classes, order=rng.randint(1, 3))
    decider = DeciderModel(trained.ngram, trained.prior, alpha=rng.choice([0.0, 0.5, 1.0]))

    model = NfclmModel(
        vocabulary=vocab,
        classes=classes,
        background=background,
        class_fsts=fsts,
        decider=decider,
        beam_size=10 ** 4,
        beam_delta=1e9,
    )
    histories = []
    for s in range(3):
        drawn = model_sample(model, max_length=max_history, seed=rng.randrange(2 ** 31))
        histories.append(tuple(drawn[:max_history]))
    histories.append(())
    return model, histories


def shared_key_lists(model):
    """Token lists ``(a, b)`` for every symbol ``a`` and the first two ``b``.

    Few of their padded contexts are stored in the model, so several
    lists end in contexts that share one cache key, and threads that
    score them at once fill one cache row together.  Checks that some key
    of each cache serves at least three lists.
    """
    symbols = model.vocabulary.symbols
    lists = [(a, b) for b in symbols[:2] for a in symbols]
    for levels, size in ((model._bg_levels, model.background.context_size),
                         (model._decider_levels, model.decider.context_size)):
        # the all-background alignment's decider context is the token context
        keys = Counter(_stored_suffix(model.context(tokens, size), levels) for tokens in lists)
        assert max(keys.values()) >= 3
    return lists
