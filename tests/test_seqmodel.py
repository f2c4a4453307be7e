import copy
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfclm import (BOS, EOS, load_class_alphabet, load_vocabulary, train_decider,
                   train_ngram)
from nfclm.cli import main
from nfclm.serialization import SerializationError, narrowest
from nfclm.seqmodel import (NGRAM_MAGIC, BackoffNGram, ConditionalSymbolModel, DeciderModel,
                            _scale_by_prior, class_prior_from_corpus,
                            ngram_sequence_logprob)

from conftest import (V2_DATA, count_tables, keyed, ngram_from_tables, ngram_levels, put,
                      uniform_background)
from model_memory import (corpora, entries, held_bytes, integer_columns, mid_size_automaton,
                          mid_size_models, state_fields)


def reference_prob(corpus, order, discount, alphabet, symbol, history):
    """Direct recomputation of interpolated absolute discounting.

    Counts n-grams with explicit loops over padded sentences and applies
    the estimate bottom-up; shares no code with the implementation.
    """
    counts = [Counter() for _ in range(order)]
    for sentence in corpus:
        padded = [BOS] * (order - 1) + list(sentence) + [EOS]
        for i in range(order - 1, len(padded)):
            for k in range(order):
                counts[k][(tuple(padded[i - k:i]), padded[i])] += 1
    predicted = list(alphabet) + [EOS]
    p = 1.0 / len(predicted)
    context = tuple(history)[max(0, len(history) - order + 1):]
    for k in range(len(context) + 1):
        ctx = context[len(context) - k:]
        total = sum(c for (h, _), c in counts[k].items() if h == ctx)
        if total == 0:
            continue
        distinct = sum(1 for (h, _), c in counts[k].items() if h == ctx and c > 0)
        seen = counts[k][(ctx, symbol)]
        head = (seen - discount) / total if seen else 0.0
        p = head + (discount * distinct / total) * p
    return p


class TestTrainNgram:
    CORPUS = [("a", "b"), ("a", "b")]

    def test_hand_computed_bigram(self):
        # d=0.75: P(b|a) = (2-.75)/2 + .75*1/2 * P1(b); P1(b) = (2-.75)/6 + .75*3/6*(1/3)
        model = train_ngram(self.CORPUS, ["a", "b"], order=2, discount=0.75)
        p1_b = (2 - 0.75) / 6 + 0.75 * 3 / 6 * (1 / 3)
        assert p1_b == pytest.approx(1 / 3)
        assert math.exp(model.logprob("b", ("a",))) == pytest.approx(0.625 + 0.375 * p1_b)
        assert math.exp(model.logprob("b", ("a",))) == pytest.approx(0.75)
        assert math.exp(model.logprob("a", ("a",))) == pytest.approx(0.125)

    def test_matches_reference_on_random_corpora(self):
        rng = random.Random(11)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(20):
            corpus = [
                tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 8))
            ]
            order = rng.randint(1, 3)
            discount = rng.uniform(0.3, 0.9)
            model = train_ngram(corpus, alphabet, order=order, discount=discount)
            history = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
            for sym in alphabet + [EOS]:
                want = reference_prob(corpus, order, discount, alphabet, sym, history)
                assert model.distribution(history)[sym] == pytest.approx(want, abs=1e-12)

    def test_uniform_counts_give_symmetric_unigram(self):
        model = train_ngram([("a",), ("b",), ("c",), ("d",)], list("abcd"), order=1)
        dist = model.distribution(())
        assert dist["a"] == dist["b"] == dist["c"] == dist["d"]
        letters = math.fsum(dist[s] for s in "abcd")
        assert dist["a"] / letters == pytest.approx(1 / 4)  # EOS holds the rest

    def test_normalization_over_random_histories(self):
        rng = random.Random(3)
        alphabet = list("abcde")
        corpus = [tuple(rng.choice(alphabet) for _ in range(5)) for _ in range(10)]
        model = train_ngram(corpus, alphabet, order=3)
        for _ in range(100):
            history = tuple(rng.choice(alphabet + [BOS]) for _ in range(rng.randint(0, 5)))
            assert math.fsum(model.distribution(history).values()) == pytest.approx(
                1.0, abs=1e-9)

    def test_out_of_alphabet_symbol_rejected(self):
        with pytest.raises(ValueError, match="'z'"):
            train_ngram([("a", "z")], ["a", "b"], order=2)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_ngram([], ["a"], order=1)

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError, match=r"^an n-gram needs at least one count level$"):
            ngram_from_tables(0.5, ["a"], ["a"], [])
        with pytest.raises(ValueError, match=r"^order must be an int >= 1, got 0$"):
            train_ngram([("a",)], ["a"], order=0)
        with pytest.raises(ValueError):
            ngram_from_tables(1.0, ["a"], ["a"], [{}, {}])
        with pytest.raises(ValueError, match="nonempty"):
            ngram_from_tables(0.5, [], ["a"], [{}, {}])


def walk_reference(model, history):
    """The per-symbol dict walk the list sweep replaced, from the counts alone."""
    context = tuple(history)[len(history) - min(len(history), model.order - 1):]
    dist = {sym: 1.0 / len(model.alphabet) for sym in model.alphabet}
    tables = count_tables(model)
    for length in range(len(context) + 1):
        table = tables[length].get(context[len(context) - length:])
        if not table:
            continue
        total = sum(table.values())
        backoff = model.discount * len(table) / total
        for sym in dist:
            seen = table.get(sym, 0)
            head = (seen - model.discount) / total if seen else 0.0
            dist[sym] = head + backoff * dist[sym]
    return dist


def random_ngram(rng: random.Random):
    """A random n-gram, its count tables neither closed under suffixes nor
    all nonempty, and histories to query it, some shorter than its context."""
    predicted = [f"s{i}" for i in range(rng.randint(2, 6))]
    history_alphabet = predicted[:rng.randint(0, len(predicted))] + [BOS, "h"]
    order = rng.randint(1, 4)
    discount = rng.uniform(0.05, 0.95)

    def history(length):
        return tuple(rng.choice(history_alphabet) for _ in range(length))

    counts = [{} for _ in range(order)]
    for _ in range(rng.randint(0, 30)):
        context = history(rng.randrange(order))
        table = counts[len(context)].setdefault(context, {})
        target = rng.choice(predicted)
        table[target] = table.get(target, 0) + rng.randint(1, 3)
    for _ in range(rng.randint(0, 3)):  # empty tables are read as absent
        length = rng.randrange(order)
        counts[length].setdefault(history(length), {})
    model = ngram_from_tables(discount, predicted, history_alphabet, counts)
    return model, [history(rng.randint(0, order + 1)) for _ in range(8)]


class TestDistributionValues:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_sweep_keeps_the_walk_bits(self, seed):
        rng = random.Random(seed)
        model, histories = random_ngram(rng)
        for history in histories:
            want = walk_reference(model, history)
            values = model.distribution_values(history)
            assert [p.hex() for p in values] == [want[s].hex() for s in model.alphabet]
            dist = model.distribution(history)
            assert list(dist) == list(model.alphabet)
            state = model.resolve(history)
            for sym, p in dist.items():
                assert model.logprob(sym, history).hex() == math.log(p).hex()
                assert model.logprob_at(sym, state).hex() == math.log(p).hex()
            values[0] = -1.0  # a fresh list: the next call does not see this
            values.append(2.0)
            assert [p.hex() for p in model.distribution_values(history)] == [
                want[s].hex() for s in model.alphabet]
        # over levels with empty runs and levels not closed under suffixes,
        # the level walk reads a suffix as stored, at its own index in its
        # level, if and only if stored_contexts lists it
        symbols, stored = model.stored_contexts()
        listed = {tuple(symbols[i] for i in context)
                  for level in stored for context in zip(*level)}
        tables = count_tables(model)
        for size in range(1, model.context_size + 1):
            for context in itertools.product(sorted(model.history_alphabet), repeat=size):
                read = []
                state = model.resolve(context)
                assert type(state) is int and state >= 0
                for length, field in enumerate(state_fields(model, state), start=1):
                    if not field:
                        continue
                    j = field - 1
                    suffix = context[size - length:]
                    assert list(tables[length])[j] == suffix
                    read.append(suffix)
                assert read == [context[size - n:] for n in range(1, size + 1)
                                if context[size - n:] in listed]

    def test_a_state_is_ints_and_skips_a_level_with_minus_one(self):
        """``resolve`` packs one field per level into one int, 1 + the index
        of the level's stored suffix, 0 for a level that stores none (the
        index -1); ``logprob_at`` there has the bits of the log of
        ``distribution_values``, a skipped level included."""
        tables = [{(): {"a": 2, "b": 1, EOS: 1}},
                  {("b",): {"a": 1, EOS: 2}},
                  {("a", "a"): {"b": 2}, (BOS, "b"): {"a": 1}}]
        model = ngram_from_tables(0.6, ("a", "b", EOS), ("a", "b", BOS), tables)
        # level 1 holds one context, a 1-bit field; level 2 two, a 2-bit
        # field above it.  ('a',) is stored at no level, so ('a', 'a') reads
        # level 1 as 0 (index -1); BOS sorts before 'a'
        assert model.resolve(("a", "a")) == 0b10_0  # indices (-1, 1)
        assert model.resolve((BOS, "b")) == 0b01_1  # (0, 0)
        assert model.resolve(("a", "b")) == 0b00_1  # (0,)
        assert model.resolve(("b", "a")) == model.resolve(()) == 0  # ()
        for history in itertools.product(("a", "b", BOS), repeat=2):
            state = model.resolve(history)
            assert type(state) is int
            values = model.distribution_values(history)
            want = walk_reference(model, history)
            assert [p.hex() for p in values] == [want[s].hex() for s in model.alphabet]
            for i, sym in enumerate(model.alphabet):
                assert model.logprob_at(sym, state).hex() == math.log(values[i]).hex()

    def test_contexts_wider_than_64_bits(self):
        """An order-8 n-gram over 600 symbols packs a 7-symbol context into
        70 bits, past a u64: its levels still load and score by the walk."""
        rng = random.Random(8)
        alphabet = [f"w{i}" for i in range(600)]
        corpus = [tuple(rng.choice(alphabet[:20]) for _ in range(10)) for _ in range(30)]
        model = train_ngram(corpus, alphabet, order=8)
        data = model.serialize()
        back = BackoffNGram.deserialize(data)
        assert back.serialize() == data
        for sentence in corpus[:5]:
            for cut in range(len(sentence) + 1):
                history = (BOS,) * 7 + sentence[:cut]
                want = walk_reference(back, history)
                assert [p.hex() for p in back.distribution_values(history)] == [
                    want[s].hex() for s in back.alphabet]
                assert back.logprob(EOS, history).hex() == math.log(want[EOS]).hex()

    def test_contract_default_reads_distribution(self):
        model = train_ngram([("a", "b")], ["a", "b"], order=2)
        history = ("a",)
        values = ConditionalSymbolModel.distribution_values(model, history)
        assert values == list(model.distribution(history).values())
        assert values == model.distribution_values(history)
        # the resolve-once default keeps the history and reads logprob there
        state = ConditionalSymbolModel.resolve(model, ["a"])
        assert state == history
        for sym, p in model.distribution(history).items():
            assert ConditionalSymbolModel.logprob_at(model, sym, state).hex() == \
                model.logprob(sym, history).hex() == math.log(p).hex()


def component_state(model):
    """A deep copy of ``vars(model)``, a nested component as its own state."""
    return {name: component_state(value) if isinstance(value, ConditionalSymbolModel)
            else copy.deepcopy(value) for name, value in vars(model).items()}


def test_querying_changes_no_component():
    """A built component is only read, so sessions on many threads can share it."""
    vocab = load_vocabulary(["_play", "_ro", "sie", "_by", "_browne"])
    classes = load_class_alphabet(["@bg", "@song", "@artist"])
    background = train_ngram([("_play", "_ro", "sie"), ("_by", "_browne")], vocab, order=3)
    decider = train_decider([("_play", "@song", "_by", "@artist"), ("_play", "_ro")],
                            vocab, classes, order=3)
    for model in (background, decider):
        before = component_state(model)
        for context in itertools.product(sorted(model.history_alphabet),
                                         repeat=model.context_size):
            model.distribution(context)
            model.distribution_values(context)
            list(model.stored_contexts())
            for sym in model.alphabet:
                model.logprob(sym, context)
        assert component_state(model) == before


class TestDistribution:
    def test_empty_history_backs_off_to_unigram(self):
        model = train_ngram([("a", "b")], ["a", "b"], order=3)
        uni = model.distribution(())
        # unigram level only: a appears once of two tokens + EOS
        assert uni["a"] == pytest.approx((1 - 0.75) / 3 + 0.75 * 3 / 3 * (1 / 3))
        assert math.fsum(uni.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in uni.values())

    def test_markov_truncation(self):
        model = train_ngram([("a", "b", "a", "b")], ["a", "b"], order=2)
        long_history = ("b", "a", "b", "a")
        assert model.distribution(long_history) == model.distribution(("a",))

    def test_unknown_history_symbol_rejected(self):
        model = train_ngram([("a",)], ["a"], order=2)
        with pytest.raises(KeyError, match="'q'"):
            model.distribution(("q",))

    def test_unpredictable_symbol_rejected(self):
        """``logprob`` finds its target among the predicted symbols alone: a
        symbol of the symbol table that only histories hold, such as BOS,
        is refused as an unknown string is."""
        vocab = load_vocabulary(["a", "b"])
        classes = load_class_alphabet(["@bg", "@x"])
        background = train_ngram([("a", "b")], vocab, order=2)
        decider = train_decider([("a", "@x", "b")], vocab, classes, order=2)
        for ngram, history_only in (background, (BOS,)), (decider.ngram, (BOS, "a")):
            assert set(history_only) <= set(ngram.symbols) - set(ngram.alphabet)
            for symbol in (*history_only, "zz"):
                with pytest.raises(KeyError, match=f"^\"symbol '{symbol}' is not predictable\"$"):
                    ngram.logprob(symbol, ())

    def test_strict_positivity(self):
        model = train_ngram([("a",)], ["a", "b", "c"], order=2)
        assert all(p > 0 for p in model.distribution(("a",)).values())


class TestSerialization:
    def test_roundtrip_identical_distributions(self):
        rng = random.Random(5)
        alphabet = list("abc")
        corpus = [tuple(rng.choice(alphabet) for _ in range(4)) for _ in range(6)]
        model = train_ngram(corpus, alphabet, order=3, discount=0.6)
        back = BackoffNGram.deserialize(model.serialize())
        assert count_tables(back) == count_tables(model)
        assert back.serialize() == model.serialize()
        history = ("a", "b")
        assert back.distribution(history) == model.distribution(history)

    @staticmethod
    def corrupt_payloads():
        """A trained n-gram's and decider's format v2 bytes (data/v2), each
        with one count set to zero: the n-gram's of 'b' after ('a',), the
        decider's of '@x' at level 0.  Returns the n-gram's bytes, the
        decider's, and the offset of the decider's zero."""
        ngram = (V2_DATA / "ngram.bin").read_bytes()
        level1 = ngram_levels(ngram)[1]  # contexts ('<s>',) ('a',) ('b',), one count each
        assert ngram[level1.targets + 4] == sorted({"a", "b", BOS, EOS}).index("b")
        ngram = put(ngram, level1.counts + 8, "<Q", 0)
        decider = (V2_DATA / "decider.bin").read_bytes()
        level0 = ngram_levels(decider, decider.index(NGRAM_MAGIC))[0]  # '@bg', then '@x'
        zero_at = level0.counts + 8
        return ngram, put(decider, zero_at, "<Q", 0), zero_at

    def test_zero_count_rejected(self):
        ngram, decider, _ = self.corrupt_payloads()
        for kind, data in ((BackoffNGram, ngram), (DeciderModel, decider)):
            with pytest.raises(SerializationError, match="zero count") as info:
                kind.deserialize(data)
            assert "byte offset" in str(info.value)
        # the offset points at the zero u64 in the n-gram payload
        with pytest.raises(SerializationError) as info:
            BackoffNGram.deserialize(ngram)
        assert ngram[info.value.offset:info.value.offset + 8] == bytes(8)

    def test_decider_error_offset_points_into_decider_payload(self):
        _, data, zero_at = self.corrupt_payloads()
        start = data.index(NGRAM_MAGIC)
        with pytest.raises(SerializationError) as info:
            DeciderModel.deserialize(data)
        # the zero u64 of the embedded n-gram, counted from the decider's first byte
        assert info.value.offset == zero_at == 175 and start == 64
        assert data[info.value.offset:info.value.offset + 8] == bytes(8)
        assert str(info.value).endswith("(byte offset 175)")
        # an embedded n-gram cut short is reported at its end, in decider bytes
        inner = data[start:]
        cut = data[:start - 8] + (20).to_bytes(8, "little") + inner[:20]
        with pytest.raises(SerializationError, match="unexpected end") as info:
            DeciderModel.deserialize(cut)
        assert start < info.value.offset <= start + 20

    def test_target_outside_predicted_alphabet_rejected(self):
        data = (V2_DATA / "ngram.bin").read_bytes()  # train_ngram([("a", "b")], ...)
        symbols = sorted({"a", "b", BOS, EOS})
        # the target of ('a',)'s one count becomes BOS, a history symbol, never predicted
        data = put(data, ngram_levels(data)[1].targets + 4, "<I", symbols.index(BOS))
        with pytest.raises(SerializationError, match="outside the predicted") as info:
            BackoffNGram.deserialize(data)
        at = info.value.offset
        assert int.from_bytes(data[at:at + 4], "little") == symbols.index(BOS)


    def test_empty_runs_read_as_absent(self):
        """A payload may give a context no counts; such a context is read as
        absent, with the bits the dict tables gave it, and is not stored."""
        tables = [{(): {"a": 2, "b": 1, EOS: 1}},
                  {("a",): {}, ("b",): {"a": 1, EOS: 2}},
                  {("a", "a"): {}, (BOS, "a"): {"b": 2}, ("b", "a"): {"a": 1}}]
        data = ngram_from_tables(0.6, ("a", "b", EOS), ("a", "b", BOS), tables).serialize()
        assert put(data, ngram_levels(data)[1].sizes, "<B", 0) == data  # ('a',) holds none
        model = BackoffNGram.deserialize(data)
        assert model.serialize() == data
        assert count_tables(model) == tables
        symbols, stored = model.stored_contexts()
        assert [[[symbols[i] for i in column] for column in level] for level in stored] == [
            [["b"]], [[BOS, "b"], ["a", "a"]]]
        unigram = ("0x1.fffffffffffffp-2", "0x1.fffffffffffffp-3", "0x1.fffffffffffffp-3")
        recorded = {  # values, then log-probabilities, in the order a, b, EOS
            (): (unigram, ("-0x1.62e42fefa39f0p-1", "-0x1.62e42fefa39f0p+0",
                           "-0x1.62e42fefa39f0p+0")),
            ("b",): (("0x1.5555555555554p-2", "0x1.9999999999998p-4", "0x1.2222222222222p-1"),
                     ("-0x1.193ea7aad030cp+0", "-0x1.26bb1bbb55516p+1",
                      "-0x1.22cecdc455c84p-1")),
            (BOS, "a"): (("0x1.3333333333332p-3", "0x1.8ccccccccccccp-1",
                          "0x1.3333333333332p-4"),
                         ("-0x1.e5a9a7c3ac419p+0", "-0x1.05027950a359bp-2",
                          "-0x1.4b8ddfddbf088p+1")),
            ("b", "a"): (("0x1.6666666666666p-1", "0x1.3333333333332p-3",
                          "0x1.3333333333332p-3"),
                         ("-0x1.6d3c324e13f50p-2", "-0x1.e5a9a7c3ac419p+0",
                          "-0x1.e5a9a7c3ac419p+0")),
        }
        # ('a',) and ('a', 'a') hold empty runs: they read as the unigram and
        # ('a', 'b') as ('b',)
        for alias, history in (("a",), ()), (("a", "a"), ()), (("a", "b"), ("b",)):
            recorded[alias] = recorded[history]
        for history, (values, logprobs) in recorded.items():
            assert tuple(v.hex() for v in model.distribution_values(history)) == values
            assert tuple(model.logprob(s, history).hex() for s in model.alphabet) == logprobs

    def test_held_size_is_bounded_by_the_payload(self):
        """A loaded n-gram holds its columns, not a dict per context: with
        20k stored counts or more, it keeps no more than the 445,834 bytes of
        its format v2 payload, half of the bound that held when the columns
        were held at v2's fixed widths."""
        vocabulary, sentences, _ = corpora()
        ngram = train_ngram(sentences, vocabulary, order=3)
        assert entries(ngram) >= 20_000
        assert held_bytes(BackoffNGram, ngram.serialize()) <= 445_834

    def test_loaded_integer_columns_are_narrowest(self):
        """Every integer column of a loaded n-gram, decider and class
        automaton has the narrowest unsigned typecode that holds its values."""
        background, decider = mid_size_models()
        typecodes = set()
        for model in (background, decider, mid_size_automaton()):
            for name, column in integer_columns(type(model).deserialize(model.serialize())):
                assert column.typecode == narrowest(max(column, default=0)), name
                typecodes.add(column.typecode)
        assert typecodes == {"B", "H", "I"}


class TestRecordedBits:
    """``float.hex`` of probabilities recorded from the per-query loop that
    re-summed every count table; the level-0 table and the shared level
    walk must reproduce them bit for bit.  ``logprob`` must be the log of
    the recorded probability, bit for bit too."""

    ALPHABET = ["a", "b", "c", "d"]
    CORPUS = [
        ("b", "c", "b", "d"), ("c", "b", "d", "c", "d", "b", "c"), ("c", "a", "b", "d", "b"),
        ("b", "d", "a", "c", "d"), ("a", "b", "c", "d"), ("c", "b", "c"),
        ("d", "c", "b", "d"), ("b", "a"), ("b", "a", "c", "c", "d", "a"), ("b", "b", "d"),
        ("b", "b", "c"), ("b", "c", "d", "c"),
    ]
    TAGGED = [
        ("@y", "@y", "d"), ("@y", "@y"), ("c", "b"), ("@y", "a", "a", "b", "a"), ("d", "@y"),
        ("c", "b"), ("b",), ("b", "@y", "d"), ("c", "d", "@x", "d", "@y"), ("b", "a", "c", "c"),
    ]
    # order-3 n-gram, discount 0.7; columns follow the alphabet a, b, c, d, EOS
    NGRAM = {
        (): ("0x1.8c6318c6318c6p-4", "0x1.18c6318c6318dp-2", "0x1.ef7bdef7bdef8p-3",
             "0x1.8c6318c6318c7p-3", "0x1.8c6318c6318c7p-3"),
        (BOS,): ("0x1.85c7d85c7d85dp-5", "0x1.2d8e96d8e96d9p-1", "0x1.fc256fc256fc2p-3",
                 "0x1.1f6171f6171f6p-4", "0x1.71f6171f6171fp-5"),
        (BOS, BOS): ("0x1.27bfb27bfb27dp-5", "0x1.5329cddd47888p-1", "0x1.ff19cd46f229cp-3",
                     "0x1.52e9352e9352fp-5", "0x1.594c1594c1594p-7"),
        (BOS, "a"): ("0x1.8475984759845p-6", "0x1.09a5ee9a5ee9ap-1", "0x1.b001c3001c2ffp-3",
                     "0x1.8475984759846p-5", "0x1.97ba697ba697cp-3"),
        ("b",): ("0x1.8ad527bc618aep-4", "0x1.103983d66b104p-3", "0x1.7240b45138724p-2",
                 "0x1.680d3680d3681p-2", "0x1.d7004a9d31d70p-5"),
        ("a", "b"): ("0x1.1462023711146p-4", "0x1.7d1d522c2f7d2p-4", "0x1.9cc6e49f411cdp-2",
                     "0x1.95a2d95a2d95ap-2", "0x1.49b3676e0949bp-5"),
        ("d", "d"): ("0x1.0c1ca0c1ca0c2p-3", "0x1.60e5060e5060ep-3", "0x1.fc256fc256fc2p-3",
                     "0x1.71f6171f6171fp-5", "0x1.9d2db1d2db1d3p-2"),
        ("c", "a", "b"): ("0x1.1462023711146p-4", "0x1.7d1d522c2f7d2p-4", "0x1.9cc6e49f411cdp-2",
                          "0x1.95a2d95a2d95ap-2", "0x1.49b3676e0949bp-5"),
    }
    # order-3 decider, alpha 1; columns follow the classes @bg, @x, @y
    DECIDER = {
        (): ("0x1.e79e79e79e79fp-2", "0x1.0c30c30c30c31p-2", "0x1.0c30c30c30c31p-2"),
        (BOS, BOS): ("0x1.539223eb0655dp-1", "0x1.f9333a78c92e5p-8", "0x1.50f6eb40102fbp-2"),
        (BOS, "a"): ("0x1.a8aea2ba8aea3p-1", "0x1.5d457515d4575p-4", "0x1.5d457515d4575p-4"),
        ("@x",): ("0x1.25fcb25fcb260p-1", "0x1.b4069b4069b41p-3", "0x1.b4069b4069b41p-3"),
        ("a", "@y"): ("0x1.11d5536aaf755p-1", "0x1.7b7c4b4943c8ep-4", "0x1.7d76465850234p-2"),
        ("b", "b"): ("0x1.3691c3345f38dp-1", "0x1.3565bda344c78p-3", "0x1.f053358b3e555p-3"),
        ("@x", "c", "@y"): ("0x1.11d5536aaf755p-1", "0x1.7b7c4b4943c8ep-4",
                            "0x1.7d76465850234p-2"),
    }
    # the decider's inner n-gram, before the floor and the prior
    DECIDER_NGRAM = {
        (): ("0x1.611a7b9611a7cp-1", "0x1.1a7b9611a7b96p-5", "0x1.1a7b9611a7b96p-2"),
        (BOS, BOS): ("0x1.77f1e0387f1e0p-1", "0x1.96c671b30600bp-11", "0x1.0f50dc5628410p-2"),
        (BOS, "a"): ("0x1.d8469ee58469fp-1", "0x1.1a7b9611a7b96p-7", "0x1.1a7b9611a7b96p-4"),
        ("@x",): ("0x1.88d3dcb08d3ddp-1", "0x1.a7b9611a7b961p-6", "0x1.a7b9611a7b961p-3"),
        ("a", "@y"): ("0x1.5054bead054bfp-1", "0x1.52fab4152fab4p-7", "0x1.54bead054beadp-2"),
        ("b", "b"): ("0x1.85e293205e294p-1", "0x1.1a7b9611a7b96p-6", "0x1.c52640bc52640p-3"),
        ("@x", "c", "@y"): ("0x1.5054bead054bfp-1", "0x1.52fab4152fab4p-7",
                            "0x1.54bead054beadp-2"),
    }

    def check(self, model, recorded):
        for history, column in recorded.items():
            dist = model.distribution(history)
            assert list(dist) == list(model.alphabet)
            assert tuple(dist[s].hex() for s in model.alphabet) == column
            for sym, p in zip(model.alphabet, column):
                assert model.logprob(sym, history).hex() == math.log(float.fromhex(p)).hex()

    def test_ngram(self):
        model = train_ngram(self.CORPUS, self.ALPHABET, order=3, discount=0.7)
        self.check(model, self.NGRAM)
        # logprob first, so it builds the level-0 table on a fresh model
        fresh = train_ngram(self.CORPUS, self.ALPHABET, order=3, discount=0.7)
        assert fresh.logprob(EOS, ()).hex() == math.log(float.fromhex(self.NGRAM[()][4])).hex()

    def test_decider(self):
        model = train_decider(self.TAGGED, load_vocabulary(self.ALPHABET),
                              load_class_alphabet(["@bg", "@x", "@y"]), order=3)
        self.check(model, self.DECIDER)
        self.check(model.ngram, self.DECIDER_NGRAM)


class TestDecider:
    VOCAB = load_vocabulary(["_play", "_ro", "sie", "_stop"])
    CLASSES = load_class_alphabet(["@bg", "@song", "@artist"])

    def corpus(self):
        return [
            ("_play", "@song"),
            ("_play", "@song"),
            ("_play", "@artist"),
            ("_stop", "_ro"),
            ("_ro", "sie"),
        ]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match=r"^empty training corpus$"):
            train_decider([], self.VOCAB, self.CLASSES, order=2)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^order must be an int >= 1, got 0$"):
            train_decider(self.corpus(), self.VOCAB, self.CLASSES, order=0)

    def test_song_dominates_after_play(self):
        trained = train_decider(self.corpus(), self.VOCAB, self.CLASSES, order=2)
        model = DeciderModel(trained.ngram, trained.prior, alpha=0.0)
        dist = model.distribution(("_play",))
        assert dist["@song"] == max(dist.values())

    def test_single_class_concentrates(self):
        trained = train_decider([("@song",)] * 5, self.VOCAB, self.CLASSES, order=1)
        model = DeciderModel(trained.ngram, trained.prior, alpha=0.0)
        dist = model.distribution(())
        assert dist["@song"] > 0.5
        assert all(p > 0 for p in dist.values())

    def test_normalization(self):
        model = train_decider(self.corpus(), self.VOCAB, self.CLASSES, order=3)
        # with alpha 0 the prior scaling leaves the floored distribution
        floored = DeciderModel(model.ngram, model.prior, alpha=0.0)
        for history in [(), ("_play",), ("@song", "_ro"), ("_stop", "@artist")]:
            assert math.fsum(model.distribution(history).values()) == pytest.approx(
                1.0, abs=1e-9)
            assert math.fsum(floored.distribution(history).values()) == pytest.approx(
                1.0, abs=1e-9)

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="'bogus'"):
            train_decider([("bogus",)], self.VOCAB, self.CLASSES, order=2)

    def test_background_label_rejected(self, tmp_path, capsys):
        """``@bg`` labels positions, it is not a corpus token: neither the
        library nor ``nfclm train-decider`` counts it in the prior."""
        with pytest.raises(ValueError, match="'@bg'"):
            train_decider([("_play", "@bg", "_stop")], self.VOCAB, self.CLASSES, order=2)
        files = {"vocab.txt": self.VOCAB.symbols, "classes.txt": self.CLASSES.labels,
                 "corpus.txt": ("_play @song", "_play @bg _stop")}
        for name, lines in files.items():
            (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["train-decider", "--corpus", str(tmp_path / "corpus.txt"),
                     "--vocab", str(tmp_path / "vocab.txt"),
                     "--classes", str(tmp_path / "classes.txt"),
                     "--out", str(tmp_path / "decider.bin")])
        out = capsys.readouterr()
        assert (code, out.out) == (1, "")
        assert out.err == f"nfclm: error: {tmp_path / 'corpus.txt'}:2: unknown symbol '@bg'\n"
        assert not (tmp_path / "decider.bin").exists()

    def test_prior_counting_oracle(self):
        # untagged lines are ignored; symbol positions count as background
        corpus = [("_play", "@song"), ("_ro", "sie")]
        prior = class_prior_from_corpus(corpus, self.CLASSES)
        assert prior["@bg"] == pytest.approx(1 / 2, abs=1e-6)
        assert prior["@song"] == pytest.approx(1 / 2, abs=1e-6)
        assert prior["@artist"] >= 1e-7  # floored, still positive

    def test_serialization_roundtrip(self):
        model = train_decider(self.corpus(), self.VOCAB, self.CLASSES, order=2)
        back = DeciderModel.deserialize(model.serialize())
        assert back.prior == model.prior
        assert back.alpha == model.alpha
        assert back.distribution(("_play",)) == model.distribution(("_play",))

    TOKENS = ("a", "b", "c", "d", "@x", "@y", "@z")

    @classmethod
    def assert_reloads_exactly(cls, corpus):
        """A trained decider loaded from its bytes re-packs to those bytes
        and gives the prior and every order-3 distribution bit for bit."""
        model = train_decider(corpus, load_vocabulary(cls.TOKENS[:4]),
                              load_class_alphabet(("@bg",) + cls.TOKENS[4:]), order=3)
        data = model.serialize()
        back = DeciderModel.deserialize(data)
        assert back.serialize() == data, corpus
        assert list(map(float.hex, back.prior.values())) == \
            list(map(float.hex, model.prior.values())), corpus
        for history in itertools.product(cls.TOKENS + (BOS,), repeat=2):
            assert list(map(float.hex, back.distribution(history).values())) == \
                list(map(float.hex, model.distribution(history).values())), (corpus, history)

    def test_reload_keeps_bits(self):
        # normalizing this decider's stored prior again moves each entry by an ulp
        self.assert_reloads_exactly(
            [s.split() for s in "d d d a|@y d a b|b|b a c @x|a|@x|@x a|@x a a|@x d".split("|")])

    def test_reload_keeps_bits_sweep(self):
        rng = random.Random(0)
        for _ in range(200):
            self.assert_reloads_exactly(
                [[rng.choice(self.TOKENS) for _ in range(rng.randint(1, 4))]
                 for _ in range(rng.randint(1, 10))])


class TestRenormalizeByPrior:
    RAW = {"@bg": 0.8, "@song": 0.1, "@artist": 0.1}
    NGRAM = ngram_from_tables(0.5, tuple(RAW), (), [{}])

    def test_alpha_zero_is_identity(self):
        out = keyed(_scale_by_prior, self.RAW, {"@bg": 0.5, "@song": 0.3, "@artist": 0.2}, 0.0)
        for c, p in self.RAW.items():
            assert out[c] == pytest.approx(p)

    def test_uniform_prior_is_identity(self):
        prior = {c: 1 / 3 for c in self.RAW}
        for alpha in (0.0, 0.5, 1.0, 2.0):
            out = keyed(_scale_by_prior, self.RAW, prior, alpha)
            for c, p in self.RAW.items():
                assert out[c] == pytest.approx(p)

    def test_matching_prior_gives_uniform(self):
        out = keyed(_scale_by_prior, self.RAW, dict(self.RAW), 1.0)
        for p in out.values():
            assert p == pytest.approx(1 / 3)

    # the scaling trusts its settings: a decider's RULES refuse bad ones
    def test_zero_prior_rejected(self):
        with pytest.raises(ValueError, match="^prior for class '@artist' must be finite"):
            DeciderModel(self.NGRAM, {"@bg": 0.5, "@song": 0.5, "@artist": 0.0}, 1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="^alpha must be "):
            DeciderModel(self.NGRAM, dict(self.RAW), -1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.0, max_value=3.0))
    def test_prior_scale_invariance(self, scale, alpha):
        prior = {"@bg": 0.6, "@song": 0.25, "@artist": 0.15}
        scaled = {c: p * scale for c, p in prior.items()}
        a = keyed(_scale_by_prior, self.RAW, prior, alpha)
        b = keyed(_scale_by_prior, self.RAW, scaled, alpha)
        for c in self.RAW:
            assert a[c] == pytest.approx(b[c], rel=1e-12)

    def test_uniform_raw_argmax_is_smallest_prior(self):
        raw = {"@bg": 1 / 3, "@song": 1 / 3, "@artist": 1 / 3}
        prior = {"@bg": 0.7, "@song": 0.2, "@artist": 0.1}
        out = keyed(_scale_by_prior, raw, prior, 1.0)
        assert max(out, key=out.get) == "@artist"


class TestSequenceLogprob:
    def test_uniform_model_chain(self):
        model = uniform_background(("a", "b", EOS))
        assert ngram_sequence_logprob(model, ("a", "b")) == pytest.approx(
            3 * math.log(1 / 3))

    def test_ngram_chain_matches_stepwise(self):
        model = train_ngram([("a", "b"), ("b",)], ["a", "b"], order=2)
        lp = model.logprob("a", (BOS,)) + model.logprob("b", ("a",)) + \
            model.logprob(EOS, ("b",))
        assert ngram_sequence_logprob(model, ("a", "b")) == pytest.approx(lp)
