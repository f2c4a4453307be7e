import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfclm import (BOS, EOS, load_class_alphabet, load_vocabulary,
                   renormalize_by_prior, train_decider, train_ngram)
from nfclm.serialization import SerializationError
from nfclm.seqmodel import (BackoffNGram, DeciderModel, UniformModel,
                            class_prior_from_corpus, ngram_sequence_logprob)


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
        with pytest.raises(ValueError):
            BackoffNGram(0, 0.5, ["a"], ["a"])
        with pytest.raises(ValueError):
            BackoffNGram(2, 1.0, ["a"], ["a"])
        with pytest.raises(ValueError, match="nonempty"):
            BackoffNGram(2, 0.5, [], ["a"])

    def test_observe_resets_level0(self):
        corpus = [("a", "b", "c"), ("b", "b"), ("c", "a")]
        model = train_ngram(corpus[:-1], list("abc"), order=3)
        histories = [(), (BOS, BOS), ("c",), ("b", "c")]
        for history in histories:  # build the level-0 table before observing
            model.distribution(history)
            model.logprob("a", history)
        padded = (BOS, BOS) + corpus[-1] + (EOS,)
        for i in range(2, len(padded)):
            model.observe(padded[i - 2:i], padded[i])
        fresh = train_ngram(corpus, list("abc"), order=3)
        for history in histories:
            assert model.distribution(history) == fresh.distribution(history)
            for sym in fresh.alphabet:
                assert model.logprob(sym, history).hex() == fresh.logprob(sym, history).hex()


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
        assert back.counts == model.counts
        assert back.serialize() == model.serialize()
        history = ("a", "b")
        assert back.distribution(history) == model.distribution(history)

    def test_zero_count_rejected(self):
        ngram = train_ngram([("a", "b")], ["a", "b"], order=2)
        decider = train_decider([("a", "@x")], load_vocabulary(["a", "b"]),
                                load_class_alphabet(["@bg", "@x"]), order=2)
        ngram.counts[1][("a",)]["b"] = 0
        decider.ngram.counts[0][()]["@x"] = 0
        for model in (ngram, decider):
            data = model.serialize()
            with pytest.raises(SerializationError, match="zero count") as info:
                type(model).deserialize(data)
            assert "byte offset" in str(info.value)
        # the offset points at the zero u64 in the n-gram payload
        data = ngram.serialize()
        with pytest.raises(SerializationError) as info:
            BackoffNGram.deserialize(data)
        assert data[info.value.offset:info.value.offset + 8] == bytes(8)

    def test_decider_error_offset_points_into_decider_payload(self):
        decider = train_decider([("a", "@x")], load_vocabulary(["a", "b"]),
                                load_class_alphabet(["@bg", "@x"]), order=2)
        decider.ngram.counts[0][()]["@x"] = 0
        data = decider.serialize()
        inner = decider.ngram.serialize()
        start = data.index(inner)
        with pytest.raises(SerializationError) as info:
            DeciderModel.deserialize(data)
        # the zero u64 of the embedded n-gram, counted from the decider's first byte
        assert info.value.offset == 175 and start == 64
        assert data[info.value.offset:info.value.offset + 8] == bytes(8)
        assert str(info.value).endswith("(byte offset 175)")
        # an embedded n-gram cut short is reported at its end, in decider bytes
        cut = data[:start - 8] + (20).to_bytes(8, "little") + inner[:20]
        with pytest.raises(SerializationError, match="unexpected end") as info:
            DeciderModel.deserialize(cut)
        assert start < info.value.offset <= start + 20

    def test_target_outside_predicted_alphabet_rejected(self):
        model = train_ngram([("a", "b")], ["a", "b"], order=2)
        model.counts[1][("a",)][BOS] = 1  # BOS is a history symbol, never predicted
        data = model.serialize()
        with pytest.raises(SerializationError, match="outside the predicted") as info:
            BackoffNGram.deserialize(data)
        symbols = sorted({"a", "b", BOS, EOS})
        at = info.value.offset
        assert int.from_bytes(data[at:at + 4], "little") == symbols.index(BOS)

    def test_dump_counts_contains_observations(self):
        model = train_ngram([("a", "b")], ["a", "b"], order=2)
        dump = model.dump_counts()
        assert "0\t\ta\t1" in dump
        assert "1\ta\tb\t1" in dump


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

    def test_song_dominates_after_play(self):
        model = train_decider(self.corpus(), self.VOCAB, self.CLASSES, order=2, alpha=0.0)
        dist = model.distribution(("_play",))
        assert dist["@song"] == max(dist.values())

    def test_single_class_concentrates(self):
        model = train_decider([("@song",)] * 5, self.VOCAB, self.CLASSES,
                              order=1, alpha=0.0)
        dist = model.distribution(())
        assert dist["@song"] > 0.5
        assert all(p > 0 for p in dist.values())

    def test_normalization(self):
        model = train_decider(self.corpus(), self.VOCAB, self.CLASSES, order=3)
        for history in [(), ("_play",), ("@song", "_ro"), ("_stop", "@artist")]:
            assert math.fsum(model.distribution(history).values()) == pytest.approx(
                1.0, abs=1e-9)
            assert math.fsum(model.raw_distribution(history).values()) == pytest.approx(
                1.0, abs=1e-9)

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="'bogus'"):
            train_decider([("bogus",)], self.VOCAB, self.CLASSES, order=2)

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


class TestRenormalizeByPrior:
    RAW = {"@bg": 0.8, "@song": 0.1, "@artist": 0.1}

    def test_alpha_zero_is_identity(self):
        out = renormalize_by_prior(self.RAW, {"@bg": 0.5, "@song": 0.3, "@artist": 0.2}, 0.0)
        for c, p in self.RAW.items():
            assert out[c] == pytest.approx(p)

    def test_uniform_prior_is_identity(self):
        prior = {c: 1 / 3 for c in self.RAW}
        for alpha in (0.0, 0.5, 1.0, 2.0):
            out = renormalize_by_prior(self.RAW, prior, alpha)
            for c, p in self.RAW.items():
                assert out[c] == pytest.approx(p)

    def test_matching_prior_gives_uniform(self):
        out = renormalize_by_prior(self.RAW, dict(self.RAW), 1.0)
        for p in out.values():
            assert p == pytest.approx(1 / 3)

    def test_zero_prior_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            renormalize_by_prior(self.RAW, {"@bg": 0.5, "@song": 0.5, "@artist": 0.0}, 1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            renormalize_by_prior(self.RAW, dict(self.RAW), -1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.0, max_value=3.0))
    def test_prior_scale_invariance(self, scale, alpha):
        prior = {"@bg": 0.6, "@song": 0.25, "@artist": 0.15}
        scaled = {c: p * scale for c, p in prior.items()}
        a = renormalize_by_prior(self.RAW, prior, alpha)
        b = renormalize_by_prior(self.RAW, scaled, alpha)
        for c in self.RAW:
            assert a[c] == pytest.approx(b[c], rel=1e-12)

    def test_uniform_raw_argmax_is_smallest_prior(self):
        raw = {"@bg": 1 / 3, "@song": 1 / 3, "@artist": 1 / 3}
        prior = {"@bg": 0.7, "@song": 0.2, "@artist": 0.1}
        out = renormalize_by_prior(raw, prior, 1.0)
        assert max(out, key=out.get) == "@artist"


class TestSequenceLogprob:
    def test_uniform_model_chain(self):
        model = UniformModel(("a", "b", EOS))
        assert ngram_sequence_logprob(model, ("a", "b")) == pytest.approx(
            3 * math.log(1 / 3))

    def test_ngram_chain_matches_stepwise(self):
        model = train_ngram([("a", "b"), ("b",)], ["a", "b"], order=2)
        lp = model.logprob("a", (BOS,)) + model.logprob("b", ("a",)) + \
            model.logprob(EOS, ("b",))
        assert ngram_sequence_logprob(model, ("a", "b")) == pytest.approx(lp)
