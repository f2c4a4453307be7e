import math
import random
from collections import Counter

import pytest

from nfclm import (BACKGROUND, EOS, EPSILON, AlignmentBeam,
                   AlignmentHypothesis, DeadHistoryError, advance,
                   class_prefix, decider_history, eos_logprob,
                   exact_alignment_histories, exact_next_dist, extend,
                   last_class, next_dist, sample, sequence_logprob,
                   start_beam)
from nfclm.engine import _routes

from conftest import random_instance

FIG1_SENTENCE = ("_play", "_ro", "sie", "_by", "_browne")


def hyp(decider_hist=(), position=None, weight=0.0):
    return AlignmentHypothesis(tuple(decider_hist), position, weight)


def routes(model, h):
    """The kernel's routes out of one hypothesis: route -> (arcs, log weight)."""
    return {route: (arcs, lw) for _, route, arcs, lw in _routes(model, [h])}


def route_masses(model, h):
    """Probability of taking each route: the stay route's is that of its arcs."""
    return {route: math.fsum(p for p, _ in arcs.values()) if route == EPSILON
            else math.exp(lw)
            for route, (arcs, lw) in routes(model, h).items()}


def single_beam(model, h, history):
    """A beam holding only ``h``, normalized to it."""
    return AlignmentBeam(history=tuple(history), hypotheses=[h], log_norm=h.log_weight,
                         size_limit=model.beam_size, delta=model.beam_delta)


class TestLastClass:
    def test_open_song_span(self):
        assert last_class(("@bg", "@song", EPSILON), EPSILON) == "@song"

    def test_background_candidate(self):
        assert last_class((), BACKGROUND) == BACKGROUND

    def test_nothing_emitted(self):
        assert last_class((), EPSILON) == EPSILON


class TestClassPrefix:
    HW = ("_play", "_ro", "sie")
    HC = ("@bg", "@song", EPSILON)

    def test_open_span(self):
        assert class_prefix(self.HW, self.HC, "@song") == ("_ro", "sie")

    def test_other_class_empty(self):
        assert class_prefix(self.HW, self.HC, "@artist") == ()

    def test_empty_history(self):
        assert class_prefix((), (), "@song") == ()

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            class_prefix(("a",), (), "@song")

    def test_closed_span_is_empty(self):
        # span ended, background resumed: no open prefix for the class
        assert class_prefix(("_ro", "_by"), ("@song", "@bg"), "@song") == ()


class TestDeciderHistory:
    def test_paper_example(self):
        assert decider_history(("_play", "_ro", "sie"),
                               ("@bg", "@song", EPSILON)) == ("_play", "@song")

    def test_span_then_background(self):
        assert decider_history(("_play", "_ro", "sie", "_by"),
                               ("@bg", "@song", EPSILON, "@bg")) == \
            ("_play", "@song", "_by")

    def test_empty(self):
        assert decider_history((), ()) == ()

    def test_orphan_continuation_rejected(self):
        with pytest.raises(ValueError, match="open span"):
            decider_history(("a", "b"), ("@bg", EPSILON))


class TestClassComponentProb:
    """What each class generates once chosen, read from the route kernel."""

    def test_continuation_arc(self, toy_model):
        fst = toy_model.class_fsts["@song"]
        inside = hyp(("_play", "@song"), ("@song", fst.walk(("_ro",))))
        (stay_arcs, _), = routes(toy_model, inside).values()
        assert stay_arcs["sie"][0] == 0.5
        beam = single_beam(toy_model, inside, ("_play", "_ro"))
        assert next_dist(toy_model, beam)["sie"] == 0.5

    def test_fresh_entry_uses_start_arc(self, toy_model):
        background = hyp(("_play",), None)
        arcs, _ = routes(toy_model, background)["@song"]
        assert arcs["_ro"][0] == 1.0

    def test_no_open_span_is_zero(self, toy_model):
        assert EPSILON not in routes(toy_model, hyp())

    def test_background_uses_symbol_model(self, toy_model):
        arcs, _ = routes(toy_model, hyp(("_play",)))[BACKGROUND]
        assert arcs is None  # the symbol comes from the background model
        beam = single_beam(toy_model, hyp(("_play",)), ("_play",))
        # no class starts with _by: only the background can emit it
        want = toy_model.decider_dist(("_play",))[BACKGROUND] / 9  # uniform over 8 + EOS
        assert next_dist(toy_model, beam)["_by"] == pytest.approx(want, rel=1e-12)

    def test_continuation_normalizes_by_stay_mass(self, toy_vocab, toy_classes):
        # exit 0.5 at the fork: staying renormalizes the single arc to 1
        from conftest import make_toy_model
        from nfclm import build_from_entities
        song = build_from_entities("@song", [("_ro",), ("_ro", "sie")])
        artist = build_from_entities("@artist", [("_browne",)])
        model = make_toy_model(toy_vocab, toy_classes, song, artist)
        fst = model.class_fsts["@song"]
        inside = hyp(("@song",), ("@song", fst.walk(("_ro",))))
        stay_arcs, lw = routes(model, inside)[EPSILON]
        assert lw == 0.0
        assert route_masses(model, inside)[EPSILON] == pytest.approx(0.5)
        assert stay_arcs["sie"][0] / route_masses(model, inside)[EPSILON] == \
            pytest.approx(1.0)


class TestClassEmissionDist:
    """How the kernel splits a hypothesis's mass among its routes."""

    def test_background_position(self, toy_model):
        masses = route_masses(toy_model, hyp(("_play",), None))
        assert list(masses) == list(toy_model.classes.labels)  # no stay route
        decider = toy_model.decider_dist(("_play",))
        for c in toy_model.classes.labels:
            assert masses[c] == pytest.approx(decider[c], rel=1e-12)

    def test_nonfinal_state_forces_continuation(self, toy_model):
        fst = toy_model.class_fsts["@song"]
        masses = route_masses(
            toy_model, hyp(("_play", "@song"), ("@song", fst.walk(("_ro",)))))
        assert masses == {EPSILON: 1.0}

    def test_final_state_releases_full_mass(self, toy_model):
        fst = toy_model.class_fsts["@song"]
        leaf = fst.walk(("_ro", "sie"))
        masses = route_masses(toy_model, hyp(("_play", "@song"), ("@song", leaf)))
        assert masses[EPSILON] == 0.0
        decider = toy_model.decider_dist(("_play", "@song"))
        for c in toy_model.classes.labels:
            assert masses[c] == pytest.approx(decider[c])

    def test_sums_to_one_when_classes_reachable(self, toy_model):
        for h in (hyp(), hyp(("_play",), None)):
            assert math.fsum(route_masses(toy_model, h).values()) == \
                pytest.approx(1.0, abs=1e-9)


class TestExtend:
    def test_first_step_matches_fig1_factor(self, toy_model):
        beam, lp = extend(toy_model, start_beam(toy_model), "_play")
        decider = toy_model.decider_dist(())
        want = decider[BACKGROUND] * (1 / 9)
        assert lp == pytest.approx(math.log(want), abs=1e-12)
        assert beam.decider_histories() == [("_play",)]

    def test_second_step_opens_three_alignments(self, toy_model):
        beam = advance(toy_model, ("_play", "_ro"))
        assert sorted(beam.decider_histories()) == [
            ("_play", "@artist"), ("_play", "@song"), ("_play", "_ro")]

    def test_third_step_kills_artist(self, toy_model):
        beam = advance(toy_model, ("_play", "_ro", "sie"))
        assert sorted(beam.decider_histories()) == [
            ("_play", "@song"), ("_play", "_ro", "sie")]

    def test_dead_symbol_raises(self, toy_vocab, toy_classes, song_fst, artist_fst):
        # a background model that cannot emit `berta` makes it unreachable
        from conftest import make_toy_model
        from nfclm import NfclmModel, train_ngram
        background = train_ngram([("_play", "_ro", "sie")], toy_vocab, order=1)
        base = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)
        model = NfclmModel(
            vocabulary=base.vocabulary, classes=base.classes,
            background=background, class_fsts=base.class_fsts,
            decider=base.decider)
        # smoothing keeps every background symbol alive; a mid-class miss dies
        beam = advance(model, ("_ro",))
        beam = [h for h in beam.hypotheses]
        with pytest.raises(DeadHistoryError):
            # inside @artist after _ro only `berta` continues; kill the rest
            fst = model.class_fsts["@artist"]
            only_artist = start_beam(model)
            only_artist.hypotheses = [
                hyp(("@artist",), ("@artist", fst.walk(("_ro",))))]
            extend(model, only_artist, "_by")

    def test_unknown_symbol_rejected(self, toy_model):
        with pytest.raises(KeyError):
            extend(toy_model, start_beam(toy_model), "zzz")

    def test_merging_collapses_equal_keys(self, toy_vocab, toy_classes):
        # entities (x) and (x,x): two alignments of x,x,x,x share
        # (decider history, position) and must merge
        from conftest import make_toy_model
        from nfclm import build_from_entities
        song = build_from_entities("@song", [("sie",), ("sie", "sie")])
        artist = build_from_entities("@artist", [("_browne",)])
        model = make_toy_model(toy_vocab, toy_classes, song, artist,
                               beam_size=10 ** 6, beam_delta=float("inf"))
        beam = advance(model, ("sie",) * 4)
        keys = [h.key for h in beam.hypotheses]
        assert len(keys) == len(set(keys))
        # merged beam still matches the exact, merge-free enumeration
        exact = exact_next_dist(model, ("sie",) * 4)
        beamed = next_dist(model, beam)
        for sym, p in exact.items():
            assert beamed[sym] == pytest.approx(p, abs=1e-12)

    def test_beam_size_and_delta_enforced(self, toy_model):
        toy_model.beam_size = 2
        beam = advance(toy_model, ("_play", "_ro"))
        assert len(beam.hypotheses) == 2
        best = beam.hypotheses[0].log_weight
        assert all(best - h.log_weight <= toy_model.beam_delta
                   for h in beam.hypotheses)


class TestFig1:
    BOXES = {
        1: {("_play",)},
        2: {("_play", "_ro"), ("_play", "@song"), ("_play", "@artist")},
        3: {("_play", "_ro", "sie"), ("_play", "@song")},
        4: {("_play", "_ro", "sie", "_by"), ("_play", "@song", "_by")},
        5: {("_play", "_ro", "sie", "_by", "_browne"),
            ("_play", "_ro", "sie", "_by", "@artist"),
            ("_play", "@song", "_by", "_browne"),
            ("_play", "@song", "_by", "@artist")},
    }

    def test_exact_alignment_sets_per_prefix(self, toy_model):
        for k, want in self.BOXES.items():
            got = exact_alignment_histories(toy_model, FIG1_SENTENCE[:k])
            assert got == want, f"prefix {k}"

    def test_beam_matches_exact_sets(self, toy_model_exact_beam):
        model = toy_model_exact_beam
        beam = start_beam(model)
        for k, sym in enumerate(FIG1_SENTENCE, start=1):
            beam, _ = extend(model, beam, sym)
            assert set(beam.decider_histories()) == self.BOXES[k]

    def test_best_alignment_factorizes(self, toy_model_exact_beam):
        """The green-path weight is the product of its step factors."""
        model = toy_model_exact_beam
        song = model.class_fsts["@song"]
        artist = model.class_fsts["@artist"]
        d = model.decider_dist
        bg = 1 / 9  # uniform background over 8 symbols + EOS
        p1 = d(())[BACKGROUND] * bg
        p2 = d(("_play",))["@song"] * song.arc_prob(song.start, "_ro")
        p3 = song.arc_prob(song.walk(("_ro",)), "sie")
        p4 = d(("_play", "@song"))[BACKGROUND] * bg
        p5 = d(("_play", "@song", "_by"))["@artist"] * \
            artist.arc_prob(artist.start, "_browne")
        beam = advance(model, FIG1_SENTENCE)
        target = ("_play", "@song", "_by", "@artist")
        weight = [h.log_weight for h in beam.hypotheses
                  if h.decider_history == target]
        assert len(weight) == 1
        assert weight[0] == pytest.approx(math.log(p1 * p2 * p3 * p4 * p5), abs=1e-12)


class TestExactNextDist:
    def test_empty_history_formula(self, toy_model):
        dist = exact_next_dist(toy_model, ())
        decider = toy_model.decider_dist(())
        bg = 1 / 9
        song = toy_model.class_fsts["@song"]
        artist = toy_model.class_fsts["@artist"]
        want_ro = (decider[BACKGROUND] * bg
                   + decider["@song"] * song.arc_prob(song.start, "_ro")
                   + decider["@artist"] * artist.arc_prob(artist.start, "_ro"))
        assert dist["_ro"] == pytest.approx(want_ro, abs=1e-12)
        assert dist[EOS] == pytest.approx(decider[BACKGROUND] * bg, abs=1e-12)

    def test_sums_to_one(self, toy_model):
        for prefix_len in range(len(FIG1_SENTENCE) + 1):
            dist = exact_next_dist(toy_model, FIG1_SENTENCE[:prefix_len])
            assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_history_limit(self, toy_model):
        with pytest.raises(ValueError, match="exceeds"):
            exact_next_dist(toy_model, ("_play",) * 13)

    def test_adjacent_class_spans_are_reachable(self, toy_model):
        # @song span directly followed by an @artist span, no background gap
        histories = exact_alignment_histories(
            toy_model, ("_ro", "sie", "_ro", "berta", "_flack"))
        assert ("@song", "@artist") in histories


class TestSequenceLogprob:
    def test_single_symbol_base_case(self, toy_model):
        lp = sequence_logprob(toy_model, ("_play",), mode="exact")
        dist = exact_next_dist(toy_model, ())
        after = exact_next_dist(toy_model, ("_play",))
        assert lp == pytest.approx(math.log(dist["_play"]) + math.log(after[EOS]),
                                   abs=1e-9)

    def test_exact_mode_telescopes(self, toy_model):
        # joint-sum sequence probability equals the chained conditionals
        sentence = ("_play", "_ro", "salie")
        chained = 0.0
        for k, sym in enumerate(sentence):
            chained += math.log(exact_next_dist(toy_model, sentence[:k])[sym])
        chained += math.log(exact_next_dist(toy_model, sentence)[EOS])
        assert sequence_logprob(toy_model, sentence, mode="exact") == \
            pytest.approx(chained, abs=1e-9)

    def test_beam_equals_exact_on_toy(self, toy_model_exact_beam):
        for sentence in (FIG1_SENTENCE, ("_play",), ("_ro", "sie"),
                         ("_browne", "_by", "_play")):
            beam_lp = sequence_logprob(toy_model_exact_beam, sentence, mode="beam")
            exact_lp = sequence_logprob(toy_model_exact_beam, sentence, mode="exact")
            assert beam_lp == pytest.approx(exact_lp, abs=1e-9)

    def test_unknown_mode(self, toy_model):
        with pytest.raises(ValueError):
            sequence_logprob(toy_model, ("_play",), mode="nope")

    def test_memoization_bit_exact(self, toy_model):
        rng = random.Random(17)
        symbols = toy_model.vocabulary.symbols
        for _ in range(20):
            sentence = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 6)))
            incremental = []
            beam = start_beam(toy_model)
            dead = False
            try:
                for sym in sentence:
                    beam, lp = extend(toy_model, beam, sym)
                    incremental.append(lp)
            except DeadHistoryError:
                dead = True
            if dead:
                continue
            for k in range(1, len(sentence) + 1):
                fresh = start_beam(toy_model)
                for sym in sentence[:k]:
                    fresh, lp = extend(toy_model, fresh, sym)
                assert lp == incremental[k - 1]  # bit-for-bit


class TestNormalization:
    def test_beam_next_dist_sums_to_one(self, toy_model):
        for prefix_len in range(len(FIG1_SENTENCE) + 1):
            beam = advance(toy_model, FIG1_SENTENCE[:prefix_len])
            dist = next_dist(toy_model, beam)
            assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_unrenormalized_pruned_beam_loses_mass(self, toy_vocab, toy_classes,
                                                   song_fst, artist_fst):
        from conftest import make_toy_model
        model = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst,
                               beam_size=1, renormalize=False)
        beam = advance(model, ("_play", "_ro"))
        total = math.fsum(next_dist(model, beam).values())
        assert total <= 1.0 + 1e-12
        assert total < 1.0  # the singleton beam dropped real alignments


class TestNextDist:
    def test_matches_per_symbol_extend(self, toy_vocab, toy_classes, song_fst,
                                       artist_fst):
        """Entry s is exp of extend's step log-probability; 0 where extend dies."""
        import dataclasses
        from conftest import make_toy_model
        variants = ({}, {"beam_size": 2}, {"beam_size": 2, "renormalize": False})
        cases = []
        toy = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)
        histories = [FIG1_SENTENCE[:k] for k in range(len(FIG1_SENTENCE) + 1)]
        histories.append(("_ro", "sie", "_ro", "berta"))
        cases.append((toy, histories))
        rng = random.Random(1234)
        for _ in range(10):
            cases.append(random_instance(rng))
        checked = zeros = 0
        for base, histories in cases:
            for kwargs in variants:
                model = dataclasses.replace(base, **kwargs)
                for history in histories:
                    try:
                        beam = advance(model, history)
                    except DeadHistoryError:
                        continue  # a pruned beam can lose every alignment
                    dist = next_dist(model, beam)
                    assert list(dist) == list(model.vocabulary.symbols) + [EOS]
                    for sym in model.vocabulary.symbols:
                        try:
                            _, lp = extend(model, beam, sym)
                        except DeadHistoryError:
                            assert dist[sym] == 0.0, (history, sym)
                            zeros += 1
                            continue
                        assert dist[sym] == pytest.approx(math.exp(lp), rel=1e-12, abs=0)
                    assert dist[EOS] == pytest.approx(
                        math.exp(eos_logprob(model, beam)), rel=1e-12, abs=0)
                    checked += 1
        assert checked > 100 and zeros > 0


class TestOracleEquivalence:
    def test_random_instances_beam_equals_exact(self):
        rng = random.Random(1234)
        for _ in range(25):
            model, histories = random_instance(rng)
            for history in histories:
                try:
                    exact = exact_next_dist(model, history)
                except DeadHistoryError:
                    with pytest.raises(DeadHistoryError):
                        advance(model, history)
                    continue
                beam = advance(model, history)
                beamed = next_dist(model, beam)
                for sym, p in exact.items():
                    if p == 0.0:
                        assert beamed[sym] == 0.0
                    else:
                        assert abs(math.log(beamed[sym]) - math.log(p)) <= 1e-9, \
                            (history, sym)


class TestSample:
    def test_deterministic_under_seed(self, toy_model):
        a = sample(toy_model, max_length=20, seed=99)
        b = sample(toy_model, max_length=20, seed=99)
        assert a == b

    def test_recorded_fixed_seed_sample(self, toy_model):
        # frozen from the reference run: random_instance draws the oracle's
        # histories from sample, so its stream must not change unnoticed
        assert sample(toy_model, max_length=20, seed=1) == [
            "_flack", "_browne", "_ro", "sie", "_play", "_ro", "salie", "_ro", "sie",
            "_browne", "_browne", "_browne", "_by", "_ro", "_ro", "salie", "_browne",
            "_play", "_ro", "salie"]
        assert sample(toy_model, max_length=20, seed=5) == [
            "berta", "_ro", "berta", "_flack", "_ro", "berta", "_flack", "_ro", "salie"]
        assert [len(sample(toy_model, max_length=30, seed=s)) for s in range(40)] == [
            24, 30, 30, 30, 30, 9, 30, 30, 0, 30, 5, 30, 7, 30, 30, 19, 30, 8, 30, 30,
            30, 15, 1, 30, 1, 0, 30, 6, 7, 19, 25, 7, 1, 30, 20, 30, 0, 30, 30, 30]

    def test_only_vocabulary_symbols(self, toy_model):
        for seed in range(30):
            for sym in sample(toy_model, max_length=15, seed=seed):
                assert sym in toy_model.vocabulary

    def test_first_symbol_marginals_match_exact(self, toy_model):
        n = 30_000
        counts = Counter()
        for seed in range(n):
            drawn = sample(toy_model, max_length=5, seed=seed)
            counts[drawn[0] if drawn else EOS] += 1
        exact = exact_next_dist(toy_model, ())
        for sym, p in exact.items():
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[sym] / n - p) <= 3 * sigma + 1e-12, sym


class TestEos:
    def test_midclass_cannot_stop(self, toy_model):
        beam = advance(toy_model, ("_play", "_ro"))
        only_mid = [h for h in beam.hypotheses if h.position is not None
                    and toy_model.class_fsts[h.position[0]].exit_prob(h.position[1]) == 0]
        beam.hypotheses = only_mid
        assert eos_logprob(toy_model, beam) == -math.inf

    def test_matches_exact_eos_entry(self, toy_model):
        for k in range(len(FIG1_SENTENCE) + 1):
            prefix = FIG1_SENTENCE[:k]
            exact = exact_next_dist(toy_model, prefix)
            beam_eos = eos_logprob(toy_model, advance(toy_model, prefix))
            assert beam_eos == pytest.approx(math.log(exact[EOS]), abs=1e-9)
