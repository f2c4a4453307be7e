import dataclasses
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfclm import (BACKGROUND, EOS, EPSILON, AlignmentBeam,
                   AlignmentHypothesis, ConditionalSymbolModel, DeadHistoryError,
                   NfclmModel, UniformModel, advance, build_from_entities, class_prefix,
                   decider_history, eos_logprob, exact_alignment_histories,
                   exact_next_dist, exact_sequence_logprob, extend, last_class,
                   load_class_alphabet, load_vocabulary, next_dist, sample,
                   sequence_logprob, sequence_logprobs, start_beam, train_decider)
from nfclm import engine
from nfclm.engine import EXACT_HISTORY_LIMIT, MERGE_MODES, _routes, log_sum_exp

from conftest import (ARTIST_ENTITIES, SONG_ENTITIES, TOY_SYMBOLS,
                      assert_beam_matches_oracle, make_toy_model,
                      random_instance)

FIG1_SENTENCE = ("_play", "_ro", "sie", "_by", "_browne")


def hyp(decider_hist=(), position=None, weight=0.0):
    return AlignmentHypothesis(tuple(decider_hist), position, weight)


def routes(model, h, entries=None):
    """The kernel's routes out of one hypothesis: route -> (arcs, log weight).

    ``entries`` defaults to every class's entry route.
    """
    if entries is None:
        entries = model._entry_routes
    return {route: (arcs, lw) for _, route, arcs, lw in _routes(model, [h], entries)}


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


class TestSymbolRoutes:
    """The entry routes ``extend`` visits for a symbol are the ones that can emit it."""

    @staticmethod
    def live_hypotheses(model, histories):
        """Every hypothesis of the beams along each history's prefixes."""
        out = []
        for history in histories:
            beam = start_beam(model)
            out += beam.hypotheses
            for sym in history:
                try:
                    beam, _ = extend(model, beam, sym)
                except DeadHistoryError:
                    break
                out += beam.hypotheses
        return out

    def test_filtered_routes_equal_emitting_routes(self, toy_model_exact_beam):
        cases = [(toy_model_exact_beam,
                  [FIG1_SENTENCE, ("_ro", "sie", "_ro", "berta", "_flack")])]
        rng = random.Random(1234)
        cases += [random_instance(rng) for _ in range(6)]
        checked = dropped = 0
        for model, histories in cases:
            hyps = self.live_hypotheses(model, histories)
            every = [(h, route, id(arcs), arcs, lw.hex())
                     for h, route, arcs, lw in _routes(model, hyps, model._entry_routes)]
            for sym in model.vocabulary.symbols + (EOS,):
                got = [(h, route, id(arcs), arcs, lw.hex()) for h, route, arcs, lw
                       in _routes(model, hyps, model._symbol_routes[sym])]
                want = [r for r in every
                        if r[1] == EPSILON or r[3] is None or sym in r[3]]
                assert got == want, sym
                checked += 1
                dropped += len(every) - len(want)
        assert checked > 50 and dropped > 0

    def test_class_without_start_arc_has_no_entry_route(self, toy_model):
        background = hyp(("_play",))
        # no class starts with _by, only @artist with _browne, both with _ro
        assert list(routes(toy_model, background, toy_model._symbol_routes["_by"])) == \
            [BACKGROUND]
        assert list(routes(toy_model, background, toy_model._symbol_routes["_browne"])) == \
            [BACKGROUND, "@artist"]
        assert list(routes(toy_model, background, toy_model._symbol_routes["_ro"])) == \
            list(toy_model.classes.labels)
        assert list(routes(toy_model, background, toy_model._symbol_routes[EOS])) == \
            [BACKGROUND]
        for sym, entries in toy_model._symbol_routes.items():
            for label, arcs in entries:
                if label != BACKGROUND:
                    fst = toy_model.class_fsts[label]
                    assert fst.arc_prob(fst.start, sym) > 0.0
                    assert arcs is fst.arcs[fst.start]


class TestExtend:
    def test_first_step_matches_fig1_factor(self, toy_model):
        beam, lp = extend(toy_model, start_beam(toy_model), "_play")
        decider = toy_model.decider_dist(())
        want = decider[BACKGROUND] * (1 / 9)
        assert lp == pytest.approx(math.log(want), abs=1e-12)
        assert beam.decider_histories() == [("_play",)]

    def test_second_step_opens_three_alignments(self, toy_model_full):
        beam = advance(toy_model_full, ("_play", "_ro"))
        assert sorted(beam.decider_histories()) == [
            ("_play", "@artist"), ("_play", "@song"), ("_play", "_ro")]

    def test_third_step_kills_artist(self, toy_model_full):
        beam = advance(toy_model_full, ("_play", "_ro", "sie"))
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
        with pytest.raises(KeyError, match="outside the vocabulary"):
            extend(toy_model, start_beam(toy_model), "zzz")
        for oracle in (exact_next_dist, exact_sequence_logprob):
            with pytest.raises(KeyError, match="outside the vocabulary"):
                oracle(toy_model, ("_play", "zzz"))

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

    def test_beam_matches_exact_sets(self, toy_model_exact_beam_full):
        model = toy_model_exact_beam_full
        beam = start_beam(model)
        for k, sym in enumerate(FIG1_SENTENCE, start=1):
            beam, _ = extend(model, beam, sym)
            assert set(beam.decider_histories()) == self.BOXES[k]

    def test_best_alignment_factorizes(self, toy_model_exact_beam_full):
        """The green-path weight is the product of its step factors."""
        model = toy_model_exact_beam_full
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
        for oracle in (exact_next_dist, exact_sequence_logprob):
            with pytest.raises(ValueError, match="exceeds"):
                oracle(toy_model, ("_play",) * 13)

    def test_adjacent_class_spans_are_reachable(self, toy_model):
        # @song span directly followed by an @artist span, no background gap
        histories = exact_alignment_histories(
            toy_model, ("_ro", "sie", "_ro", "berta", "_flack"))
        assert ("@song", "@artist") in histories


class TestSequenceLogprob:
    def test_single_symbol_base_case(self, toy_model):
        lp = exact_sequence_logprob(toy_model, ("_play",))
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
        assert exact_sequence_logprob(toy_model, sentence) == \
            pytest.approx(chained, abs=1e-9)

    def test_beam_equals_exact_on_toy(self, toy_model_exact_beam):
        for sentence in (FIG1_SENTENCE, ("_play",), ("_ro", "sie"),
                         ("_browne", "_by", "_play")):
            beam_lp = sequence_logprob(toy_model_exact_beam, sentence)
            exact_lp = exact_sequence_logprob(toy_model_exact_beam, sentence)
            assert beam_lp == pytest.approx(exact_lp, abs=1e-9)

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


def score_alone(model, tokens):
    """One list scored from the start beam, as a per-hypothesis loop does."""
    beam = start_beam(model)
    total = 0.0
    try:
        for sym in tokens:
            beam, lp = extend(model, beam, sym)
            total += lp
    except DeadHistoryError:
        return -math.inf
    return total + eos_logprob(model, beam)


def alive(model, tokens):
    try:
        advance(model, tokens)
    except DeadHistoryError:
        return False
    return True


def shared_prefix_lists(model, histories, rng):
    """Lists with shared prefixes, duplicates, the empty list and dead prefixes."""
    symbols = model.vocabulary.symbols
    lists = [()]
    for history in histories:
        lists.append(history)
        lists.append(history[:len(history) // 2])
        for _ in range(3):
            cut = rng.randint(0, len(history))
            lists.append(history[:cut] + tuple(
                rng.choice(symbols) for _ in range(rng.randint(1, 3))))
    lists.append(tuple(rng.choice(symbols) for _ in range(5)))
    lists += [rng.choice(lists) for _ in range(3)]  # duplicates
    lists += [tokens + (rng.choice(symbols),) for tokens in lists
              if not alive(model, tokens)]  # lists extending a dead prefix
    rng.shuffle(lists)
    return lists


class TestSequenceLogprobs:
    """The shared-prefix walk returns each list's own score, bit for bit."""

    VARIANTS = ({}, {"beam_size": 2}, {"beam_delta": 0.5})

    def cases(self, toy_vocab, toy_classes, song_fst, artist_fst):
        toy = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)
        histories = [FIG1_SENTENCE, ("_ro", "sie", "_ro", "berta"), ("_browne",)]
        yield toy, histories
        rng = random.Random(1234)
        for _ in range(12):
            yield random_instance(rng)

    def test_equals_per_list_scores(self, toy_vocab, toy_classes, song_fst,
                                    artist_fst):
        import dataclasses
        rng = random.Random(5)
        dead = extended_dead = 0
        for base, histories in self.cases(toy_vocab, toy_classes, song_fst, artist_fst):
            for kwargs in self.VARIANTS:
                model = dataclasses.replace(base, **kwargs)
                lists = shared_prefix_lists(model, histories, rng)
                walked = sequence_logprobs(model, lists)
                assert [x.hex() for x in walked] == \
                    [score_alone(model, t).hex() for t in lists]
                assert [x.hex() for x in walked] == \
                    [sequence_logprob(model, t).hex() for t in lists]
                dead += walked.count(-math.inf)
                extended_dead += sum(not alive(model, t[:-1]) for t in lists if t)
        assert dead > 0 and extended_dead > 0

    def test_each_live_prefix_extended_once(self, toy_vocab, toy_classes,
                                            song_fst, artist_fst, monkeypatch):
        import dataclasses
        rng = random.Random(9)
        calls = Counter()
        real_extend = engine.extend

        def counted(model, beam, symbol):
            calls[beam.history + (symbol,)] += 1
            return real_extend(model, beam, symbol)

        for base, histories in self.cases(toy_vocab, toy_classes, song_fst, artist_fst):
            for kwargs in self.VARIANTS:
                model = dataclasses.replace(base, **kwargs)
                lists = shared_prefix_lists(model, histories, rng)
                # prefixes whose own prefix is alive; none below a dead one
                expected = {t[:k] for t in lists for k in range(1, len(t) + 1)
                            if alive(model, t[:k - 1])}
                calls.clear()
                monkeypatch.setattr(engine, "extend", counted)
                sequence_logprobs(model, lists)
                monkeypatch.setattr(engine, "extend", real_extend)
                assert set(calls) == expected
                assert set(calls.values()) <= {1}

    def test_edge_lists(self, toy_model):
        a = ("_play", "_ro", "sie")
        lists = [a, (), a[:1], a, (), a + ("_by",)]
        walked = sequence_logprobs(toy_model, lists)
        assert [x.hex() for x in walked] == [score_alone(toy_model, t).hex() for t in lists]
        assert sequence_logprobs(toy_model, []) == []

    @settings(max_examples=60, deadline=None)
    @given(lists=st.lists(st.lists(st.sampled_from(TOY_SYMBOLS), max_size=6)
                          .map(tuple), max_size=8),
           variant=st.sampled_from(VARIANTS))
    def test_toy_lists(self, toy_vocab, toy_classes, song_fst, artist_fst,
                       lists, variant):
        model = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst, **variant)
        walked = sequence_logprobs(model, lists)
        assert [x.hex() for x in walked] == [score_alone(model, t).hex() for t in lists]

    def test_outside_vocabulary_raises(self, toy_model):
        with pytest.raises(KeyError):
            sequence_logprobs(toy_model, [("_play",), ("_play", "nope")])


class TestLogSumExp:
    def test_one_value_has_the_general_bits(self):
        def general(values):
            best = max(values)
            if best == -math.inf:
                return -math.inf
            return best + math.log(math.fsum(math.exp(v - best) for v in values))

        for v in (-math.inf, -0.0, 0.0, -1e-300, -0.1, -2.5, -745.0, 3.0):
            assert log_sum_exp([v]).hex() == general([v]).hex()
            assert math.copysign(1.0, log_sum_exp([v])) == math.copysign(1.0, general([v]))
        assert math.isnan(log_sum_exp([math.nan]))


class TestNormalization:
    def test_beam_next_dist_sums_to_one(self, toy_model):
        for prefix_len in range(len(FIG1_SENTENCE) + 1):
            beam = advance(toy_model, FIG1_SENTENCE[:prefix_len])
            dist = next_dist(toy_model, beam)
            assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-9)


class ReorderedBackground(ConditionalSymbolModel):
    """A background model whose alphabet and distributions run in reverse order."""

    def __init__(self, inner: ConditionalSymbolModel):
        self.inner = inner

    @property
    def alphabet(self):
        return tuple(reversed(self.inner.alphabet))

    @property
    def context_size(self):
        return self.inner.context_size

    def distribution(self, history):
        dist = self.inner.distribution(history)
        return {sym: dist[sym] for sym in reversed(list(dist))}

    def logprob(self, symbol, history):
        return self.inner.logprob(symbol, history)


def log_domain_next_dist(model, beam):
    """Reference sweep: per-symbol log-domain terms, each summed by log-sum-exp."""
    terms: dict[str, list[float]] = {}
    background: list[float] = []
    for _, _, arcs, lw in _routes(model, beam.hypotheses, model._entry_routes):
        if arcs is None:
            background.append(lw)
            continue
        for sym, (arc, _) in arcs.items():
            terms.setdefault(sym, []).append(lw + math.log(arc))
    if background:
        share = log_sum_exp(background)
        context = engine._context(beam.history, model.background.context_size)
        for sym, p in model.background.distribution(context).items():
            terms.setdefault(sym, []).append(share + math.log(p))
    return {sym: math.exp(log_sum_exp(terms[sym]) - beam.log_norm) if sym in terms else 0.0
            for sym in model.vocabulary.symbols + (EOS,)}


class TestNextDist:
    def test_matches_per_symbol_extend(self, toy_vocab, toy_classes, song_fst,
                                       artist_fst):
        """Entry s is exp of extend's step log-probability; 0 where extend dies."""
        variants = ({}, {"beam_size": 2}, {"beam_delta": 0.5},
                    {"beam_size": 10 ** 6, "beam_delta": math.inf}, {"merge": "full"})
        cases = []
        toy = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)
        histories = [FIG1_SENTENCE[:k] for k in range(len(FIG1_SENTENCE) + 1)]
        histories.append(("_ro", "sie", "_ro", "berta"))
        cases.append((toy, histories))
        rng = random.Random(1234)
        for _ in range(10):
            cases.append(random_instance(rng))
        # keys follow the vocabulary, not the background's own order
        model, histories = cases[1]
        cases.append((dataclasses.replace(
            model, background=ReorderedBackground(model.background)), histories))
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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_linear_sweep_matches_log_domain_reference(self, seed):
        """Within 1e-12 relative of the log-domain sweep, and sums to 1."""
        model, histories = random_instance(random.Random(seed))
        for variant in (model, dataclasses.replace(model, beam_size=3)):
            for history in histories:
                try:
                    beam = advance(variant, history)
                except DeadHistoryError:
                    continue
                dist = next_dist(variant, beam)
                want = log_domain_next_dist(variant, beam)
                assert list(dist) == list(want)
                for sym, p in want.items():
                    if p == 0.0:
                        assert dist[sym] == 0.0, (history, sym)
                    else:
                        assert abs(dist[sym] - p) <= 1e-12 * p, (history, sym)
                assert abs(math.fsum(dist.values()) - 1.0) <= 1e-12


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

    @pytest.mark.parametrize("merge", MERGE_MODES)
    def test_each_merge_mode_equals_exact(self, merge):
        rng = random.Random(4321)
        for _ in range(25):
            model, histories = random_instance(rng)
            model = dataclasses.replace(model, merge=merge)
            for history in histories:
                assert_beam_matches_oracle(model, history)


class TestBeamSettings:
    @pytest.mark.parametrize("setting", [
        {"beam_size": 0}, {"beam_size": -3}, {"beam_size": 2.0}, {"beam_size": "100"},
        {"beam_size": True}, {"beam_delta": -1.0}, {"beam_delta": float("nan")},
        {"beam_delta": "30"}, {"beam_delta": None}])
    def test_invalid_rejected(self, toy_vocab, toy_classes, song_fst, artist_fst,
                              setting):
        name = next(iter(setting))
        with pytest.raises(ValueError, match=name):
            make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst, **setting)

    @pytest.mark.parametrize("setting", [{"beam_delta": 0.0}, {"beam_delta": 0}])
    def test_edge_values_accepted(self, toy_vocab, toy_classes, song_fst, artist_fst,
                                  setting):
        model = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst, **setting)
        assert sequence_logprob(model, FIG1_SENTENCE) < 0.0


class TestMergeModes:
    def test_unknown_merge_rejected(self, toy_vocab, toy_classes, song_fst, artist_fst):
        with pytest.raises(ValueError, match="merge"):
            make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst, merge="prefix")

    def test_context_keeps_decider_context(self, toy_model):
        size = toy_model.decider.context_size
        beam = advance(toy_model, FIG1_SENTENCE)
        assert all(len(h.decider_history) <= size for h in beam.hypotheses)

    def test_context_equals_full_past_oracle_limit(self):
        """Unpruned, context merging gives full merging's values to 1e-12.

        The histories run past ``EXACT_HISTORY_LIMIT``, where the oracle
        cannot check either mode.  A history whose full-mode beam fills
        N at some step is pruned there, so it is no reference and is
        left out; the count of compared histories is asserted.
        """
        rng = random.Random(2027)
        compared = 0
        for _ in range(24):
            model, histories = random_instance(rng, max_history=30)
            full = dataclasses.replace(model, merge="full")
            for history in histories:
                if len(history) <= EXACT_HISTORY_LIMIT:
                    continue
                beam_full = start_beam(full)
                for sym in history:
                    beam_full, _ = extend(full, beam_full, sym)
                    if len(beam_full.hypotheses) == full.beam_size:
                        break
                else:
                    compared += 1
                    beam_context = advance(model, history)
                    assert sequence_logprob(model, history) == pytest.approx(
                        sequence_logprob(full, history), rel=1e-12, abs=0)
                    assert eos_logprob(model, beam_context) == pytest.approx(
                        eos_logprob(full, beam_full), rel=1e-12, abs=0)
                    want = next_dist(full, beam_full)
                    got = next_dist(model, beam_context)
                    for sym, p in want.items():
                        assert got[sym] == pytest.approx(p, rel=1e-12, abs=0), \
                            (history, sym)
        assert compared >= 20


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


# -- recorded bits of extend and eos_logprob --------------------------------

BITS_FILE = Path(__file__).parent / "data" / "extend_bits.json"
CONTEXT_BITS_FILE = Path(__file__).parent / "data" / "extend_bits_context.json"
BITS_SETTINGS = [(n, delta) for n in (2, 3) for delta in (0.5, 1.0)]


def bits_cases():
    """(name, model, histories): the toy model, a model whose classes tie
    exactly, and three random instances."""
    vocab = load_vocabulary(TOY_SYMBOLS)
    classes = load_class_alphabet(["@bg", "@song", "@artist"])
    toy = make_toy_model(vocab, classes, build_from_entities("@song", SONG_ENTITIES),
                         build_from_entities("@artist", ARTIST_ENTITIES))
    yield "toy", toy, [FIG1_SENTENCE, ("_ro", "sie", "_ro", "berta", "_flack"),
                       ("_browne", "_ro", "salie")]
    # equal automata and equal decider shares give successors of equal weight,
    # so the tie order decides the beam order and which one the N cut keeps
    twins = [("_ro", "sie"), ("_ro",)]
    decider = train_decider([("_play", "@song"), ("_play", "@artist"),
                             ("@song", "_by", "@artist"), ("@artist", "_by", "@song")],
                            vocab, classes, order=2)
    tied = NfclmModel(vocabulary=vocab, classes=classes,
                      background=UniformModel(vocab.symbols + (EOS,)),
                      class_fsts={"@song": build_from_entities("@song", twins),
                                  "@artist": build_from_entities("@artist", twins)},
                      decider=decider)
    yield "twins", tied, [("_play", "_ro", "sie", "_by", "_ro"), ("_ro", "_ro", "sie", "_ro")]
    rng = random.Random(1234)
    for i in range(3):
        model, histories = random_instance(rng)
        yield f"random{i}", model, [h for h in histories if h]


def bits_transcript(model, history):
    """Per step: hex of the step log-prob, log_norm and EOS log-prob, then
    each kept hypothesis as (decider history, position, hex weight);
    ``"dead"`` where the history dies."""
    beam = start_beam(model)
    steps = []
    for sym in history:
        try:
            beam, lp = extend(model, beam, sym)
        except DeadHistoryError:
            steps.append("dead")
            break
        steps.append([lp.hex(), beam.log_norm.hex(), eos_logprob(model, beam).hex(),
                      [[" ".join(h.decider_history),
                        "-" if h.position is None else f"{h.position[0]}:{h.position[1]}",
                        h.log_weight.hex()] for h in beam.hypotheses]])
    return steps


def record_bits(merge="full"):
    """Transcripts of every bits case under every beam setting.

    ``extend_bits.json`` holds this for ``merge="full"``, one case per
    line, as computed by the engine that split exit mass over every class
    for every symbol; ``extend_bits_context.json`` holds it for
    ``merge="context"``, as computed by the first engine that merged on
    the decider's context.
    """
    out = {}
    for name, base, histories in bits_cases():
        for n, delta in BITS_SETTINGS:
            model = dataclasses.replace(base, beam_size=n, beam_delta=delta, merge=merge)
            out[f"{name} N={n} delta={delta}"] = \
                [bits_transcript(model, h) for h in histories]
    return out


class TestRecordedBits:
    """``extend`` and ``eos_logprob`` reproduce recorded ``float.hex`` values.

    The narrow beams make both the N cut and the δ cut fire, and the twin
    classes make weights tie.
    """

    def test_transcripts(self):
        recorded = json.loads(BITS_FILE.read_text(encoding="utf-8"))
        got = record_bits()
        assert list(got) == list(recorded)
        for key, steps in recorded.items():
            assert got[key] == steps, key


class TestRecordedContextBits:
    """The recorded transcripts of the default, context-merging beam."""

    def test_transcripts(self):
        recorded = json.loads(CONTEXT_BITS_FILE.read_text(encoding="utf-8"))
        got = record_bits(merge="context")
        assert list(got) == list(recorded)
        for key, steps in recorded.items():
            assert got[key] == steps, key
