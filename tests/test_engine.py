import copy
import dataclasses
import json
import math
import random
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfclm import (BACKGROUND, BOS, EOS, AlignmentBeam,
                   AlignmentHypothesis, BackoffNGram, ConditionalSymbolModel,
                   DeadHistoryError, DeciderModel, NfclmModel, advance,
                   build_from_entities, eos_logprob, extend,
                   load_class_alphabet, load_vocabulary, next_dist, perplexity, sample,
                   sequence_logprob, sequence_logprobs, start_beam, train_decider,
                   train_ngram)
from nfclm import engine
from nfclm.engine import (DEFAULT_BEAM_DELTA, DEFAULT_BEAM_SIZE, EXACT_BEAM_SIZE,
                          _mixture, _stored_suffix, log_sum_exp)
from nfclm.seqmodel import NGramLevel, widened

from conftest import (ARTIST_ENTITIES, FULL_LENGTH, READINGS, SONG_ENTITIES, TOY_SYMBOLS,
                      assert_beam_matches_oracle, context, count_tables, decider_row,
                      entity_pairs, fst_from_dicts, full, histories, hypothesis_key, make_toy_model,
                      ngram_from_tables, positions, random_instance, state_arcs,
                      uniform_background)
from model_memory import cache_report, corpora, mid_size_model
from oracle import (EPSILON, EXACT_HISTORY_LIMIT, arc_prob, class_prefix, decider_history,
                    exact_alignment_histories, exact_next_dist, exact_sequence_logprob,
                    last_class, padded, walk)

FIG1_SENTENCE = ("_play", "_ro", "sie", "_by", "_browne")


def hyp(model, decider_hist=(), position=None, weight=0.0):
    return AlignmentHypothesis(hypothesis_key(model, decider_hist, position), weight)


def stays_of(model, symbol):
    """What ``extend`` passes the kernel for ``symbol``: per class rank, the
    automaton's id of it; EOS has none."""
    emits = model._emits.get(symbol)
    return model._no_stays if emits is None else emits[2]


def entries_of(model, symbol):
    """The entry routes ``extend`` visits for ``symbol``, as (label, log
    probability, destination state)."""
    emits = model._emits.get(symbol)
    pos_mask = (1 << model._pos_bits) - 1
    out = []
    for c, log_p, bits in (() if emits is None else emits[3]):
        label, dest = model.decode(bits & pos_mask)[1]
        assert label == model.classes.labels[c]
        out.append((label, log_p, dest))
    return out


def routes(model, h):
    """The kernel's routes out of one hypothesis: route -> (arcs, log weight).

    A stay route's arcs are its state's run of the automaton's columns, an
    entry route's those of its class's start state, and the background
    route's None: its symbol comes from the background model.
    """
    stay, base, row, _ = _mixture(model, *h)
    out = {}
    if stay is not None:
        rank, lo, hi = stay
        fst = model._fsts[rank]
        out[EPSILON] = ({fst.symbols[fst.arc_ids[i]]: (fst.probs[i], fst.dests[i])
                         for i in range(lo, hi)}, h.log_weight)
    if base is not None:
        for c, log_share in zip(model.decider.alphabet, row):
            fst = model.class_fsts.get(c)
            out[c] = (None if fst is None else state_arcs(fst, fst.start)), base + log_share
    return out


def emitting_routes(model, h, symbol):
    """The routes out of one hypothesis that can emit ``symbol``, as
    ``extend`` reads them: route -> (destination, log weight).  The
    background route's weight leaves out the background log-probability."""
    stay, base, row, _ = _mixture(model, *h, stays_of(model, symbol))
    place = tuple(model.decider.alphabet).index  # a class's place in a decider row
    out = {}
    if stay is not None:
        prob, key = stay
        out[EPSILON] = model.decode(key)[1][1], h.log_weight + math.log(prob)
    if base is not None:
        out[BACKGROUND] = None, base + row[place(BACKGROUND)]
        for c, log_p, dest in entries_of(model, symbol):
            out[c] = dest, base + row[place(c)] + log_p
    return out


def route_masses(model, h):
    """Probability of taking each route: the stay route's is that of its arcs."""
    return {route: math.fsum(p for p, _ in arcs.values()) if route == EPSILON
            else math.exp(lw)
            for route, (arcs, lw) in routes(model, h).items()}


def single_beam(model, h, history):
    """A beam holding only ``h``, normalized to it."""
    return AlignmentBeam(context=model.context(history, model.background.context_size),
                         length=len(history), hypotheses=[h], log_norm=h.log_weight,
                         size_limit=model.beam_size, delta=model.beam_delta)


def context_tokens(model, context, size):
    """The ``size`` tokens of a packed padded context, oldest first."""
    tokens = model._key_tokens(context)
    assert len(tokens) == size, (tokens, size)
    return tokens


def bg_tokens(model, beam):
    """The background context a beam holds, as tokens."""
    return context_tokens(model, beam.context, model.background.context_size)


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
        inside = hyp(toy_model, ("_play", "@song"), ("@song", walk(fst, ("_ro",))))
        (stay_arcs, _), = routes(toy_model, inside).values()
        assert stay_arcs["sie"][0] == 0.5
        beam = single_beam(toy_model, inside, ("_play", "_ro"))
        assert next_dist(toy_model, beam)["sie"] == 0.5

    def test_fresh_entry_uses_start_arc(self, toy_model):
        background = hyp(toy_model, ("_play",), None)
        arcs, _ = routes(toy_model, background)["@song"]
        assert arcs["_ro"][0] == 1.0

    def test_no_open_span_is_zero(self, toy_model):
        assert EPSILON not in routes(toy_model, hyp(toy_model))

    def test_background_uses_symbol_model(self, toy_model):
        arcs, _ = routes(toy_model, hyp(toy_model, ("_play",)))[BACKGROUND]
        assert arcs is None  # the symbol comes from the background model
        beam = single_beam(toy_model, hyp(toy_model, ("_play",)), ("_play",))
        # no class starts with _by: only the background can emit it
        want = decider_row(toy_model, ("_play",))[BACKGROUND] / 9  # uniform over 8 + EOS
        assert next_dist(toy_model, beam)["_by"] == pytest.approx(want, rel=1e-12)

    def test_continuation_normalizes_by_stay_mass(self, toy_vocab, toy_classes):
        # exit 0.5 at the fork: staying renormalizes the single arc to 1
        from conftest import make_toy_model
        from nfclm import build_from_entities
        song = build_from_entities("@song", entity_pairs([("_ro",), ("_ro", "sie")]))
        artist = build_from_entities("@artist", entity_pairs([("_browne",)]))
        model = make_toy_model(toy_vocab, toy_classes, song, artist)
        fst = model.class_fsts["@song"]
        inside = hyp(model, ("@song",), ("@song", walk(fst, ("_ro",))))
        stay_arcs, lw = routes(model, inside)[EPSILON]
        assert lw == 0.0
        assert route_masses(model, inside)[EPSILON] == pytest.approx(0.5)
        assert stay_arcs["sie"][0] / route_masses(model, inside)[EPSILON] == \
            pytest.approx(1.0)


class TestClassEmissionDist:
    """How the kernel splits a hypothesis's mass among its routes."""

    def test_background_position(self, toy_model):
        masses = route_masses(toy_model, hyp(toy_model, ("_play",), None))
        assert list(masses) == list(toy_model.classes.labels)  # no stay route
        decider = decider_row(toy_model, ("_play",))
        for c in toy_model.classes.labels:
            assert masses[c] == pytest.approx(decider[c], rel=1e-12)

    def test_nonfinal_state_forces_continuation(self, toy_model):
        fst = toy_model.class_fsts["@song"]
        masses = route_masses(
            toy_model, hyp(toy_model, ("_play", "@song"), ("@song", walk(fst, ("_ro",)))))
        assert masses == {EPSILON: 1.0}

    def test_final_state_releases_full_mass(self, toy_model):
        fst = toy_model.class_fsts["@song"]
        leaf = walk(fst, ("_ro", "sie"))
        masses = route_masses(toy_model, hyp(toy_model, ("_play", "@song"), ("@song", leaf)))
        assert masses[EPSILON] == 0.0
        decider = decider_row(toy_model, ("_play", "@song"))
        for c in toy_model.classes.labels:
            assert masses[c] == pytest.approx(decider[c])

    def test_sums_to_one_when_classes_reachable(self, toy_model):
        for h in (hyp(toy_model), hyp(toy_model, ("_play",), None)):
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
        """The stay arc read for a symbol and the symbol's entry arcs give
        the routes of the full fan-out whose arcs hold the symbol, with
        their bits."""
        cases = [(toy_model_exact_beam,
                  [FIG1_SENTENCE, ("_ro", "sie", "_ro", "berta", "_flack")])]
        rng = random.Random(1234)
        cases += [random_instance(rng) for _ in range(6)]
        checked = dropped = 0
        for model, histories in cases:
            for h in self.live_hypotheses(model, histories):
                every = routes(model, h)
                for sym in model.vocabulary.symbols + (EOS,):
                    want = {}
                    for route, (arcs, lw) in every.items():
                        if arcs is None:
                            want[route] = None, lw.hex()
                        elif sym in arcs:
                            prob, dest = arcs[sym]
                            want[route] = dest, (lw + math.log(prob)).hex()
                    got = {route: (dest, lw.hex())
                           for route, (dest, lw) in emitting_routes(model, h, sym).items()}
                    assert got == want, (h, sym)
                    checked += 1
                    dropped += len(every) - len(want)
        assert checked > 50 and dropped > 0

    def test_class_without_start_arc_has_no_entry_route(self, toy_model):
        background = hyp(toy_model, ("_play",))
        # no class starts with _by, only @artist with _browne, both with _ro
        assert list(emitting_routes(toy_model, background, "_by")) == [BACKGROUND]
        assert list(emitting_routes(toy_model, background, "_browne")) == \
            [BACKGROUND, "@artist"]
        assert list(emitting_routes(toy_model, background, "_ro")) == \
            list(toy_model.classes.labels)
        assert list(emitting_routes(toy_model, background, EOS)) == [BACKGROUND]
        for sym in toy_model._emits:
            for label, _, _ in entries_of(toy_model, sym):
                fst = toy_model.class_fsts[label]
                assert arc_prob(fst, fst.start, sym) > 0.0


class TestColumnReads:
    """The kernel reads arcs from an automaton's columns; they match the
    public per-state arc dict for every state and symbol."""

    @staticmethod
    def models(toy_model):
        rng = random.Random(4321)
        return [toy_model] + [random_instance(rng)[0] for _ in range(20)]

    def test_stay_arc_matches_arc_view(self, toy_model):
        outside = leaves = 0
        for model in self.models(toy_model):
            symbols = model.vocabulary.symbols + (EOS,)
            for label, fst in model.class_fsts.items():
                for state in range(fst.num_states):
                    arcs = state_arcs(fst, state)
                    leaves += not arcs
                    for sym in symbols:
                        h = hyp(model, (label,), (label, state))
                        stay, _, _, _ = _mixture(model, *h, stays_of(model, sym))
                        want = arcs.get(sym)
                        if want is None:
                            assert stay is None, (label, state, sym)
                        else:
                            prob, key = stay
                            assert model.decode(key) == model.decode(
                                hyp(model, (label,), (label, want[1])).key)
                            assert prob.hex() == want[0].hex()
                        outside += sym not in fst.ids
        assert outside > 0 and leaves > 0

    def test_entry_arcs_are_logs_of_start_arcs(self, toy_model):
        for model in self.models(toy_model):
            for sym in model.vocabulary.symbols + (EOS,):
                want = []
                for label in model.classes.nonbackground:
                    fst = model.class_fsts[label]
                    arc = state_arcs(fst, fst.start).get(sym)
                    if arc is not None:
                        want.append((label, math.log(arc[0]).hex(), arc[1]))
                got = [(label, log_p.hex(), dest)
                       for label, log_p, dest in entries_of(model, sym)]
                assert got == want, sym


class TestExtend:
    def test_first_step_matches_fig1_factor(self, toy_model):
        beam, lp = extend(toy_model, start_beam(toy_model), "_play")
        decider = decider_row(toy_model, ())
        want = decider[BACKGROUND] * (1 / 9)
        assert lp == pytest.approx(math.log(want), abs=1e-12)
        assert histories(toy_model, beam) == [("_play",)]

    def test_second_step_opens_three_alignments(self, toy_model_full):
        beam = advance(toy_model_full, ("_play", "_ro"))
        assert sorted(histories(toy_model_full, beam)) == [
            ("_play", "@artist"), ("_play", "@song"), ("_play", "_ro")]

    def test_third_step_kills_artist(self, toy_model_full):
        beam = advance(toy_model_full, ("_play", "_ro", "sie"))
        assert sorted(histories(toy_model_full, beam)) == [
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
                hyp(model, ("@artist",), ("@artist", walk(fst, ("_ro",))))]
            extend(model, only_artist, "_by")

    def test_unknown_symbol_rejected(self, toy_model):
        with pytest.raises(KeyError, match="outside the vocabulary"):
            extend(toy_model, start_beam(toy_model), "zzz")
        for scorer in (exact_next_dist, exact_sequence_logprob,
                       engine.exact_sequence_logprob):
            with pytest.raises(KeyError, match="outside the vocabulary"):
                scorer(toy_model, ("_play", "zzz"))

    def test_merging_collapses_equal_keys(self, toy_vocab, toy_classes):
        # entities (x) and (x,x): two alignments of x,x,x,x share
        # (decider history, position) and must merge
        from conftest import make_toy_model
        from nfclm import build_from_entities
        song = build_from_entities("@song", entity_pairs([("sie",), ("sie", "sie")]))
        artist = build_from_entities("@artist", entity_pairs([("_browne",)]))
        model = make_toy_model(toy_vocab, toy_classes, song, artist,
                               beam_size=EXACT_BEAM_SIZE, beam_delta=float("inf"))
        beam = advance(model, ("sie",) * 4)
        keys = [model.decode(h.key) for h in beam.hypotheses]
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


class TestTwoArcsIntoOneState:
    """An automaton with two arcs into one state: from state 1, the stay
    arc for ``sie`` and a re-entry of the class by its start arc for
    ``sie`` both reach state 2, with the same decider context, so even a
    lone hypothesis's step merges two routes into one key."""

    @staticmethod
    def model(toy_vocab, toy_classes, artist_fst, **kwargs):
        song = fst_from_dicts("@song", [{"_ro": (.5, 1), "sie": (.5, 2)}, {"sie": (.5, 2)}, {}],
                              [0.0, .5, 1.0])
        song.validate()
        return make_toy_model(toy_vocab, toy_classes, song, artist_fst, **kwargs)

    def test_lone_hypothesis_merges_stay_and_reentry(self, toy_vocab, toy_classes,
                                                     artist_fst):
        model = self.model(toy_vocab, toy_classes, artist_fst)
        h = hyp(model, ("@song",), ("@song", 1), -1.25)
        beam, lp = extend(model, single_beam(model, h, ("_play", "_ro")), "sie")
        assert sorted(map(model.decode, (x.key for x in beam.hypotheses))) == [
            (("@song",), ("@song", 2)), (("sie",), None)]
        song, = [x for x in beam.hypotheses if model.decode(x.key)[1] is not None]
        # the stay arc, and the exit, the decider's share of @song and the start arc
        shares = decider_row(model, ("@song",))
        mass = .5 + .5 * shares["@song"] * .5
        assert song.log_weight == pytest.approx(h.log_weight + math.log(mass), abs=1e-12)
        # the uniform background gives sie 1/9
        assert lp == pytest.approx(math.log(mass + .5 * shares[BACKGROUND] / 9), abs=1e-12)

    @pytest.mark.parametrize("reading", READINGS)
    def test_sentence_scores_match_oracle(self, toy_vocab, toy_classes, artist_fst, reading):
        sentences = [("_ro", "sie"), ("_play", "_ro", "sie", "sie"),
                     ("_ro", "sie", "_by", "_browne"), ("sie", "_ro", "sie", "_ro", "sie"),
                     ("_play", "_ro", "_ro", "sie", "sie", "_by", "_ro", "berta", "_flack")]
        model = reading(self.model(toy_vocab, toy_classes, artist_fst), sentences)
        for sentence in sentences:
            want = exact_sequence_logprob(model, sentence)
            assert -math.inf < want < 0.0
            for got in (sequence_logprob(model, sentence),
                        engine.exact_sequence_logprob(model, sentence)):
                assert got == pytest.approx(want, abs=1e-9), sentence


class TestBeamState:
    """A beam keeps the background's padded context and its length, not
    the token history."""

    def test_context_and_length(self, toy_model):
        rng = random.Random(11)
        cases = [(toy_model, [FIG1_SENTENCE, ("_ro", "sie", "_ro", "berta")])]
        cases += [random_instance(rng, max_history=12) for _ in range(10)]
        sizes = Counter()
        for base, histories in cases:
            size = base.background.context_size
            sizes[size] += 1
            for model in (base, dataclasses.replace(full(base, histories), beam_size=2)):
                for history in histories:
                    beam = start_beam(model)
                    for k, sym in enumerate(history, start=1):
                        try:
                            beam, _ = extend(model, beam, sym)
                        except DeadHistoryError:
                            break
                        assert beam.context == model.context(history[:k], size)
                        assert bg_tokens(model, beam) == padded(history[:k], size)
                        assert beam.length == k
        assert set(sizes) == {0, 1, 2}

    @pytest.mark.parametrize("history", [("_ro", "_by"), ("_play", "_ro", "sie", "_ro", "_by")])
    def test_dead_history_names_its_position(self, toy_vocab, toy_classes, song_fst,
                                             artist_fst, history):
        # a singleton beam keeps only the in-class reading of the last _ro,
        # which _by cannot continue
        model = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst, beam_size=1)
        with pytest.raises(DeadHistoryError) as exc:
            advance(model, history)
        position = len(history) - 1
        assert (exc.value.position, exc.value.symbol) == (position, "_by")
        assert str(exc.value) == f"no alignment can generate '_by' at position {position}"


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
            assert set(histories(model, beam)) == self.BOXES[k]

    def test_best_alignment_factorizes(self, toy_model_exact_beam_full):
        """The green-path weight is the product of its step factors."""
        model = toy_model_exact_beam_full
        song = model.class_fsts["@song"]
        artist = model.class_fsts["@artist"]
        def d(dh):
            return decider_row(model, dh)

        bg = 1 / 9  # uniform background over 8 symbols + EOS
        p1 = d(())[BACKGROUND] * bg
        p2 = d(("_play",))["@song"] * arc_prob(song, song.start, "_ro")
        p3 = arc_prob(song, walk(song, ("_ro",)), "sie")
        p4 = d(("_play", "@song"))[BACKGROUND] * bg
        p5 = d(("_play", "@song", "_by"))["@artist"] * \
            arc_prob(artist, artist.start, "_browne")
        beam = advance(model, FIG1_SENTENCE)
        target = ("_play", "@song", "_by", "@artist")
        weight = [h.log_weight for h in beam.hypotheses
                  if model.decode(h.key)[0] == target]
        assert len(weight) == 1
        assert weight[0] == pytest.approx(math.log(p1 * p2 * p3 * p4 * p5), abs=1e-12)


class TestExactNextDist:
    def test_empty_history_formula(self, toy_model):
        dist = exact_next_dist(toy_model, ())
        decider = decider_row(toy_model, ())
        bg = 1 / 9
        song = toy_model.class_fsts["@song"]
        artist = toy_model.class_fsts["@artist"]
        want_ro = (decider[BACKGROUND] * bg
                   + decider["@song"] * arc_prob(song, song.start, "_ro")
                   + decider["@artist"] * arc_prob(artist, artist.start, "_ro"))
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

    def test_library_exact_is_unpruned_at_any_length(self, toy_model):
        """``engine.exact_sequence_logprob`` ignores the model's beam: on a
        one-hypothesis beam it still equals the oracle, and it takes
        sentences past the oracle's limit."""
        narrow = dataclasses.replace(toy_model, beam_size=1, beam_delta=0.0)
        for sentence in (FIG1_SENTENCE, ("_play", "_ro", "sie"), ("_browne", "_by", "_play")):
            assert engine.exact_sequence_logprob(narrow, sentence) == pytest.approx(
                exact_sequence_logprob(toy_model, sentence), rel=1e-12, abs=0)
        long = FIG1_SENTENCE * 3
        assert len(long) > EXACT_HISTORY_LIMIT
        assert -math.inf < engine.exact_sequence_logprob(narrow, long) < 0.0

    def test_library_exact_walks_the_model_it_is_given(self, monkeypatch):
        """``engine.exact_sequence_logprob`` builds no model: it walks the
        narrow model itself from an unpruned start beam, with the bits of
        scoring an unpruned copy of it."""
        rng = random.Random(34)
        cases = []
        for _ in range(10):
            model, walks = random_instance(rng)
            cases.append((dataclasses.replace(model, beam_size=1, beam_delta=0.0),
                          dataclasses.replace(model, beam_size=EXACT_BEAM_SIZE,
                                              beam_delta=math.inf), walks))
        built = []
        post_init = NfclmModel.__post_init__
        monkeypatch.setattr(NfclmModel, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        scored = 0
        for narrow, unpruned, walks in cases:
            for sentence in walks:
                want = sequence_logprob(unpruned, sentence)
                assert engine.exact_sequence_logprob(narrow, sentence).hex() == want.hex()
                scored += want > -math.inf
        assert built == [] and scored > 20

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


def score_alone(model, tokens, beam=None):
    """One list scored by ``extend`` token by token from ``beam``, by
    default the start beam."""
    beam = start_beam(model) if beam is None else beam
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


def widened_background(ngram, length):
    """``ngram`` reading ``length`` tokens with every bit: empty count
    levels above its order, as ``seqmodel.widened`` gives a decider."""
    empty = NGramLevel(array("B"), array("B", [0]), array("B"), array("B"))
    return BackoffNGram(ngram.discount, ngram.symbols, ngram.alphabet, ngram.history_alphabet,
                        ngram.levels + (empty,) * (length - ngram.context_size))


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
        """Every step the walk takes, by ``extend`` or in a run, reads the
        background once, for its symbol at the context before it; with a
        background widened to read each list whole, that context names
        the step's prefix."""
        rng = random.Random(9)
        steps, totals = Counter(), Counter()
        real_extend = engine.extend

        def counted_extend(model, beam, symbol):
            totals["extend"] += 1
            return real_extend(model, beam, symbol)

        for base, histories in self.cases(toy_vocab, toy_classes, song_fst, artist_fst):
            base = dataclasses.replace(
                base, background=widened_background(base.background, FULL_LENGTH))
            for kwargs in self.VARIANTS:
                model = dataclasses.replace(base, **kwargs)
                lists = shared_prefix_lists(model, histories, rng)
                # prefixes whose own prefix is alive; none below a dead one
                expected = {t[:k] for t in lists for k in range(1, len(t) + 1)
                            if alive(model, t[:k - 1])}
                assert max(map(len, lists)) <= FULL_LENGTH
                lookup = model.background_logprob

                def counted(symbol, context, model=model, lookup=lookup):
                    if symbol != EOS:
                        tokens = model._key_tokens(context)
                        steps[tokens[tokens.count(BOS):] + (symbol,)] += 1
                    return lookup(symbol, context)

                steps.clear()
                model.background_logprob = counted
                monkeypatch.setattr(engine, "extend", counted_extend)
                sequence_logprobs(model, lists)
                monkeypatch.setattr(engine, "extend", real_extend)
                assert set(steps) == expected
                assert set(steps.values()) <= {1}
                totals["step"] += len(steps)
        # both paths took steps
        assert 0 < totals["extend"] < totals["step"]

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


@pytest.mark.parametrize("call,name,refused", [
    (lambda m, s: sequence_logprob(m, s), "symbols", "_ro"),
    (lambda m, s: engine.exact_sequence_logprob(m, s), "symbols", "_ro"),
    (lambda m, s: sequence_logprobs(m, [("_play",), s]), "token_lists entry", "_ro"),
    (lambda m, s: advance(m, s), "symbols", "_ro"),
    (lambda m, s: perplexity(m, [("_play",), s]), "corpus sentence", "_ro"),
    (lambda m, s: perplexity(m.background, [s]), "corpus sentence", "_ro"),
    (lambda m, s: train_ngram([("_play",), s], m.vocabulary), "corpus sentence", "_ro"),
    # a corpus that is one string reads as sentences of one character each
    (lambda m, s: train_ngram(s, m.vocabulary), "corpus sentence", "_"),
    (lambda m, s: train_decider([("_play", "@song"), s], m.vocabulary, m.classes),
     "corpus sentence", "_ro"),
], ids=["sequence_logprob", "exact_sequence_logprob", "sequence_logprobs", "advance",
        "perplexity", "perplexity-ngram", "train_ngram", "train_ngram-one-string",
        "train_decider"])
def test_a_lone_string_is_no_sentence(toy_model, call, name, refused):
    """A sentence is a sequence of symbols: a lone ``str`` is refused by the
    argument's name, never read as one symbol per character."""
    with pytest.raises(ValueError) as info:
        call(toy_model, "_ro")
    assert str(info.value) == f"{name} {refused!r} is one string, not a sequence of symbols"


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

    def test_every_value_minus_infinity(self):
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf


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


class DistributionOnlyBackground(ConditionalSymbolModel):
    """A background model that implements only ``distribution``: its
    ``distribution_values`` and ``logprob`` are the contract defaults."""

    def __init__(self, inner: ConditionalSymbolModel):
        self.inner = inner

    @property
    def alphabet(self):
        return self.inner.alphabet

    @property
    def context_size(self):
        return self.inner.context_size

    def distribution(self, history):
        return self.inner.distribution(history)


class MutedBackground(DistributionOnlyBackground):
    """A background that gives ``muted`` probability 0, its mass moved to
    ``heir``; its ``logprob`` is the contract's default, -inf for ``muted``."""

    def __init__(self, inner: ConditionalSymbolModel, muted: str, heir: str = EOS):
        super().__init__(inner)
        self.muted, self.heir = muted, heir

    def distribution(self, history):
        dist = self.inner.distribution(history)
        dist[self.heir] += dist[self.muted]
        dist[self.muted] = 0.0
        return dist


class TestBackgroundRuns:
    """The walk steps a lone background hypothesis in place over each run
    of symbols that no class enters on, with the bits of ``extend``
    called token by token."""

    # runs entered and left at entry symbols (_ro, _browne), one cut by a
    # symbol the muted background cannot emit, one that is all run
    SENTENCES = [
        ("_play", "_by", "_play", "_ro", "sie", "_by", "_play", "_flack", "_by"),
        ("_browne", "_by", "_play", "_ro", "berta", "_flack", "_play", "_by"),
        ("_play", "_ro", "salie", "_play", "_browne", "_play"),
        ("_by", "_play") * 6,
        (),
    ]

    def models(self, toy_vocab, toy_classes, song_fst, artist_fst):
        toy = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)
        # a decider that reads no context merges every hypothesis at the
        # background position, so runs start again after each entity
        blind = train_decider([("_play", "@song", "_by", "@artist")], toy_vocab, toy_classes,
                              order=1)
        assert blind.context_size == 0
        yield toy
        yield dataclasses.replace(toy, decider=blind)
        yield dataclasses.replace(toy, beam_size=1)
        yield dataclasses.replace(toy, background=DistributionOnlyBackground(toy.background))
        # dies on _flack: the run hands extend a weight of -inf
        yield dataclasses.replace(toy, decider=blind,
                                  background=MutedBackground(toy.background, "_flack"))

    def test_each_score_has_the_bits_of_extend(self, toy_vocab, toy_classes, song_fst,
                                               artist_fst, monkeypatch):
        real_extend = engine.extend
        extends = []

        def counted(model, beam, symbol):
            extends.append(symbol)
            stepped = real_extend(model, beam, symbol)
            # the walk takes a finite step of a lone background hypothesis
            # on a symbol that no class enters on itself
            (first, _), *more = beam.hypotheses
            assert (more or model.decode(first)[1] is not None or entries_of(model, symbol)
                    or not math.isfinite(stepped[1]))
            return stepped

        monkeypatch.setattr(engine, "extend", counted)
        dead = 0
        for model in self.models(toy_vocab, toy_classes, song_fst, artist_fst):
            exact = dataclasses.replace(start_beam(model), size_limit=EXACT_BEAM_SIZE,
                                        delta=math.inf)
            run_steps = 0
            for tokens in self.SENTENCES:
                want = score_alone(model, tokens)
                extends.clear()
                assert sequence_logprob(model, tokens).hex() == want.hex()
                if want > -math.inf:
                    run_steps += len(tokens) - len(extends)
                dead += want == -math.inf
                assert (engine.exact_sequence_logprob(model, tokens).hex()
                        == score_alone(model, tokens, exact).hex())
            assert run_steps > 0
            # every prefix of every sentence, and a step past each: a run
            # pushes the stack entries of the prefixes the lists share
            lists = [t[:k] + extra for t in self.SENTENCES for k in range(len(t) + 1)
                     for extra in ((), ("_by",))]
            extends.clear()
            walked = sequence_logprobs(model, lists)
            assert [x.hex() for x in walked] == [score_alone(model, t).hex() for t in lists]
            assert len(extends) < len({t[:k] for t in lists for k in range(1, len(t) + 1)})
        assert dead > 0

    def test_eos_taken_in_a_run(self, toy_vocab, toy_classes, song_fst, artist_fst,
                                monkeypatch):
        """A list that ends in a run takes its EOS there, without
        ``eos_logprob`` and with its bits; a list whose last beam is a stack
        entry or holds a class span reads ``eos_logprob``."""
        real_eos = engine.eos_logprob
        calls = []

        def counted(model, beam):
            calls.append(beam.length)
            return real_eos(model, beam)

        monkeypatch.setattr(engine, "eos_logprob", counted)
        toy = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)
        # no class enters on these: one run from the start beam to EOS
        in_runs = [("_play", "_by"), ("_by", "_play") * 3, ("sie", "_flack")]
        # each ends inside a class span or on a beam of several hypotheses
        in_spans = [("_play", "_ro"), ("_play", "_ro", "sie"), ("_browne",),
                    ("_play", "_ro", "berta")]
        for model, live in ((toy, True),
                            # EOS's mass moved to _by: no history can stop
                            (dataclasses.replace(toy, background=MutedBackground(
                                toy.background, EOS, "_by")), False)):
            for tokens in in_runs + in_spans:
                want = score_alone(model, tokens)
                assert (want > -math.inf) == live
                calls.clear()
                assert sequence_logprob(model, tokens).hex() == want.hex()
                assert calls == ([] if tokens in in_runs else [len(tokens)])
            # a list that the next one extends takes its EOS from its stack
            # entry; the last list, all run, takes its own
            lists = [("_play", "_by"), ("_play", "_by", "_play"), ("_play",)]
            calls.clear()
            walked = sequence_logprobs(model, lists)
            assert [x.hex() for x in walked] == [score_alone(model, t).hex() for t in lists]
            assert sorted(calls) == [1, 2]

    def test_unknown_symbol_in_a_run(self, toy_model):
        tokens = ("_play", "_by", "nope", "_by")
        with pytest.raises(KeyError) as walked:
            sequence_logprob(toy_model, tokens)
        with pytest.raises(KeyError) as alone:
            score_alone(toy_model, tokens)
        assert walked.value.args == alone.value.args == (
            "symbol 'nope' is outside the vocabulary",)

    def test_lone_route_of_minus_infinity_is_dead(self, toy_vocab, toy_classes, song_fst,
                                                  artist_fst):
        toy = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)
        model = dataclasses.replace(toy, background=MutedBackground(toy.background, "_by"))
        with pytest.raises(DeadHistoryError) as dead:
            extend(model, advance(model, ("_play",)), "_by")
        assert dead.value.position == 1


class TestStartBeam:
    """Every walk starts from the model's own start beam; ``start_beam``
    hands each caller a fresh one."""

    SENTENCES = [FIG1_SENTENCE, ("_play", "_ro", "sie"), ("_ro", "sie", "_ro", "berta"),
                 ("_play", "_by")]

    def test_a_callers_beam_is_its_own(self, toy_model):
        want = [sequence_logprob(toy_model, t).hex() for t in self.SENTENCES]
        beam = start_beam(toy_model)
        assert beam is not start_beam(toy_model)
        beam.hypotheses.append(hyp(toy_model, ("_play",), weight=-1.0))
        beam.hypotheses[0] = hyp(toy_model, ("_by",), weight=-2.0)
        assert [sequence_logprob(toy_model, t).hex() for t in self.SENTENCES] == want
        assert [x.hex() for x in sequence_logprobs(toy_model, self.SENTENCES)] == want
        assert start_beam(toy_model).hypotheses == [hyp(toy_model)]

    def test_replaced_model_walks_with_its_own_limits(self, toy_model):
        narrow = dataclasses.replace(toy_model, beam_size=1, beam_delta=0.5)
        want = [score_alone(narrow, t).hex() for t in self.SENTENCES]
        assert [sequence_logprob(narrow, t).hex() for t in self.SENTENCES] == want
        assert [x.hex() for x in sequence_logprobs(narrow, self.SENTENCES)] == want
        # the limits show: the narrow beam drops alignments the default keeps
        assert want != [score_alone(toy_model, t).hex() for t in self.SENTENCES]


def dict_next_dist(model, beam):
    """Reference sweep: the dict form ``next_dist`` had before it filled a list.

    Each entry is built in the same route order from the same products and
    sums, so it must have ``next_dist``'s bits.
    """
    background: list[float] = []
    classes: list[tuple[dict, float]] = []
    for arcs, lw in (r for h in beam.hypotheses for r in routes(model, h).values()):
        if arcs is None:
            background.append(lw)
        else:
            classes.append((arcs, lw))
    symbols = model.vocabulary.symbols + (EOS,)
    if background:
        scale = math.exp(log_sum_exp(background) - beam.log_norm)
        bg = model.background.distribution(bg_tokens(model, beam))
        dist = {sym: scale * bg[sym] for sym in symbols}
    else:
        dist = dict.fromkeys(symbols, 0.0)
    for arcs, lw in classes:
        weight = math.exp(lw - beam.log_norm)
        for sym, (arc, _) in arcs.items():
            dist[sym] += weight * arc
    return dist


def log_domain_next_dist(model, beam):
    """Reference sweep: per-symbol log-domain terms, each summed by log-sum-exp."""
    terms: dict[str, list[float]] = {}
    background: list[float] = []
    for arcs, lw in (r for h in beam.hypotheses for r in routes(model, h).values()):
        if arcs is None:
            background.append(lw)
            continue
        for sym, (arc, _) in arcs.items():
            terms.setdefault(sym, []).append(lw + math.log(arc))
    if background:
        share = log_sum_exp(background)
        for sym, p in model.background.distribution(bg_tokens(model, beam)).items():
            terms.setdefault(sym, []).append(share + math.log(p))
    return {sym: math.exp(log_sum_exp(terms[sym]) - beam.log_norm) if sym in terms else 0.0
            for sym in model.vocabulary.symbols + (EOS,)}


NEXT_DIST_VARIANTS = ({}, {"beam_size": 2}, {"beam_delta": 0.5},
                      {"beam_size": EXACT_BEAM_SIZE, "beam_delta": math.inf}, full)


def next_dist_beams(toy):
    """(model, beam) cases for ``next_dist`` under each of ``NEXT_DIST_VARIANTS``,
    beam settings or, last, whole decider histories (``full``): the toy
    model, random instances, and backgrounds whose alphabet runs in
    another order or that implement only ``distribution``."""
    histories = [FIG1_SENTENCE[:k] for k in range(len(FIG1_SENTENCE) + 1)]
    histories.append(("_ro", "sie", "_ro", "berta"))
    cases = [(toy, histories)]
    rng = random.Random(1234)
    for _ in range(10):
        cases.append(random_instance(rng))
    # keys follow the vocabulary, not the background's own order
    model, histories = cases[1]
    cases.append((dataclasses.replace(
        model, background=ReorderedBackground(model.background)), histories))
    model, histories = cases[2]
    cases.append((dataclasses.replace(
        model, background=DistributionOnlyBackground(model.background)), histories))
    for base, histories in cases:
        for variant in NEXT_DIST_VARIANTS:
            model = (full(base, histories) if variant is full
                     else dataclasses.replace(base, **variant))
            for history in histories:
                try:
                    beam = advance(model, history)
                except DeadHistoryError:
                    continue  # a pruned beam can lose every alignment
                yield model, beam


class CountingNGram(BackoffNGram):
    """A background n-gram that counts its whole-distribution and symbol reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = Counter()

    def distribution_values(self, history):
        self.calls["distribution_values"] += 1
        return super().distribution_values(history)

    def distribution(self, history):
        self.calls["distribution"] += 1
        return super().distribution(history)

    def logprob(self, symbol, history):
        self.calls["logprob"] += 1
        return super().logprob(symbol, history)

    def logprob_at(self, symbol, state):
        self.calls["logprob_at"] += 1
        return super().logprob_at(symbol, state)


class CountingColumn:
    """One column of an automaton that counts each read in
    ``reads[label, name, index]``; a slice counts as its (start, stop)."""

    def __init__(self, column, reads, label, name):
        self.column, self.reads, self.key = column, reads, (label, name)

    def __getitem__(self, index):
        at = (index.start, index.stop) if isinstance(index, slice) else index
        self.reads[(*self.key, at)] += 1
        return self.column[index]

    def __len__(self):
        return len(self.column)


def count_column_reads(model, monkeypatch):
    """Counter that fills with each read of the state and arc columns of
    ``model``'s automata."""
    reads = Counter()
    for label, fst in model.class_fsts.items():
        for name in ("offsets", "exits", "arc_ids", "probs", "dests"):
            monkeypatch.setattr(fst, name, CountingColumn(getattr(fst, name), reads, label, name))
    return reads


class TestNextDist:
    def test_matches_per_symbol_extend(self, toy_vocab, toy_classes, song_fst,
                                       artist_fst):
        """Entry s is exp of extend's step log-probability; 0 where extend dies."""
        toy = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)
        checked = zeros = 0
        for model, beam in next_dist_beams(toy):
            dist = next_dist(model, beam)
            assert list(dist) == list(model.vocabulary.symbols) + [EOS]
            for sym in model.vocabulary.symbols:
                try:
                    _, lp = extend(model, beam, sym)
                except DeadHistoryError:
                    assert dist[sym] == 0.0, (bg_tokens(model, beam), sym)
                    zeros += 1
                    continue
                assert dist[sym] == pytest.approx(math.exp(lp), rel=1e-12, abs=0)
            assert dist[EOS] == pytest.approx(
                math.exp(eos_logprob(model, beam)), rel=1e-12, abs=0)
            checked += 1
        assert checked > 100 and zeros > 0

    def test_bits_match_the_dict_sweep(self, toy_vocab, toy_classes, song_fst, artist_fst):
        """Every entry has the ``float.hex`` of the dict sweep it replaced."""
        toy = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)
        checked = Counter()
        for model, beam in next_dist_beams(toy):
            got = next_dist(model, beam)
            want = dict_next_dist(model, beam)
            assert list(got) == list(want)
            assert [p.hex() for p in got.values()] == [p.hex() for p in want.values()], \
                bg_tokens(model, beam)
            checked[type(model.background).__name__] += 1
            # no decider trained here reads more than 2 tokens; a widened one does
            checked["whole"] += model.decider.context_size > 2
            checked["inside"] += any(pos is not None for pos in positions(model, beam))
        assert checked["ReorderedBackground"] >= 15 and checked["DistributionOnlyBackground"] >= 15
        assert checked["whole"] >= 40 and checked["inside"] >= 100

    def test_one_background_read_per_fan_out(self):
        """On a 600-symbol model, the first fan-out at a context key reads
        the background once, as a list, and a fan-out at a key already
        fanned out reads nothing: no fan-out calls the per-symbol
        ``logprob`` or builds a ``distribution`` dict."""
        rng = random.Random(5)
        symbols = [f"_w{i}" for i in range(600)]
        vocab = load_vocabulary(symbols)
        classes = load_class_alphabet(["@bg", "@a", "@b"])
        corpus = [tuple(rng.choice(symbols[:40]) for _ in range(rng.randint(1, 8)))
                  for _ in range(200)]
        trained = train_ngram(corpus, vocab, order=3)
        background = CountingNGram.deserialize(trained.serialize())
        fsts = {label: build_from_entities(label, entity_pairs([
            tuple(rng.choice(symbols[:40]) for _ in range(rng.randint(1, 3)))
            for _ in range(30)])) for label in ("@a", "@b")}
        tagged = [tuple(tok if rng.random() < 0.7 else rng.choice(("@a", "@b"))
                        for tok in sentence) for sentence in corpus]
        model = NfclmModel(vocab, classes, background, fsts,
                           train_decider(tagged, vocab, classes, order=2))
        fan_outs = inside = 0
        fanned = Counter()  # fan-outs per key that read the background
        for sentence in corpus[:30]:
            beam = start_beam(model)
            for sym in sentence:
                exits = any(pos is None or model.class_fsts[pos[0]].exits[pos[1]] > 0.0
                            for pos in positions(model, beam))
                key = reference_key(background, bg_tokens(model, beam))
                first = exits and not fanned[key]
                background.calls.clear()
                dist = next_dist(model, beam)
                assert background.calls == ({"distribution_values": 1} if first else {})
                fanned[key] += exits
                assert [p.hex() for p in dist.values()] == [
                    p.hex() for p in dict_next_dist(model, beam).values()]
                fan_outs += 1
                inside += any(pos is not None for pos in positions(model, beam))
                try:
                    beam, _ = extend(model, beam, sym)
                except DeadHistoryError:
                    break
        assert fan_outs > 50 and inside > 20
        # first fan-outs at many keys, and fan-outs at repeated keys
        assert len(fanned) > 50 and sum(fanned.values()) > len(fanned) + 20

    def test_reads_each_stay_run_once(self, toy_model_full, monkeypatch):
        """A fan-out reads the arcs of each stay route once, as its state's
        two offsets and the id and probability slices of its run, and the
        exit of each state inside a span; it reads no other arcs: entry
        routes read the model's start-state columns."""
        model = toy_model_full
        offsets = {label: fst.offsets for label, fst in model.class_fsts.items()}
        reads = count_column_reads(model, monkeypatch)
        inside = 0
        for history in (FIG1_SENTENCE, ("_ro", "sie", "_ro", "berta", "_flack")):
            for k in range(len(history) + 1):
                beam = advance(model, history[:k])
                want = dict_next_dist(model, beam)
                stays = Counter()
                for position in positions(model, beam):
                    if position is not None:
                        label, state = position
                        run = offsets[label][state], offsets[label][state + 1]
                        stays.update([(label, "exits", state), (label, "offsets", state),
                                      (label, "offsets", state + 1), (label, "arc_ids", run),
                                      (label, "probs", run)])
                        inside += 1
                reads.clear()
                got = next_dist(model, beam)
                assert reads == stays
                assert [p.hex() for p in got.values()] == [p.hex() for p in want.values()]
        assert inside > 5

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

    @pytest.mark.parametrize("reading", READINGS)
    def test_each_merge_mode_equals_exact(self, reading):
        """Merging on the decider's context, or on whole histories."""
        rng = random.Random(4321)
        for _ in range(25):
            model, histories = random_instance(rng)
            model = reading(model, histories)
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
    """Merging on the decider's context against merging on whole histories."""

    def test_context_keeps_decider_context(self, toy_model):
        size = toy_model.decider.context_size
        beam = advance(toy_model, FIG1_SENTENCE)
        assert all(len(dh) <= size for dh in histories(toy_model, beam))

    def test_context_equals_full_past_oracle_limit(self):
        """Unpruned, context merging gives the values of merging on whole
        histories to 1e-12.

        The histories run past ``EXACT_HISTORY_LIMIT``, where the oracle
        cannot check either.  A history whose whole-history beam fills
        N at some step is pruned there, so it is no reference and is
        left out; the count of compared histories is asserted.
        """
        rng = random.Random(2027)
        compared = 0
        for _ in range(24):
            model, histories = random_instance(rng, max_history=30)
            whole = full(model, histories)
            for history in histories:
                if len(history) <= EXACT_HISTORY_LIMIT:
                    continue
                beam_full = start_beam(whole)
                for sym in history:
                    beam_full, _ = extend(whole, beam_full, sym)
                    if len(beam_full.hypotheses) == whole.beam_size:
                        break
                else:
                    compared += 1
                    beam_context = advance(model, history)
                    assert sequence_logprob(model, history) == pytest.approx(
                        sequence_logprob(whole, history), rel=1e-12, abs=0)
                    assert eos_logprob(model, beam_context) == pytest.approx(
                        eos_logprob(whole, beam_full), rel=1e-12, abs=0)
                    want = next_dist(whole, beam_full)
                    got = next_dist(model, beam_context)
                    for sym, p in want.items():
                        assert got[sym] == pytest.approx(p, rel=1e-12, abs=0), \
                            (history, sym)
        assert compared >= 20


class TestWidenedDecider:
    """A decider widened to read more tokens (``seqmodel.widened``) has the
    bits of the decider it widens: empty count levels change no lookup."""

    def test_same_bits(self, toy_model):
        rng = random.Random(36)
        cases = [(toy_model, [FIG1_SENTENCE, ("_ro", "sie", "_ro", "berta", "_flack")])]
        cases += [random_instance(rng) for _ in range(8)]
        checked = Counter()
        for model, sentences in cases:
            decider = model.decider
            size, alphabet = decider.context_size, sorted(decider.history_alphabet)
            for length in (size + 1, size + 6):
                wide = widened(decider, length)
                assert wide.context_size == length
                for _ in range(20):
                    history = tuple(rng.choice(alphabet)
                                    for _ in range(rng.randint(size + 1, length + 2)))
                    for a, b in ((decider, wide), (decider.ngram, wide.ngram)):
                        assert hexes(b.distribution_values(history)) == \
                            hexes(a.distribution_values(history)), history
                        assert [b.logprob(c, history).hex() for c in a.alphabet] == \
                            [a.logprob(c, history).hex() for c in a.alphabet], history
                    checked[size] += 1
                assert stored_lists(wide) == stored_lists(decider)
                # the engine's decider cache rows after the same unpruned walks,
                # which read the contexts of every alignment
                plain = dataclasses.replace(model, beam_size=EXACT_BEAM_SIZE,
                                            beam_delta=math.inf)
                wider = dataclasses.replace(plain, decider=wide)
                sequence_logprobs(plain, sentences), sequence_logprobs(wider, sentences)
                assert {key: hexes(row) for key, row in wider._decider_cache.items()} == \
                    {key: hexes(row) for key, row in plain._decider_cache.items()}
        assert set(checked) == {0, 1, 2}

    def test_no_wider_is_the_decider(self, toy_model):
        decider = toy_model.decider
        for length in range(-1, decider.context_size + 1):
            assert widened(decider, length) is decider


def stored_lists(model):
    """``model.stored_contexts()`` with each id column read into a list."""
    symbols, stored = model.stored_contexts()
    return symbols, [[list(column) for column in level] for level in stored]


class TestSample:
    def test_deterministic_under_seed(self, toy_model):
        a = sample(toy_model, max_length=20, seed=99)
        b = sample(toy_model, max_length=20, seed=99)
        assert a == b
        assert not toy_model._bg_cache  # the background is read uncached

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

    def test_reads_only_the_drawn_route(self, toy_model, monkeypatch):
        """After its mixture kernel, a step reads its stay run's
        probabilities for the stay's mass, then, of the one state its drawn
        route leaves from, its stay state or a class's start, the two
        offsets, the probability run and the drawn arc's id and destination,
        and nothing more when it draws the background."""
        columns = {label: copy.copy(fst) for label, fst in toy_model.class_fsts.items()}
        reads = count_column_reads(toy_model, monkeypatch)
        steps = []  # per step: (position, stay run, column reads after its kernel)
        mixture = engine._mixture

        def step(model, key, log_weight, stays=None):
            if steps:
                steps[-1][2].update(reads)
            routes = mixture(model, key, log_weight, stays)
            reads.clear()
            steps.append((model.decode(key)[1], routes[0], Counter()))
            return routes

        monkeypatch.setattr(engine, "_mixture", step)
        drawn_routes, max_length = set(), 30
        for seed in range(40):
            del steps[:]
            out = sample(toy_model, max_length=max_length, seed=seed)
            steps[-1][2].update(reads)
            assert len(steps) == len(out) + (len(out) < max_length)
            # where each step moves: the next step's position, and the
            # background on the EOS a sample stops at; unknown after the
            # last step of a sample cut at max_length
            moves = [pos for pos, _, _ in steps[1:]] + [None] * (len(out) < max_length)
            for k, (pos, stay, got) in enumerate(steps):
                if stay is not None:
                    mass = (pos[0], "probs", stay[1:])
                    assert got[mass] > 0, got
                    got[mass] -= 1
                got = +got
                if not got:
                    assert k == len(moves) or moves[k] is None, (seed, k)
                    drawn_routes.add(("background", pos is None))
                    continue
                label, source = min((label, at) for label, name, at in got if name == "offsets")
                fst = columns[label]
                lo, hi = fst.offsets[source], fst.offsets[source + 1]
                arcs = state_arcs(fst, source)
                arc = lo + list(arcs).index(out[k])
                assert got == Counter([
                    (label, "offsets", source), (label, "offsets", source + 1),
                    (label, "probs", (lo, hi)), (label, "arc_ids", arc),
                    (label, "dests", arc)]), got
                # the drawn route leaves the stay state that the key holds, or
                # the class's start, by an arc on the drawn symbol
                stay_state = pos[1] if pos is not None and pos[0] == label else None
                assert source in (stay_state, fst.start)
                if k < len(moves):
                    assert moves[k] == (label, arcs[out[k]][1])
                drawn_routes.add(("stay" if source != fst.start else "entry", pos is None))
        # (route drawn, from a background position)
        assert drawn_routes == {("background", True), ("background", False),
                                ("entry", True), ("entry", False), ("stay", False)}

    def test_draw_past_the_last_weight(self, monkeypatch):
        """A draw that rounding puts past the running sum of the weights
        takes the last positive one: seven weights of 1/7 sum to
        1 - 2**-52 in order, their exact sum is 1, and ``random()`` may
        return 1 - 2**-53."""
        symbols = ("a", "b", "c", "d", "e", "f")
        vocab, classes = load_vocabulary(symbols), load_class_alphabet(["@bg"])
        # EOS first, so that the last weight is a symbol's and sampling goes on
        background = ReorderedBackground(uniform_background(symbols + (EOS,)))
        model = NfclmModel(vocab, classes, background, {},
                           train_decider([symbols], vocab, classes, order=1))
        weights = background.distribution_values(())
        assert background.alphabet[-1] == "a"
        running, top = 0.0, 1 - 2 ** -53
        for weight in weights:
            running += weight
        assert top * math.fsum(weights) > running

        class Top(random.Random):
            def random(self):
                return top

        monkeypatch.setattr(engine, "random", SimpleNamespace(Random=Top))
        assert sample(model, max_length=3, seed=0) == ["a", "a", "a"]

    def test_max_length_below_one_rejected(self, toy_model):
        with pytest.raises(ValueError, match=r"^max_length must be an int >= 1, got 0$"):
            sample(toy_model, max_length=0, seed=0)

    def test_max_length_not_an_int_rejected(self, toy_model):
        for length in (2.5, True, "3"):
            with pytest.raises(ValueError) as info:
                sample(toy_model, max_length=length, seed=0)
            assert str(info.value) == f"max_length must be an int >= 1, got {length!r}"

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
        only_mid = [h for h, pos in zip(beam.hypotheses, positions(toy_model, beam))
                    if pos is not None and toy_model.class_fsts[pos[0]].exits[pos[1]] == 0]
        beam.hypotheses = only_mid
        assert eos_logprob(toy_model, beam) == -math.inf

    def test_matches_exact_eos_entry(self, toy_model):
        for k in range(len(FIG1_SENTENCE) + 1):
            prefix = FIG1_SENTENCE[:k]
            exact = exact_next_dist(toy_model, prefix)
            beam_eos = eos_logprob(toy_model, advance(toy_model, prefix))
            assert beam_eos == pytest.approx(math.log(exact[EOS]), abs=1e-9)

    def test_reads_exits_not_stay_arcs(self, toy_model_full, monkeypatch):
        """An open span stops only through its exit: EOS reads the exit
        probability of each hypothesis inside a span, never its arcs, and
        its value has the bits of keeping the background routes of all
        routes."""
        model = toy_model_full
        reads = count_column_reads(model, monkeypatch)
        inside = 0
        for history in (FIG1_SENTENCE, ("_ro", "sie", "_ro", "berta", "_flack")):
            for k in range(len(history) + 1):
                beam = advance(model, history[:k])
                eos_lp = model.background_logprob(
                    EOS, model.context(history[:k], model.background.context_size))
                terms = [lw + eos_lp for h in beam.hypotheses
                         for route, (_, lw) in routes(model, h).items() if route == BACKGROUND]
                want = log_sum_exp(terms) - beam.log_norm if terms else -math.inf
                spans = Counter((pos[0], "exits", pos[1])
                                for pos in positions(model, beam) if pos is not None)
                inside += sum(spans.values())
                reads.clear()
                assert eos_logprob(model, beam).hex() == want.hex()
                assert reads == spans
        assert inside > 5


class TestDeciderCache:
    def test_stored_history_hits_its_padded_context(self, toy_model, toy_model_full):
        """A hypothesis reads the decider at its history's padded context:
        the row holds the log shares of the decider's distribution there
        and is the one row of the context's key."""
        for base in (toy_model, toy_model_full):
            size = base.decider.context_size
            for history in [(), ("_play",), ("_ro",), ("_play", "@song"),
                            ("_play", "@song", "_by"),
                            ("@song", "_by", "@artist", "_by", "@song")]:
                model = dataclasses.replace(base)  # empty caches
                _, _, row, _ = _mixture(model, *hyp(model, history))
                assert hexes(row) == hexes(log_shares(
                    model, model.decider.distribution(padded(history, size))))
                context = model.context(history, size)
                assert model.decider_dist(context) is row
                assert [model._key_tokens(key) for key in model._decider_cache] == [
                    reference_key(model.decider.ngram, padded(history, size))]


    def test_decider_in_another_class_order(self, toy_model):
        """A decider that predicts the classes in another order than the
        class alphabet scores, fans out and samples with the bits of one in
        alphabet order: a row holds the decider's log shares in the
        decider's own order, and a route reads its class's share at the
        class's place there."""

        def fanned_out(model, prefix):
            try:
                beam = advance(model, prefix)
            except DeadHistoryError:
                return None
            return [(sym, p.hex()) for sym, p in next_dist(model, beam).items()]

        rng = random.Random(36)
        cases = [(toy_model, [FIG1_SENTENCE, ("_ro", "sie", "_by", "_browne")])]
        cases += [random_instance(rng) for _ in range(3)]
        for base, sentences in cases:
            decider, labels = base.decider, base.classes.labels
            ngram = decider.ngram
            reordered = ngram_from_tables(ngram.discount, tuple(reversed(labels)),
                                          tuple(ngram.history_alphabet), count_tables(ngram))
            model = dataclasses.replace(
                base, decider=DeciderModel(reordered, decider.prior, decider.alpha))
            assert tuple(model.decider.alphabet) != tuple(labels)
            for sentence in sentences:
                assert (sequence_logprob(model, sentence).hex()
                        == sequence_logprob(base, sentence).hex())
                for k in range(len(sentence) + 1):
                    assert fanned_out(model, sentence[:k]) == fanned_out(base, sentence[:k])
            for seed in range(20):
                assert sample(model, 30, seed) == sample(base, 30, seed)
            # each row is the base's, permuted into the reordered decider's order
            place = tuple(base.decider.alphabet).index
            order = [place(c) for c in model.decider.alphabet]
            assert {key: hexes(row) for key, row in model._decider_cache.items()} == {
                key: hexes([row[i] for i in order]) for key, row in base._decider_cache.items()}


def handmade_ngram(predicted, history_alphabet, tables):
    """An order-3 n-gram holding exactly ``tables``, {context: {target: count}}."""
    counts = [{} for _ in range(3)]
    for context, table in tables.items():
        counts[len(context)][context] = table
    return ngram_from_tables(0.5, predicted, history_alphabet, counts)


def handmade_model(vocab, classes, song, artist):
    """A model whose n-grams are not closed under suffixes: each has a
    level-2 table without its level-1 suffix and one empty count table."""
    symbols = vocab.symbols
    background = handmade_ngram(symbols + (EOS,), symbols + (BOS,), {
        (): {"_play": 3, "_ro": 2, "sie": 1, "_by": 1, "_browne": 1, EOS: 2},
        (BOS, BOS): {"_play": 2, "_ro": 1},
        ("_play",): {"_ro": 2, "_by": 1},
        ("_ro", "sie"): {"_by": 2, EOS: 1},  # ("sie",) has no table
        ("_by",): {},
        ("_by", "_browne"): {EOS: 3},  # ("_browne",) has no table
    })
    labels = classes.labels
    decider = handmade_ngram(labels, symbols + labels + (BOS,), {
        (): {"@bg": 5, "@song": 2, "@artist": 1},
        ("_play",): {"@song": 2, "@bg": 1},
        (BOS, "_play"): {"@song": 1, "@bg": 2},
        ("@song", "_by"): {"@artist": 2},  # ("_by",) is empty
        ("_by",): {},
    })
    prior = {"@bg": 0.7, "@song": 0.2, "@artist": 0.1}
    return NfclmModel(vocabulary=vocab, classes=classes, background=background,
                      class_fsts={"@song": song, "@artist": artist},
                      decider=DeciderModel(decider, prior))


def stored_contexts(ngram):
    return sum(bool(table) for level in count_tables(ngram)[1:] for table in level.values())


def reference_key(ngram, tokens):
    """The longest suffix of ``tokens`` with a nonempty count table, else ():
    the context whose row an n-gram's output at ``tokens`` shares."""
    tables = count_tables(ngram)
    for length in range(min(len(tokens), ngram.order - 1), 0, -1):
        if tables[length].get(tokens[len(tokens) - length:]):
            return tokens[len(tokens) - length:]
    return ()


def hexes(values):
    return [value.hex() for value in values]


def log_shares(model, dist):
    """A decider distribution as the kernel's row: its log shares, in the
    decider's own class order."""
    return [math.log(dist[c]) for c in model.decider.alphabet]


class TestContextKeyedCaches:
    """The caches hold one row per context key: exact values, bounded rows."""

    SENTENCES = [FIG1_SENTENCE, ("_ro", "sie", "_by", "_browne"), ("sie", "_by"),
                 ("_play", "_ro", "salie", "_by", "_ro", "berta", "_flack"),
                 ("_browne", "_ro", "sie"), ("_by", "_browne"), ("_ro", "_play", "_ro")]

    def scored(self, base, sentences):
        """Score ``sentences`` from empty caches, and next_dist after each;
        returns the model with the packed contexts of its background
        queries (with their symbols) and of its decider queries, and the
        beams it fanned out at."""
        model = dataclasses.replace(base)
        bg_queries, decider_queries = set(), set()
        background_logprob, decider_dist = model.background_logprob, model.decider_dist

        def traced_background(symbol, context):
            bg_queries.add((symbol, context))
            return background_logprob(symbol, context)

        def traced_decider(context):
            decider_queries.add(context)
            return decider_dist(context)

        model.background_logprob, model.decider_dist = traced_background, traced_decider
        sequence_logprobs(model, sentences)
        fan_outs = []
        for tokens in sentences:
            try:
                beam = advance(model, tokens)
            except DeadHistoryError:
                continue
            next_dist(model, beam)
            fan_outs.append(beam)
        return model, bg_queries, decider_queries, fan_outs

    def assert_fan_out_rows(self, model, fan_outs):
        """Each row a fan-out filled holds the bits of the background's
        ``distribution_values`` at the row's key and at every fanned-out
        context of that key, in the background's alphabet order;
        ``next_dist`` on the warm model has the bits of a cold copy."""
        background, size = model.background, model.background.context_size

        def ordered(tokens):
            return hexes(background.distribution_values(tokens))

        filled = {key: row for key, row in model._bg_cache.items()
                  if row.dist_values is not None}
        assert filled
        for key, row in filled.items():
            assert hexes(row.dist_values) == ordered(model._key_tokens(key))
        assert set(filled) <= {_stored_suffix(beam.context, model._bg_levels)
                               for beam in fan_outs}
        for beam in fan_outs:
            row = filled.get(_stored_suffix(beam.context, model._bg_levels))
            if row is not None:
                assert hexes(row.dist_values) == \
                    ordered(context_tokens(model, beam.context, size))
            cold = dataclasses.replace(model)
            assert hexes(next_dist(model, beam).values()) == \
                hexes(next_dist(cold, beam).values()), bg_tokens(model, beam)

    def assert_exact_and_bounded(self, model, bg_queries, decider_queries, fan_outs):
        """Each queried value has the component's bits at the queried
        context; the rows are exactly the reference keys of the queried
        and fanned-out contexts, each a stored context or (); their number
        is bounded.  Fan-outs filled their rows as ``assert_fan_out_rows``
        checks."""
        background, decider = model.background, model.decider
        bg_size, decider_size = background.context_size, decider.context_size
        assert bg_queries and decider_queries
        self.assert_fan_out_rows(model, fan_outs)
        for symbol, context in bg_queries:
            cached = model._bg_cache[_stored_suffix(context, model._bg_levels)][symbol]
            tokens = context_tokens(model, context, bg_size)
            assert cached.hex() == background.logprob(symbol, tokens).hex(), (symbol, tokens)
        for context in decider_queries:
            cached = model._decider_cache[_stored_suffix(context, model._decider_levels)]
            tokens = context_tokens(model, context, decider_size)
            assert hexes(cached) == hexes(log_shares(model, decider.distribution(tokens))), tokens
        bg_contexts = {c for _, c in bg_queries} | {beam.context for beam in fan_outs}
        for cache, ngram, size, queried in (
                (model._bg_cache, background, bg_size, bg_contexts),
                (model._decider_cache, decider.ngram, decider_size, decider_queries)):
            keys = [model._key_tokens(key) for key in cache]
            assert len(keys) == len(set(keys))
            assert set(keys) == {reference_key(ngram, context_tokens(model, c, size))
                                 for c in queried}
            assert len(cache) <= stored_contexts(ngram) + 1

    def test_toy_model(self, toy_model, toy_model_full):
        for model in (toy_model, toy_model_full):
            self.assert_exact_and_bounded(*self.scored(model, self.SENTENCES))

    def test_random_instances(self):
        rng = random.Random(2024)
        for _ in range(12):
            model, histories = random_instance(rng)
            symbols = model.vocabulary.symbols
            sentences = [h[:cut] + tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
                         for h in histories for cut in range(len(h) + 1)]
            self.assert_exact_and_bounded(*self.scored(model, sentences))

    def test_tables_not_closed_under_suffixes(self, toy_vocab, toy_classes, song_fst,
                                              artist_fst):
        base = handmade_model(toy_vocab, toy_classes, song_fst, artist_fst)

        def key(levels, tokens):
            return base._key_tokens(_stored_suffix(base.context(tokens, 2), levels))

        assert key(base._bg_levels, ("_ro", "sie")) == ("_ro", "sie")
        assert key(base._bg_levels, ("_play", "_by")) == ()  # skips the empty table
        assert key(base._bg_levels, ("sie", "_play")) == ("_play",)
        assert key(base._decider_levels, ("@song", "_by")) == ("@song", "_by")
        model, bg_queries, decider_queries, fan_outs = self.scored(base, self.SENTENCES)
        self.assert_exact_and_bounded(model, bg_queries, decider_queries, fan_outs)
        # rows shared by several contexts, and keys past an absent level
        assert len(model._bg_cache) < len({c for _, c in bg_queries})
        assert base.context(("_ro", "sie"), 2) in model._bg_cache
        assert base.context(("@song", "_by"), 2) in model._decider_cache

    def test_model_without_stored_contexts_keys_by_context(self, toy_vocab, toy_classes,
                                                           song_fst, artist_fst):
        base = handmade_model(toy_vocab, toy_classes, song_fst, artist_fst)
        plain = base
        base = dataclasses.replace(base, background=ReorderedBackground(base.background))
        assert base.background.stored_contexts() is None and base._bg_levels is None
        model, bg_queries, _, fan_outs = self.scored(base, self.SENTENCES)
        assert set(model._bg_cache) == ({context for _, context in bg_queries}
                                        | {beam.context for beam in fan_outs})
        for symbol, context in bg_queries:
            assert (model._bg_cache[context][symbol].hex()
                    == model.background.logprob(symbol, context_tokens(model, context, 2)).hex())
        self.assert_fan_out_rows(model, fan_outs)
        # the fan-out reads the reversed alphabet, but keys and bits are the plain one's
        for beam in fan_outs:
            dist = next_dist(model, beam)
            assert list(dist) == [*model.vocabulary.symbols, EOS]
            assert hexes(dist.values()) == hexes(next_dist(plain, beam).values())

    def test_short_history_does_not_hit_a_shorter_key(self, toy_vocab, toy_classes,
                                                      song_fst, artist_fst):
        """A one-token history is padded: ("_play",) must read the row of
        (BOS, "_play"), not that of the stored context ("_play",)."""
        model = handmade_model(toy_vocab, toy_classes, song_fst, artist_fst)
        decider = model.decider
        padded_row = hexes(log_shares(model, decider.distribution((BOS, "_play"))))
        assert padded_row != hexes(log_shares(model, decider.distribution(("_ro", "_play"))))
        model.decider_dist(model.context(("_ro", "_play"), 2))
        assert [model._key_tokens(key) for key in model._decider_cache] == [("_play",)]
        assert hexes(model.decider_dist(model.context(("_play",), 2))) == padded_row

    def test_rows_keep_no_caller_strings(self, toy_model):
        """Rows are keyed by the model's own symbol objects: scoring text
        made of new strings leaves none of them in the background cache."""
        cases = [(toy_model, self.SENTENCES), random_instance(random.Random(35))]
        for base, sentences in cases:
            model = dataclasses.replace(base)  # empty caches
            fresh = [["".join(list(tok)) for tok in sentence] for sentence in sentences]
            assert any(tok is not own for new, old in zip(fresh, sentences)
                       for tok, own in zip(new, old))
            sequence_logprobs(model, fresh)
            for sentence in fresh:
                sequence_logprob(model, sentence)
            own = {id(sym) for sym in model.vocabulary.symbols + (EOS,)}
            keys = [sym for row in model._bg_cache.values() for sym in row]
            assert keys and all(id(sym) in own for sym in keys)

    def test_equal_decider_rows_share_one_tuple(self):
        """After a fixed corpus, each distinct decider row is held by one
        object, and each row has the bits of the log of the decider's
        ``distribution_values`` at its key's tokens."""
        model = mid_size_model()
        for sentence in corpora()[1][:200]:
            sequence_logprob(model, sentence)
        rows = list(model._decider_cache.values())
        assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)
        for key, row in model._decider_cache.items():
            values = model.decider.distribution_values(model._key_tokens(key))
            assert hexes(row) == hexes(map(math.log, values)), model._key_tokens(key)

    def test_cache_report_reads_the_row_states(self):
        """``tests/model_memory.py``'s cache table runs on a few sentences:
        one state per background row, each storing at most the two levels of
        the order-3 background above level 0, and the states' bytes part of
        the background's."""
        background, decider, states = cache_report(20)
        assert [background[0], decider[0], states[0]] == [
            "background", "decider", "background row states"]
        assert states[1] == background[1] > 0
        assert 0 < states[3] <= 2 * states[1]
        assert 0 <= states[4] < background[4] and decider[4] > 0


# -- recorded bits of extend and eos_logprob --------------------------------

BITS_FILE = Path(__file__).parent / "data" / "extend_bits.json"
CONTEXT_BITS_FILE = Path(__file__).parent / "data" / "extend_bits_context.json"
NEXT_DIST_BITS_FILE = Path(__file__).parent / "data" / "next_dist_bits.json"
BITS_SETTINGS = [(n, delta) for n in (2, 3) for delta in (0.5, 1.0)]


def bits_cases():
    """(name, model, histories): the toy model, a model whose classes tie
    exactly, and three random instances."""
    vocab = load_vocabulary(TOY_SYMBOLS)
    classes = load_class_alphabet(["@bg", "@song", "@artist"])
    toy = make_toy_model(vocab, classes,
                         build_from_entities("@song", entity_pairs(SONG_ENTITIES)),
                         build_from_entities("@artist", entity_pairs(ARTIST_ENTITIES)))
    yield "toy", toy, [FIG1_SENTENCE, ("_ro", "sie", "_ro", "berta", "_flack"),
                       ("_browne", "_ro", "salie")]
    # equal automata and equal decider shares give successors of equal weight,
    # so the tie order decides the beam order and which one the N cut keeps
    twins = entity_pairs([("_ro", "sie"), ("_ro",)])
    decider = train_decider([("_play", "@song"), ("_play", "@artist"),
                             ("@song", "_by", "@artist"), ("@artist", "_by", "@song")],
                            vocab, classes, order=2)
    tied = NfclmModel(vocabulary=vocab, classes=classes,
                      background=uniform_background(vocab.symbols + (EOS,)),
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
                      [[" ".join(dh), "-" if pos is None else f"{pos[0]}:{pos[1]}",
                        h.log_weight.hex()]
                       for h in beam.hypotheses for dh, pos in [model.decode(h.key)]]])
    return steps


def record_bits(reading=full):
    """Transcripts of every bits case under every beam setting.

    ``extend_bits.json`` holds this for whole decider histories
    (``full``), one case per line, as computed by the engine that split
    exit mass over every class for every symbol, in the mode that kept
    each alignment's whole history; ``extend_bits_context.json`` holds it
    for the decider's context (``context``), as computed by the first
    engine that merged on the decider's context.
    """
    out = {}
    for name, base, histories in bits_cases():
        for n, delta in BITS_SETTINGS:
            model = dataclasses.replace(reading(base, histories), beam_size=n, beam_delta=delta)
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
        got = record_bits(context)
        assert list(got) == list(recorded)
        for key, steps in recorded.items():
            assert got[key] == steps, key


def record_next_dist_bits():
    """The ``float.hex`` of every ``next_dist`` entry before and after each
    step of every bits case, under each of ``BITS_SETTINGS`` and the
    default beam; ``"dead"`` where the history dies.

    One model serves all histories of a setting, so later fan-outs meet
    context keys that earlier ones filled.  ``next_dist_bits.json`` holds
    this, one setting per line, as computed by the engine that read the
    background's ``distribution_values`` afresh on every fan-out.
    """
    out = {}
    for name, base, histories in bits_cases():
        for n, delta in BITS_SETTINGS + [(DEFAULT_BEAM_SIZE, DEFAULT_BEAM_DELTA)]:
            model = dataclasses.replace(base, beam_size=n, beam_delta=delta)
            walks = []
            for history in histories:
                beam = start_beam(model)
                fan_outs = [hexes(next_dist(model, beam).values())]
                for sym in history:
                    try:
                        beam, _ = extend(model, beam, sym)
                    except DeadHistoryError:
                        fan_outs.append("dead")
                        break
                    fan_outs.append(hexes(next_dist(model, beam).values()))
                walks.append(fan_outs)
            out[f"{name} N={n} delta={delta}"] = walks
    return out


class TestRecordedNextDistBits:
    """``next_dist`` reproduces recorded ``float.hex`` values, from cold and
    from warm caches."""

    def test_fan_outs(self):
        recorded = json.loads(NEXT_DIST_BITS_FILE.read_text(encoding="utf-8"))
        got = record_next_dist_bits()
        assert list(got) == list(recorded)
        for key, walks in recorded.items():
            assert got[key] == walks, key


# -- the key layout ----------------------------------------------------------


def tie_order(model, key):
    """The order ranking gives a hypothesis: its history's length, its
    history, then its position, the background first."""
    dh, position = model.decode(key)
    return len(dh), dh, position or ()


def walked_keys(model, histories):
    """The key of every hypothesis of the beams along each history."""
    keys = set()
    for history in histories:
        beam = start_beam(model)
        keys.update(h.key for h in beam.hypotheses)
        for sym in history:
            try:
                beam, _ = extend(model, beam, sym)
            except DeadHistoryError:
                break
            keys.update(h.key for h in beam.hypotheses)
    return keys


class TestKeyLayout:
    """A hypothesis key holds its (decider history, position): packing what
    a key decodes to by the documented layout gives the key back, and key
    order is the tie order."""

    def assert_layout(self, model, keys):
        for key in keys:
            dh, position = model.decode(key)
            assert hypothesis_key(model, dh, position) == key, (dh, position)
        assert sorted(keys) == sorted(keys, key=lambda key: tie_order(model, key))

    def test_every_walked_hypothesis(self, toy_model):
        cases = [(model, histories) for _, model, histories in bits_cases()]
        # a decider that reads no context: histories are empty, so positions
        # alone order the keys, in classes listed out of label order
        blind = train_decider([("_play", "@song", "_by", "@artist")], toy_model.vocabulary,
                              toy_model.classes, order=1)
        cases.append((dataclasses.replace(toy_model, decider=blind),
                      [FIG1_SENTENCE, ("_ro", "sie", "_ro", "berta", "_flack")]))
        rng = random.Random(31)
        cases += [random_instance(rng) for _ in range(20)]
        checked = Counter()
        for base, histories in cases:
            for reading in READINGS:
                model = reading(base, histories)
                keys = walked_keys(model, histories)
                self.assert_layout(model, keys)
                checked[reading] += len(keys)
                checked["inside"] += sum(model.decode(key)[1] is not None for key in keys)
        assert min(checked.values()) > 200

    def test_histories_are_the_alignments(self):
        """Unpruned, the decoded histories after a prefix are those of its
        alignments, cut to the decider's context: whole when the decider
        reads the whole walk (``full``)."""
        rng = random.Random(32)
        for _ in range(10):
            base, walks = random_instance(rng)
            for reading in READINGS:
                model = reading(base, walks)
                size = model.decider.context_size
                for history in walks:
                    beam = start_beam(model)
                    for k, sym in enumerate(history, start=1):
                        beam, _ = extend(model, beam, sym)
                        whole = exact_alignment_histories(model, history[:k])
                        if reading is full:
                            assert all(len(dh) <= size for dh in whole)
                        want = {dh[max(0, len(dh) - size):] for dh in whole}
                        assert set(histories(model, beam)) == want, (history[:k], reading)

    def test_long_full_history_passes_64_bits(self, toy_model):
        history = FIG1_SENTENCE * 40
        model = full(toy_model, [history])
        keys = walked_keys(model, [history])
        self.assert_layout(model, keys)
        longest = max(keys, key=lambda key: len(model.decode(key)[0]))
        assert len(model.decode(longest)[0]) > 100
        assert max(key.bit_length() for key in keys) > 64

    def test_history_field_is_the_padded_history(self):
        """Above its position a key is its decider history packed by
        ``NfclmModel.context``, BOS-padded to ``D`` slots, as the decider
        lookup reads it; a decider that reads the whole walk (``full``)
        has ``D`` at least as long as any history."""
        cases = [(model, histories) for _, model, histories in bits_cases()]
        rng = random.Random(35)
        cases += [random_instance(rng) for _ in range(20)]
        checked = Counter()
        for base, histories in cases:
            for reading in READINGS:
                model = reading(base, histories)
                size = model.decider.context_size
                for key in walked_keys(model, histories):
                    dh, _ = model.decode(key)
                    assert key >> model._pos_bits == model.context(dh, size), (reading, dh)
                    checked[reading, len(dh) > 0] += 1
        assert len(checked) == 4 and min(checked.values()) > 20


# -- the hooks the benchmark's tracer uses ----------------------------------


class ForwardingModel(ConditionalSymbolModel):
    """Forwards to a wrapped component and counts ``logprob`` and
    ``distribution`` calls, as the benchmark's traced components do."""

    def __init__(self, inner, calls, prefix):
        self._inner, self._calls, self._prefix = inner, calls, prefix

    @property
    def alphabet(self):
        return self._inner.alphabet

    @property
    def context_size(self):
        return self._inner.context_size

    def distribution(self, history):
        self._calls[f"{self._prefix}.distribution"] += 1
        return self._inner.distribution(history)

    def logprob(self, symbol, history):
        self._calls[f"{self._prefix}.logprob"] += 1
        return self._inner.logprob(symbol, history)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def counted(counts, name, fn):
    def counting(*args):
        counts[name] += 1
        return fn(*args)
    return counting


def exiting(model, beam):
    """How many hypotheses of ``beam`` can leave their position."""
    return sum(pos is None or model.class_fsts[pos[0]].exits[pos[1]] > 0.0
               for pos in positions(model, beam))


class TestTracerHooks:
    """A model whose components are swapped for forwarding wrappers after
    construction, with counting wrappers on its two lookups, scores with
    the same bits; every cache lookup is one counted call, and every
    component call fills one cache entry."""

    def test_traced_model(self, toy_model, toy_model_full):
        cases = [(toy_model, [FIG1_SENTENCE, ("_ro", "sie", "_ro", "berta", "_flack")]),
                 (toy_model_full, [FIG1_SENTENCE, ("_browne", "_ro", "salie")])]
        rng = random.Random(33)
        cases += [random_instance(rng) for _ in range(8)]
        for base, sentences in cases:
            plain, traced = dataclasses.replace(base), dataclasses.replace(base)
            calls, lookups = Counter(), Counter()
            traced.background = ForwardingModel(traced.background, calls, "bg")
            traced.decider = ForwardingModel(traced.decider, calls, "decider")
            traced.background_logprob = counted(lookups, "bg", traced.background_logprob)
            traced.decider_dist = counted(lookups, "decider", traced.decider_dist)
            want = Counter()
            for sentence in sentences:
                assert (sequence_logprob(traced, sentence).hex()
                        == sequence_logprob(plain, sentence).hex())
                beam = start_beam(plain)
                for sym in sentence:
                    want["bg"] += 1
                    want["decider"] += exiting(plain, beam)
                    try:
                        beam, _ = extend(plain, beam, sym)
                    except DeadHistoryError:
                        break
                else:
                    want["bg"] += 1  # EOS
                    want["decider"] += exiting(plain, beam)
                    got = next_dist(traced, advance(traced, sentence))
                    want["decider"] += exiting(plain, beam)
                    assert [p.hex() for p in got.values()] == [
                        p.hex() for p in next_dist(plain, beam).values()]
                    want["bg"] += len(sentence)  # the advance above
                    want["decider"] += sum(exiting(plain, advance(plain, sentence[:k]))
                                           for k in range(len(sentence)))
            assert lookups == want
            assert lookups["decider"] > 0
            assert calls["bg.logprob"] == sum(map(len, traced._bg_cache.values()))
            assert calls["decider.distribution"] == len(traced._decider_cache)
