import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from nfclm import BACKGROUND, DynFstSession, sequence_logprob
from nfclm.engine import advance, eos_logprob, next_dist

from conftest import (decider_row, entity_pairs, histories, positions, random_instance,
                      shared_key_lists)
from model_memory import fresh, session_report
from oracle import exact_next_dist

FIG1_SENTENCE = ("_play", "_ro", "sie", "_by", "_browne")
# sentences of ``model_memory.corpora()`` that ``TestStateBytes`` walks
SESSION_SENTENCES = 300


class TestStartState:
    def test_initial_beam(self, toy_model):
        session = DynFstSession(toy_model)
        beam = session.beam_of(session.start_state())
        assert len(beam.hypotheses) == 1
        root = beam.hypotheses[0]
        assert session.model.decode(root.key) == ((), None)
        assert root.log_weight == 0.0

    def test_idempotent(self, toy_model):
        session = DynFstSession(toy_model)
        assert session.start_state() == session.start_state()

    def test_unchanged_after_expansion(self, toy_model):
        session = DynFstSession(toy_model)
        start = session.start_state()
        session.transition(start, "_play")
        assert session.start_state() == start
        assert session.history_of(start) == ()


class TestTransition:
    def test_first_arc_weight_is_neg_log_p1(self, toy_model):
        session = DynFstSession(toy_model)
        decider = decider_row(toy_model, ())
        p1 = decider[BACKGROUND] * (1 / 9)
        arc = session.transition(session.start_state(), "_play")
        assert arc is not None
        assert arc[1] == pytest.approx(-math.log(p1), abs=1e-12)

    def test_destination_beam_labels(self, toy_model_full):
        session = DynFstSession(toy_model_full)
        state = session.start_state()
        for sym in ("_play", "_ro"):
            state, _ = session.transition(state, sym)
        got = set(histories(toy_model_full, session.beam_of(state)))
        assert got == {("_play", "_ro"), ("_play", "@song"), ("_play", "@artist")}

    def test_repeated_calls_identical(self, toy_model):
        session = DynFstSession(toy_model)
        first = session.transition(session.start_state(), "_play")
        second = session.transition(session.start_state(), "_play")
        assert first == second

    def test_same_history_same_state(self, toy_model):
        session = DynFstSession(toy_model)
        a, _ = session.transition(session.start_state(), "_play")
        b, _ = session.transition(session.start_state(), "_play")
        assert a == b

    def test_dead_symbol_gives_no_arc(self, toy_vocab, toy_classes, song_fst,
                                      artist_fst):
        # a singleton beam keeps only the in-class reading of _ro; _by
        # cannot continue the @song span, so the arc does not exist
        from conftest import make_toy_model
        model = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst,
                               beam_size=1)
        session = DynFstSession(model)
        state, _ = session.transition(session.start_state(), "_ro")
        beam = session.beam_of(state)
        assert positions(model, beam)[0] is not None
        assert session.transition(state, "_by") is None
        # the answer is remembered
        assert session.transition(state, "_by") is None

    def test_path_weight_matches_sequence_logprob(self, toy_model):
        session = DynFstSession(toy_model)
        state = session.start_state()
        total = 0.0
        for sym in FIG1_SENTENCE:
            state, weight = session.transition(state, sym)
            total += weight
        total += session.final_weight(state)
        assert total == pytest.approx(-sequence_logprob(toy_model, FIG1_SENTENCE),
                                      abs=1e-9)


class TestFinalWeight:
    def test_start_state_finite(self, toy_model):
        session = DynFstSession(toy_model)
        w = session.final_weight(session.start_state())
        assert w is not None and math.isfinite(w)

    def test_matches_exact_eos(self, toy_model):
        session = DynFstSession(toy_model)
        state = session.start_state()
        for sym in ("_play", "_ro", "sie"):
            state, _ = session.transition(state, sym)
        exact = exact_next_dist(toy_model, ("_play", "_ro", "sie"))
        from nfclm import EOS
        assert session.final_weight(state) == pytest.approx(
            -math.log(exact[EOS]), abs=1e-9)

    def test_midclass_state_has_no_final(self, toy_vocab, toy_classes):
        # single-entity class: after its first symbol the span must continue,
        # and the background model cannot have produced that symbol if we
        # keep only the in-class hypothesis; emulate by checking the state
        # where every hypothesis is mid-class
        from conftest import make_toy_model
        from nfclm import build_from_entities
        song = build_from_entities("@song", entity_pairs([("berta", "salie")]))
        artist = build_from_entities("@artist", entity_pairs([("_browne",)]))
        model = make_toy_model(toy_vocab, toy_classes, song, artist)
        beam = advance(model, ("berta",))
        mid = [h for h in beam.hypotheses if model.decode(h.key)[1] is not None]
        assert mid  # the class path exists
        beam.hypotheses = mid
        assert eos_logprob(model, beam) == -math.inf


class TestEviction:
    def test_capacity_two_matches_unlimited(self, toy_model):
        plain = DynFstSession(toy_model)
        tight = DynFstSession(toy_model, capacity=2)
        path = ("_play", "_ro", "sie", "_by", "_browne", "_play", "_ro", "salie",
                "_by", "_browne")
        ps = plain.start_state()
        ts = tight.start_state()
        for sym in path:
            ps, pw = plain.transition(ps, sym)
            ts, tw = tight.transition(ts, sym)
            assert pw == tw  # 0 ulp
        assert plain.final_weight(ps) == tight.final_weight(ts)

    def test_replays_counted(self, toy_model):
        session = DynFstSession(toy_model, capacity=2)
        state = session.start_state()
        states = [state]
        for sym in ("_play", "_ro", "sie"):
            state, _ = session.transition(state, sym)
            states.append(state)
        session.beam_of(states[1])  # evicted by now: forces a replay
        stats = session.stats
        assert stats.replays > 0
        assert stats.evictions > 0

    def test_random_walks_with_random_eviction_points(self, toy_model):
        rng = random.Random(5)
        symbols = toy_model.vocabulary.symbols
        walks = [[rng.choice(symbols) for _ in range(8)] for _ in range(5)]
        reference = DynFstSession(toy_model)
        for capacity in range(1, 5):
            cached = DynFstSession(toy_model, capacity=capacity)
            for walk in walks:
                rs, cs = reference.start_state(), cached.start_state()
                for sym in walk:
                    r_arc = reference.transition(rs, sym)
                    c_arc = cached.transition(cs, sym)
                    if r_arc is None:
                        assert c_arc is None
                        break
                    assert c_arc is not None
                    assert r_arc[1] == c_arc[1]  # 0 ulp
                    rs, cs = r_arc[0], c_arc[0]
                    assert reference.final_weight(rs) == cached.final_weight(cs)

    def test_beam_replay_bit_exact(self, toy_model):
        session = DynFstSession(toy_model, capacity=1)
        state = session.start_state()
        for sym in FIG1_SENTENCE:
            state, _ = session.transition(state, sym)
        replayed = session.beam_of(state)
        fresh = advance(toy_model, FIG1_SENTENCE)
        assert replayed.hypotheses == fresh.hypotheses
        assert replayed.log_norm == fresh.log_norm

    def test_capacity_validated(self, toy_model):
        with pytest.raises(ValueError):
            DynFstSession(toy_model, capacity=0)
        for capacity in (True, 2.5, "3", -1):
            with pytest.raises(ValueError, match=r"^capacity must be an int >= 1, or None "):
                DynFstSession(toy_model, capacity=capacity)
        assert DynFstSession(toy_model, capacity=None).capacity is None

    def test_final_weights_computed_once_per_state(self, toy_model, monkeypatch):
        calls = []

        def counting_eos(model, beam):
            calls.append(beam.length)
            return eos_logprob(model, beam)

        monkeypatch.setattr("nfclm.dynfst.eos_logprob", counting_eos)
        session = DynFstSession(toy_model, capacity=1)
        state = session.start_state()
        for sym in FIG1_SENTENCE:
            state, _ = session.transition(state, sym)
        # no final weight is computed before it is asked for; each step but
        # the first replays its source
        assert calls == []
        assert session.stats.replays == len(FIG1_SENTENCE) - 1
        # capacity 1 holds only the start beam: the first request replays
        session.final_weight(state)
        session.final_weight(state)
        assert calls == [len(FIG1_SENTENCE)]
        assert session.stats.replays == len(FIG1_SENTENCE)
        stats = session.stats.as_dict()
        session.dump()
        # the dump's replays install and count nothing, and it computes only
        # the finals not yet asked for, in state order
        assert session.stats.as_dict() == stats
        assert calls == [len(FIG1_SENTENCE)] + list(range(len(FIG1_SENTENCE)))
        session.final_weight(session.start_state())
        assert len(calls) == len(FIG1_SENTENCE) + 1


class TestLazyFinals:
    """Final weights are computed on first request, from the state's beam."""

    def counting(self, monkeypatch):
        calls = []

        def counting_eos(model, beam):
            calls.append(beam.length)
            return eos_logprob(model, beam)

        monkeypatch.setattr("nfclm.dynfst.eos_logprob", counting_eos)
        return calls

    def walk(self, session, symbols=FIG1_SENTENCE):
        states = [session.start_state()]
        for sym in symbols:
            states.append(session.transition(states[-1], sym)[0])
        return states

    def test_bits_equal_eos_logprob(self, toy_model_exact_beam):
        session = DynFstSession(toy_model_exact_beam, capacity=2)
        states = self.walk(session)
        resident = set(session._resident)
        assert states[-1] in resident and states[1] not in resident
        for k, state in enumerate(states):
            beam = advance(toy_model_exact_beam, FIG1_SENTENCE[:k])
            want = -eos_logprob(toy_model_exact_beam, beam)
            assert session.final_weight(state).hex() == want.hex(), k

    def test_none_when_no_alignment_can_stop(self, toy_vocab, toy_classes):
        from conftest import make_toy_model
        from nfclm import build_from_entities
        song = build_from_entities("@song", entity_pairs([("berta", "salie")]))
        artist = build_from_entities("@artist", entity_pairs([("_browne",)]))
        # a singleton beam keeps only the in-class reading of berta
        model = make_toy_model(toy_vocab, toy_classes, song, artist, beam_size=1)
        session = DynFstSession(model)
        state, _ = session.transition(session.start_state(), "berta")
        assert positions(model, session.beam_of(state))[0] is not None
        assert session.final_weight(state) is None
        assert "final 1" not in session.dump()

    def test_transition_computes_no_final(self, toy_model, monkeypatch):
        calls = self.counting(monkeypatch)
        session = DynFstSession(toy_model, capacity=2)
        self.walk(session)
        self.walk(session, ("_ro", "salie", "_by"))
        assert calls == []

    def test_once_per_asked_state(self, toy_model, monkeypatch):
        calls = self.counting(monkeypatch)
        session = DynFstSession(toy_model)
        states = self.walk(session)
        for state in (states[2], states[4], states[2], states[4], states[2]):
            session.final_weight(state)
        assert calls == [2, 4]

    def test_evicted_state_replays_once(self, toy_model, monkeypatch):
        calls = self.counting(monkeypatch)
        session = DynFstSession(toy_model, capacity=2)
        states = self.walk(session)
        assert states[2] not in session._resident
        before = session.stats.as_dict()
        weight = session.final_weight(states[2])
        after = session.stats.as_dict()
        # the replay from the start state is counted like any other
        assert after["replays"] == before["replays"] + 1
        assert after["replayed_steps"] == before["replayed_steps"] + 2
        assert after["expansions"] == before["expansions"] + 1
        assert calls == [2]
        # remembered: asking again neither replays nor recomputes
        assert session.final_weight(states[2]) == weight
        assert session.stats.as_dict() == after and len(calls) == 1


class TestUnknownStates:
    def walked(self, model):
        session = DynFstSession(model, capacity=2)
        state = session.start_state()
        for sym in ("_play", "_ro"):
            state, _ = session.transition(state, sym)
        return session

    # ids 0-2 exist; an id whose type is not exactly int is none of them
    @pytest.mark.parametrize("unknown", [-1, 3, 1.0, True, 1.5, "1", None])
    def test_unknown_ids_raise_key_error(self, toy_model, unknown):
        session = self.walked(toy_model)
        session.final_weight(1)  # remembered, so no lookup can reach it by 1.0 or True
        for call in (lambda: session.transition(unknown, "_play"),
                     lambda: session.final_weight(unknown),
                     lambda: session.beam_of(unknown),
                     lambda: session.history_of(unknown)):
            with pytest.raises(KeyError, match="unknown state id "):
                call()

    def test_symbol_outside_the_vocabulary_records_nothing(self, toy_model):
        session = self.walked(toy_model)
        dump, stats = session.dump(), session.stats.as_dict()
        # a class label has an engine id, but no arc
        for state in (0, 2):
            for symbol in ("_nowhere", "@song"):
                with pytest.raises(KeyError, match="outside the vocabulary"):
                    session.transition(state, symbol)
        assert session.dump() == dump and session.stats.as_dict() == stats
        assert session.transition(2, "sie")[0] == 3


class TestStateBytes:
    """A state is recorded in flat columns and names its symbols through
    the model, so it holds none of the strings a caller walked with."""

    # about 145 bytes per state here, 295 when each state kept its caller's
    # string and tuples of it
    BOUND = 200

    def test_bytes_per_state_are_bounded(self):
        states, held = session_report(SESSION_SENTENCES)
        assert states > 2000
        assert held < self.BOUND * states, (states, held, held / states)

    def test_history_is_the_models_own_strings(self, toy_model):
        session = DynFstSession(toy_model)
        walked = [fresh(FIG1_SENTENCE), fresh(("_play", "_ro", "salie"))]
        own = {id(sym) for sym in toy_model.vocabulary.symbols}
        assert not own & {id(sym) for sentence in walked for sym in sentence}
        ends = []
        for sentence in walked:
            state = session.start_state()
            for sym in sentence:
                state, _ = session.transition(state, sym)
            ends.append(state)
        for sentence, state in zip(walked, ends):
            history = session.history_of(state)
            assert history == tuple(sentence)
            assert all(id(sym) in own for sym in history)


class TestRecordedWalk:
    """A capacity-2 toy walk with one forced replay, pinned to recorded output."""

    DUMP = (
        "state 0\t<start>\t<start> 0.000000\n"
        "state 1\t_play\t_play -2.469158\n"
        "state 2\t_play _ro\t@song[@song:1] -2.864041 | @artist[@artist:1] -5.115333"
        " | _ro -6.357046\n"
        "state 3\t_play _ro sie\t@song[@song:2] -3.557188 | sie -9.652883\n"
        "state 4\t_play _ro sie _by\t_by -6.563655\n"
        "arc 0\t_play\t2.469158\t1\n"
        "arc 1\t_ro\t0.267658\t2\n"
        "arc 2\tsie\t0.818122\t3\n"
        "arc 3\t_by\t3.008717\t4\n"
        "final 0\t2.469158\n"
        "final 1\t3.887888\n"
        "final 2\t6.916067\n"
        "final 3\t3.008717\n"
        "final 4\t4.548600\n"
    )

    def test_dump_and_stats(self, toy_model):
        session = DynFstSession(toy_model, capacity=2)
        state = session.start_state()
        states = [state]
        for sym in ("_play", "_ro", "sie", "_by"):
            state, _ = session.transition(state, sym)
            states.append(state)
        session.beam_of(states[2])  # evicted by now: one replay of two steps
        assert session.stats.as_dict() == {
            "expansions": 6, "replays": 1, "replayed_steps": 2, "evictions": 4}
        resident = list(session._resident)
        assert session.dump() == self.DUMP
        # the dump replays evicted states without installing or counting them
        assert session.stats.as_dict() == {
            "expansions": 6, "replays": 1, "replayed_steps": 2, "evictions": 4}
        assert list(session._resident) == resident


class TestFig1Boxes:
    BOXES = [
        {("_play",)},
        {("_play", "_ro"), ("_play", "@song"), ("_play", "@artist")},
        {("_play", "_ro", "sie"), ("_play", "@song")},
        {("_play", "_ro", "sie", "_by"), ("_play", "@song", "_by")},
        {("_play", "_ro", "sie", "_by", "_browne"),
         ("_play", "_ro", "sie", "_by", "@artist"),
         ("_play", "@song", "_by", "_browne"),
         ("_play", "@song", "_by", "@artist")},
    ]

    def test_state_beams_match_boxes_under_exact_settings(self, toy_model_exact_beam_full):
        session = DynFstSession(toy_model_exact_beam_full)
        state = session.start_state()
        for sym, want in zip(FIG1_SENTENCE, self.BOXES):
            state, _ = session.transition(state, sym)
            got = set(histories(session.model, session.beam_of(state)))
            assert got == want


class TestDump:
    def test_fig1_dump_contains_boxes(self, toy_model_exact_beam_full):
        session = DynFstSession(toy_model_exact_beam_full)
        state = session.start_state()
        for sym in FIG1_SENTENCE:
            state, _ = session.transition(state, sym)
        dump = session.dump()
        assert "state 0\t<start>" in dump
        assert "_play,@song,_by,@artist" in dump
        assert any(line.startswith("arc 0\t_play") for line in dump.splitlines())
        assert any(line.startswith("final") for line in dump.splitlines())


class TestDeterminism:
    def test_two_sessions_identical_graphs(self):
        rng = random.Random(77)
        model, histories = random_instance(rng)
        walks = [h for h in histories if h]
        a = DynFstSession(model)
        b = DynFstSession(model, capacity=2)
        for walk in walks:
            sa, sb = a.start_state(), b.start_state()
            for sym in walk:
                ra = a.transition(sa, sym)
                rb = b.transition(sb, sym)
                assert (ra is None) == (rb is None)
                if ra is None:
                    break
                assert ra == rb
                sa, sb = ra[0], rb[0]


class TestConcurrency:
    def test_threads_with_own_sessions_match_serial_walk(self):
        """4 threads, each with its own bounded session over one model whose
        caches start empty, give the arcs, fan-outs, final weights and stats
        of a serial walk, also where many contexts share one cache row."""
        def instance():
            model, histories = random_instance(random.Random(77))
            rng = random.Random(3)
            symbols = model.vocabulary.symbols
            # prefixes of the live histories plus random tails: walks share
            # prefixes, so arcs are memoized and evicted beams replayed
            walks = [h[:cut] + tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
                     for h in histories for cut in range(len(h) + 1)]
            return model, walks + shared_key_lists(model)

        def run(model, walks):
            session = DynFstSession(model, capacity=2)
            steps, states = [], []
            for walk in walks:
                state = session.start_state()
                for sym in walk:
                    arc = session.transition(state, sym)
                    steps.append(None if arc is None else (arc[0], arc[1].hex()))
                    if arc is None:
                        break
                    state = arc[0]
                    states.append(state)
                # the fan-out a decoder asks for: it reads the level-0 list too
                fan_out = next_dist(model, session.beam_of(state))
                steps.append([p.hex() for p in fan_out.values()])
                final = session.final_weight(state)
                steps.append(None if final is None else final.hex())
            finals = [session.final_weight(s) for s in states]  # replays evicted beams
            return (steps, [None if f is None else f.hex() for f in finals],
                    session.stats.as_dict())

        serial = run(*instance())
        model, walks = instance()
        model._bg_cache.clear()  # drawing the histories filled them
        model._decider_cache.clear()
        start = threading.Barrier(4, timeout=30)

        def worker(_):
            start.wait()
            return [run(model, walks) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside cache fills too
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(worker, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert serial[2]["evictions"] > 0 and serial[2]["replays"] > 0
        assert len(results) == 4
        assert all(r == serial for rs in results for r in rs)
