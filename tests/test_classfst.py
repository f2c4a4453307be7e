import gc
import math
import random
import re
from array import array
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfclm import (ProbClassFst, build_from_entities, exact_sequence_logprob, load_class_alphabet,
                   load_entities, load_vocabulary, sample, sequence_logprob)
from nfclm.classfst import MAGIC, VERSION
from nfclm.serialization import ByteWriter, SerializationError

from conftest import (TOY_SYMBOLS, entity_pairs, fst_columns, fst_from_dicts, make_toy_model,
                      state_arcs, trie_fst)
from oracle import arc_prob, step, walk

SONG = [(("_ro", "sie"), 1), (("_ro", "salie"), 1)]
ARTIST = [(("_ro", "berta", "_flack"), 1), (("_browne",), 1)]


def entity_probability(fst, symbols):
    """Independent oracle: product of arc probabilities times final exit."""
    state = fst.start
    p = 1.0
    for sym in symbols:
        p *= arc_prob(fst, state, sym)
        state = step(fst, state, sym)
        if state is None:
            return 0.0
    return p * fst.exits[state]


class TestBuildFromEntities:
    def test_song_trie(self):
        fst = build_from_entities("@song", SONG)
        assert fst.num_states == 3  # both leaves are one state
        s1 = step(fst, fst.start, "_ro")
        assert arc_prob(fst, fst.start, "_ro") == 1.0
        assert arc_prob(fst, s1, "sie") == 0.5
        assert arc_prob(fst, s1, "salie") == 0.5
        assert fst.exits[s1] == 0.0
        for leaf_sym in ("sie", "salie"):
            assert fst.exits[step(fst, s1, leaf_sym)] == 1.0

    def test_artist_trie(self):
        fst = build_from_entities("@artist", ARTIST)
        assert arc_prob(fst, fst.start, "_ro") == 0.5
        assert arc_prob(fst, fst.start, "_browne") == 0.5
        state = walk(fst, ("_ro", "berta", "_flack"))
        assert fst.exits[state] == 1.0
        assert fst.exits[walk(fst, ("_browne",))] == 1.0
        # chain probabilities are forced to 1 after the branch point
        assert arc_prob(fst, walk(fst, ("_ro",)), "berta") == 1.0

    def test_single_entity_all_ones(self):
        fst = build_from_entities("@x", [(("a", "b"), 1)])
        assert arc_prob(fst, fst.start, "a") == 1.0
        assert arc_prob(fst, walk(fst, ("a",)), "b") == 1.0
        assert fst.exits[walk(fst, ("a", "b"))] == 1.0

    def test_entity_longer_than_the_recursion_limit(self):
        entity = tuple(f"s{i}" for i in range(1500))
        fst = build_from_entities("@x", [(entity, 1)])
        assert fst.num_states == 1501
        assert fst.exits[walk(fst, entity)] == 1.0

    def test_prefix_entity_gets_fractional_exit(self):
        fst = build_from_entities("@x", [(("a",), 1), (("a", "b"), 1)])
        s = walk(fst, ("a",))
        assert fst.exits[s] == 0.5
        assert arc_prob(fst, s, "b") == 0.5

    def test_counts_weight_arcs(self):
        fst = build_from_entities("@x", [(("a",), 3), (("b",), 1)])
        assert arc_prob(fst, fst.start, "a") == 0.75
        assert arc_prob(fst, fst.start, "b") == 0.25

    def test_duplicates_sum(self):
        fst = build_from_entities("@x", [(("a",), 1), (("a",), 1), (("b",), 1)])
        assert arc_prob(fst, fst.start, "a") == pytest.approx(2 / 3)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty entity list"):
            build_from_entities("@x", [])

    def test_empty_entity_rejected(self):
        with pytest.raises(ValueError, match="empty entity"):
            build_from_entities("@x", [((), 1)])

    def test_string_entity_rejected(self):
        """Symbols given as one string are refused, not split into characters."""
        with pytest.raises(ValueError,
                           match=r"^@x: entity 'ab' is one string, not a sequence of symbols$"):
            build_from_entities("@x", [("ab", 3)])

    def test_nonpositive_count_rejected(self):
        for count in (0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-positive"):
                build_from_entities("@x", [(("a",), count)])
        for count in ("2", True, None, [1]):  # a number's type only, never parsed
            with pytest.raises(ValueError) as info:
                build_from_entities("@x", [(("a",), count)])
            assert str(info.value) == f"@x: entity count {count!r} is not a number"

    def test_count_total_past_float_range_rejected(self):
        """Finite counts whose total overflows are refused by that total,
        not by a zero arc probability found later."""
        with pytest.raises(ValueError, match=r"^@x: entity count total inf is not finite$"):
            build_from_entities("@x", [(("a",), 1e308), (("b",), 1e308)])
        fst = build_from_entities("@x", [(("a",), 8e307), (("b",), 8e307)])
        assert arc_prob(fst, fst.start, "a") == arc_prob(fst, fst.start, "b") == 0.5

    def test_count_vanishing_against_its_node_rejected(self):
        """A positive count whose arc or exit probability rounds to 0.0 is
        refused by the entity or prefix it counts, not by a zero arc or a
        full exit found later, nor built as an entity of probability 0."""
        for entities, message in (
                ([(("a",), 1e308), (("b",), 5e-324)],
                 "entity prefix 'b' count 5e-324 rounds to probability 0.0 against 1e+308"),
                ([(("a",), 1e300), (("a", "b"), 1e-30)],
                 "entity prefix 'a b' count 1e-30 rounds to probability 0.0 against 1e+300"),
                ([(("a",), 5e-324), (("a", "b"), 1e308)],
                 "entity 'a' count 5e-324 rounds to probability 0.0 against 1e+308")):
            with pytest.raises(ValueError, match=f"^@x: {re.escape(message)}$"):
                build_from_entities("@x", entities)

    def test_absorbed_positive_counts_build(self):
        """A count absorbed into its node's weight still builds while its
        probability stays positive."""
        fst = build_from_entities("@x", [(("a",), 1e-20), (("a", "b"), 1.0)])
        a = walk(fst, ("a",))
        assert (fst.exits[a], arc_prob(fst, a, "b")) == (1e-20, 1.0)
        fst = build_from_entities("@x", [(("a",), 1.0), (("a",), 5e-324)])
        assert fst.exits[walk(fst, ("a",))] == 1.0
        assert fst.entity_count == 2


class TestQueries:
    def test_step(self):
        song = build_from_entities("@song", SONG)
        artist = build_from_entities("@artist", ARTIST)
        assert step(song, song.start, "_ro") is not None
        assert step(song, song.start, "_by") is None
        assert step(artist, walk(artist, ("_ro",)), "sie") is None

    def test_absent_arc_prob_is_zero(self):
        song = build_from_entities("@song", SONG)
        assert arc_prob(song, song.start, "sie") == 0.0

    def test_nonfinal_exit_is_zero(self):
        song = build_from_entities("@song", SONG)
        assert song.exits[walk(song, ("_ro",))] == 0.0


entity_lists = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=5)
        .map(tuple),
        st.integers(min_value=1, max_value=5),
    ),
    min_size=1,
    max_size=8,
)


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(entity_lists)
    def test_stochasticity(self, entities):
        fst = build_from_entities("@x", entities)
        for state in range(fst.num_states):
            total = math.fsum(p for p, _ in state_arcs(fst, state).values()) + fst.exits[state]
            assert total == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(entity_lists)
    def test_entity_relative_frequency(self, entities):
        fst = build_from_entities("@x", entities)
        weights = {}
        for symbols, count in entities:
            weights[symbols] = weights.get(symbols, 0) + count
        total = sum(weights.values())
        for symbols, weight in weights.items():
            assert entity_probability(fst, symbols) == pytest.approx(
                weight / total, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(entity_lists, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, entities, rng):
        fst = build_from_entities("@x", entities)
        shuffled = list(entities)
        rng.shuffle(shuffled)
        assert build_from_entities("@x", shuffled).serialize() == fst.serialize()


def suffix_sharing_entities(seed):
    """Entities whose heads share a few tails, some heads alone (prefixes
    of other entities), with counts."""
    rng = random.Random(seed)
    heads = [f"h{i}" for i in range(6)]
    tails = [tuple(f"t{rng.randrange(5)}" for _ in range(rng.randint(1, 3))) for _ in range(4)]
    entities = []
    for _ in range(rng.randint(5, 150)):
        head = tuple(rng.choice(heads) for _ in range(rng.randint(1, 3)))
        tail = rng.choice(tails) if rng.random() < 0.8 else ()
        entities.append((head + tail, rng.choice((1, 1, 1, 2, 3, 0.5))))
    return entities


class TestMinimal:
    """A build is the minimal automaton of its entities' trie, with the trie's bits."""

    @pytest.mark.parametrize("seed", range(30))
    def test_minimal_topological_and_equal_weights(self, seed):
        entities = suffix_sharing_entities(seed)
        fst = build_from_entities("@x", entities)
        trie = trie_fst("@x", entities)
        assert fst.num_states < trie.num_states
        runs = set()
        for state in range(fst.num_states):
            run = range(fst.offsets[state], fst.offsets[state + 1])
            runs.add((fst.exits[state].hex(),
                      tuple((fst.arc_ids[i], fst.probs[i].hex(), fst.dests[i]) for i in run)))
            assert all(fst.dests[i] > state for i in run)
        assert len(runs) == fst.num_states
        for symbols, _ in entities:
            assert entity_probability(fst, symbols).hex() == \
                entity_probability(trie, symbols).hex()

    def test_trie_form_loads_and_scores_with_the_same_bits(self):
        """A bundle packed as a trie, as before states were merged, loads and
        scores every toy sentence with the minimal automaton's bits."""
        vocab, classes = load_vocabulary(TOY_SYMBOLS), load_class_alphabet(["@bg", "@song",
                                                                            "@artist"])
        tries = {label: ProbClassFst.deserialize(trie_fst(label, entities)
                                                 .serialize())
                 for label, entities in (("@song", SONG), ("@artist", ARTIST))}
        assert [tries[label].num_states for label in ("@song", "@artist")] == [4, 5]
        trie_model = make_toy_model(vocab, classes, tries["@song"], tries["@artist"])
        model = make_toy_model(vocab, classes, build_from_entities("@song", SONG),
                               build_from_entities("@artist", ARTIST))
        sentences = {tuple(sample(model, max_length=12, seed=seed)) for seed in range(60)}
        sentences |= {("_play", "_ro", "sie", "_by", "_browne"), *(e for e, _ in SONG + ARTIST)}
        for sentence in sorted(sentences):
            for score in (sequence_logprob, exact_sequence_logprob):
                assert score(trie_model, sentence).hex() == score(model, sentence).hex(), \
                    (score.__name__, sentence)


class TestSerialization:
    def test_roundtrip(self):
        fst = build_from_entities("@song", SONG)
        back = ProbClassFst.deserialize(fst.serialize())
        assert fst_columns(back) == fst_columns(fst)
        assert back.label == fst.label
        assert back.entity_count == fst.entity_count

    def test_corrupted_header(self):
        fst = build_from_entities("@song", SONG)
        data = b"XX" + fst.serialize()[2:]
        with pytest.raises(SerializationError, match="offset 0"):
            ProbClassFst.deserialize(data)

    def test_truncated_payload_reports_offset(self):
        data = build_from_entities("@song", SONG).serialize()[:-3]
        with pytest.raises(SerializationError, match="offset"):
            ProbClassFst.deserialize(data)

    def test_large_roundtrip_bit_exact(self):
        rng = random.Random(7)
        symbols = [f"s{i}" for i in range(40)]
        entities = [
            (tuple(rng.choice(symbols) for _ in range(rng.randint(1, 6))),
             rng.randint(1, 9))
            for _ in range(10_000)
        ]
        fst = build_from_entities("@big", entities)
        back = ProbClassFst.deserialize(fst.serialize())
        for state in range(fst.num_states):
            back_arcs = state_arcs(back, state)
            for sym, (p, dest) in state_arcs(fst, state).items():
                assert back_arcs[sym][0] == p  # bit-exact
                assert back_arcs[sym][1] == dest
            assert back.exits[state] == fst.exits[state]

    def test_text_dump_lines(self):
        fst = build_from_entities("@song", SONG)
        lines = fst.text_dump().splitlines()
        assert "0 _ro 1 1" in lines
        assert any(line.endswith("EXIT 1") for line in lines)

    def test_corruption_fuzz_never_yields_silent_garbage(self):
        rng = random.Random(123)
        fst_bytes = build_from_entities("@song", SONG).serialize()
        for _ in range(200):
            data = bytearray(fst_bytes)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                fst = ProbClassFst.deserialize(bytes(data))
                fst.validate()  # anything that loads must still be sound
            except SerializationError:
                pass


def fst_file(label, symbols, states):
    """A class FST binary over the symbol table ``symbols`` whose states are
    ``(exit, [(symbol, prob, dest), ...])``, each arc written in the order given."""
    w = ByteWriter()
    w.raw(MAGIC)
    w.u16(VERSION)
    w.string(label)
    w.u64(1)
    w.f64(1.0)
    w.u32(len(symbols))
    for symbol in symbols:
        w.string(symbol)
    w.u32(len(states))
    w.column(array("I", accumulate((len(arcs) for _, arcs in states), initial=0)))
    w.column(array("d", [exit_p for exit_p, _ in states]))
    arcs = [arc for _, out in states for arc in out]
    w.column(array("I", [symbols.index(symbol) for symbol, _, _ in arcs]))
    w.column(array("d", [prob for _, prob, _ in arcs]))
    w.column(array("I", [dest for _, _, dest in arcs]))
    return w.getvalue()


def random_entities(seed, count):
    rng = random.Random(seed)
    symbols = [f"s{i}" for i in range(60)]
    return [tuple(rng.choice(symbols) for _ in range(rng.randint(1, 6)))
            for _ in range(count)]


class TestColumns:
    """Automata are flat columns; ``arcs[state]`` builds a dict from one state's run."""

    # the dict form of the @song trie of SONG; state 1 lists its arcs out of
    # symbol order
    SONG_DICTS = [{"_ro": (1.0, 1)}, {"sie": (0.5, 2), "salie": (0.5, 3)}, {}, {}]

    @staticmethod
    def tracked_objects(data):
        """GC-tracked objects that decoding ``data`` leaves alive.

        The collector is off meanwhile: a collection would untrack
        containers of atoms, but until one runs, each collection of the
        young generation walks every container the decoder made.
        """
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            fst = ProbClassFst.deserialize(data)
            count = len(gc.get_objects()) - before
        finally:
            gc.enable()
        del fst
        return count

    def test_tracked_objects_do_not_grow_with_states(self):
        small = build_from_entities("@song", SONG)
        large = build_from_entities("@big", entity_pairs(random_entities(11, 2000)))
        assert large.num_states > 100 * small.num_states
        assert self.tracked_objects(large.serialize()) == \
            self.tracked_objects(small.serialize())

    def test_state_arcs_are_its_dict(self):
        """Each state's run of the columns holds its arcs in symbol order."""
        fst = fst_from_dicts("@song", self.SONG_DICTS, [0.0, 0.0, 1.0, 1.0])
        assert fst.num_states == 4
        for state, want in enumerate(self.SONG_DICTS):
            arcs = state_arcs(fst, state)
            assert arcs == want and list(arcs.items()) == sorted(want.items())
            run = range(fst.offsets[state], fst.offsets[state + 1])
            assert [fst.symbols[fst.arc_ids[i]] for i in run] == list(arcs)
            assert [(fst.probs[i], fst.dests[i]) for i in run] == list(arcs.values())
            assert [fst.ids[sym] for sym in arcs] == list(fst.arc_ids[run.start:run.stop])
        assert [state_arcs(fst, s) for s in range(fst.num_states)] == self.SONG_DICTS
        assert fst.symbols == ("_ro", "salie", "sie")
        with pytest.raises(IndexError):
            state_arcs(fst, 4)

    def test_offsets_of_another_length_rejected(self):
        """``validate`` refuses an offsets column that is not one longer than
        the exits, and an automaton with no state."""
        fst = fst_from_dicts("@song", self.SONG_DICTS, [0.0, 0.0, 1.0, 1.0])
        for offsets, exits in ((fst.offsets[:-1], fst.exits),
                               (fst.offsets + array("I", [3]), fst.exits),
                               (array("I", [0]), array("d"))):
            bad = ProbClassFst("@song", fst.symbols, offsets, exits, fst.arc_ids, fst.probs,
                               fst.dests)
            with pytest.raises(ValueError, match=r"^@song: inconsistent state tables$"):
                bad.validate()

    def test_built_tries_roundtrip_byte_for_byte(self):
        for seed, count in ((1, 1), (2, 50), (3, 2000)):
            fst = build_from_entities("@x", entity_pairs(random_entities(seed, count)))
            data = fst.serialize()
            back = ProbClassFst.deserialize(data)
            assert back.serialize() == data
            assert fst_columns(back) == fst_columns(fst)

    def test_two_arcs_into_one_destination(self):
        fst = ProbClassFst.deserialize(fst_file("@x", ["a", "b"], [
            (0.0, [("a", 0.25, 1), ("b", 0.75, 1)]), (1.0, [])]))
        assert state_arcs(fst, 0) == {"a": (0.25, 1), "b": (0.75, 1)}
        assert step(fst, 0, "a") == step(fst, 0, "b") == 1
        assert (arc_prob(fst, 0, "a"), arc_prob(fst, 0, "b")) == (0.25, 0.75)
        assert walk(fst, ("b",)) == 1 and fst.exits[1] == 1.0

    def test_arcs_out_of_symbol_order(self):
        data = fst_file("@x", ["a", "b", "m", "z"], [
            (0.0, [("z", 0.5, 1), ("a", 0.25, 2), ("m", 0.25, 3)]),
            (0.5, [("b", 0.5, 4)]), (1.0, []), (1.0, []), (1.0, [])])
        with pytest.raises(SerializationError) as info:
            ProbClassFst.deserialize(data)
        assert (info.value.message, info.value.offset) == (
            "invariant violation: @x: arc symbols repeated or out of order at state 0",
            len(data))

    def test_first_failing_state_is_named(self):
        """``validate`` raises the first fault of the first failing state: an
        arc out of symbol order at state 3 before an exit out of range at
        state 5, which a check that read the exits first would meet first."""
        def states(arcs_3):
            return [(0.0, [("a", 1.0, 1)]), (0.0, [("b", 1.0, 2)]), (0.0, [("c", 1.0, 3)]),
                    (0.0, arcs_3), (1.0, []), (1.5, [])]

        for arcs_3, fault in (([("b", 0.5, 4), ("a", 0.5, 5)],
                               "arc symbols repeated or out of order at state 3"),
                              ([("a", 0.5, 5), ("b", 0.5, 4)],
                               "exit probability out of range at state 5")):
            with pytest.raises(SerializationError) as info:
                ProbClassFst.deserialize(fst_file("@x", ["a", "b", "c"], states(arcs_3)))
            assert info.value.message == f"invariant violation: @x: {fault}"


class TestEntityFiles:
    def test_load_with_counts(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("_ro sie\n_ro salie\t3\n", encoding="utf-8")
        entities = load_entities(path)
        assert entities == [(("_ro", "sie"), 1.0), (("_ro", "salie"), 3.0)]

    def test_bad_count(self, tmp_path):
        path = tmp_path / "e.txt"
        for count in ("zero", "nan", "inf", "-inf"):
            path.write_text(f"b\na\t{count}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="bad count") as info:
                load_entities(path)
            assert str(info.value).startswith(f"{path}:2:")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no entities"):
            load_entities(path)
