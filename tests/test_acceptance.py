"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import random
import statistics
import time

import pytest

from nfclm import (DynFstSession, NfclmModel,
                   build_from_entities, extend, load_class_alphabet,
                   load_vocabulary, mix_corpora, next_dist, perplexity,
                   rescore_nbest, sequence_logprob, start_beam, train_decider,
                   train_ngram)
from nfclm import DeadHistoryError, FusionWeights, NBestEntry, advance, bundle
from nfclm.cfg import CfgGrammar, expand, expand_tagged
from nfclm.seqmodel import _scale_by_prior

from conftest import (READINGS, assert_beam_matches_oracle, entity_pairs, keyed,
                      make_toy_model, random_instance, state_arcs)
from oracle import exact_alignment_histories, exact_next_dist

FIG1_SENTENCE = ("_play", "_ro", "sie", "_by", "_browne")

FIG1_BOXES = [
    {("_play",)},
    {("_play", "_ro"), ("_play", "@song"), ("_play", "@artist")},
    {("_play", "_ro", "sie"), ("_play", "@song")},
    {("_play", "_ro", "sie", "_by"), ("_play", "@song", "_by")},
    {("_play", "_ro", "sie", "_by", "_browne"),
     ("_play", "_ro", "sie", "_by", "@artist"),
     ("_play", "@song", "_by", "_browne"),
     ("_play", "@song", "_by", "@artist")},
]


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_substituted_criteria():
    # Reported WER numbers need a production ASR stack and proprietary
    # test sets; the toolkit is exercised through the property-based and
    # directional criteria below instead.
    report(1, "WER reproduction out of scope; substituted criteria 2-10 apply")


def test_criterion_02_fig1_reproduction(toy_vocab, toy_classes, song_fst,
                                        artist_fst):
    started = time.perf_counter()
    model = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)
    for k, want in enumerate(FIG1_BOXES, start=1):
        got = exact_alignment_histories(model, FIG1_SENTENCE[:k])
        assert got == want, f"prefix of length {k}"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(2, f"five expansion boxes incl. all four final alignments "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_03_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20260809)
    pairs = 0
    for _ in range(200):
        model, histories = random_instance(rng)
        assert model.beam_size == 10 ** 4 and model.beam_delta == 1e9
        for history in histories:
            try:
                exact = exact_next_dist(model, history)
            except DeadHistoryError:
                with pytest.raises(DeadHistoryError):
                    advance(model, history)
                continue
            beamed = next_dist(model, advance(model, history))
            for sym, p in exact.items():
                if p == 0.0:
                    assert beamed[sym] == 0.0, (history, sym)
                else:
                    assert abs(math.log(beamed[sym]) - math.log(p)) <= 1e-9, \
                        (history, sym)
            pairs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(3, f"beam (N=1e4, delta=1e9) == exact on 200 instances / "
              f"{pairs} histories ({elapsed:.1f} s)")


@pytest.mark.parametrize("reading", READINGS)
def test_criterion_03_oracle_equivalence_by_merge(reading):
    """Criterion 3 merging on the decider's context and on whole decider
    histories, on instances of its own."""
    started = time.perf_counter()
    rng = random.Random(20261018)
    pairs = 0
    for _ in range(200):
        model, histories = random_instance(rng)
        model = reading(model, histories)
        pairs += sum(assert_beam_matches_oracle(model, history) for history in histories)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(3, f"{reading.__name__} histories: beam (N=1e4, delta=1e9) == exact on 200 "
              f"instances / {pairs} histories ({elapsed:.1f} s)")


def test_criterion_04_normalization_suite():
    rng = random.Random(31337)
    pairs = 0
    while pairs < 500:
        model, histories = random_instance(rng)
        for label, fst in model.class_fsts.items():
            for state in range(fst.num_states):
                mass = math.fsum(p for p, _ in state_arcs(fst, state).values()) \
                    + fst.exits[state]
                assert abs(mass - 1.0) <= 1e-9, (label, state)
        for history in histories:
            if pairs >= 500:
                break
            try:
                exact = exact_next_dist(model, history)
            except DeadHistoryError:
                continue
            assert math.fsum(exact.values()) == pytest.approx(1.0, abs=1e-9)
            beamed = next_dist(model, advance(model, history))
            assert math.fsum(beamed.values()) == pytest.approx(1.0, abs=1e-9)
            pairs += 1
    report(4, f"sum P(w|h) = 1 +/- 1e-9 on {pairs} (model, history) pairs, "
              f"exact and beam; all FST states stochastic")


def test_criterion_05_chain_and_memoization():
    rng = random.Random(4242)
    sequences = 0
    while sequences < 100:
        model, histories = random_instance(rng)
        session = DynFstSession(model)
        for history in histories:
            if not history or sequences >= 100:
                continue
            # incremental pass
            beam = start_beam(model)
            steps = []
            for sym in history:
                beam, lp = extend(model, beam, sym)
                steps.append(lp)
            # from-scratch recomputation of every prefix, bit-for-bit
            for k in range(1, len(history) + 1):
                fresh = start_beam(model)
                for sym in history[:k]:
                    fresh, lp = extend(model, fresh, sym)
                assert lp == steps[k - 1]
            # dynamic-FST path weight + final weight == -sequence_logprob
            lp_total = sequence_logprob(model, history)
            state = session.start_state()
            path = 0.0
            for sym in history:
                state, weight = session.transition(state, sym)
                path += weight
            final = session.final_weight(state)
            if final is None:
                assert lp_total == -math.inf
            else:
                assert path + final == pytest.approx(-lp_total, abs=1e-9)
            sequences += 1
    report(5, f"incremental == from-scratch bit-for-bit and FST path weights "
              f"match -sequence_logprob on {sequences} sequences")


def _synthetic_setup(seed=20260401):
    """Toy background corpus (~50k symbols) plus a 3-class grammar."""
    rng = random.Random(seed)
    common = [f"_g{i}" for i in range(30)]
    triggers = ["_play", "_tune", "_find", "_by", "_on"]
    entity_pieces = [f"_e{i}" for i in range(40)] + [f"x{i}" for i in range(30)]
    vocab = load_vocabulary(common + triggers + entity_pieces)
    classes = load_class_alphabet(["@bg", "@song", "@artist", "@station"])

    def background_sentence():
        # drifting index walk gives the n-gram real bigram structure
        i = rng.randrange(len(common))
        out = []
        for _ in range(rng.randint(6, 12)):
            out.append(common[i])
            i = (i + rng.choice((1, 1, 2, 3))) % len(common)
        return tuple(out)

    bg_train = [background_sentence() for _ in range(6000)]
    bg_heldout = [background_sentence() for _ in range(400)]

    entities = {}
    for label in ("@song", "@artist", "@station"):
        pool = []
        for _ in range(120):
            length = rng.randint(2, 4)
            pool.append(tuple(rng.choice(entity_pieces) for _ in range(length)))
        entities[label] = sorted(set(pool))
    patterns = [
        ("_play", "@song"),
        ("_play", "@song", "_by", "@artist"),
        ("_tune", "_on", "@station"),
        ("_find", "@artist"),
        ("_play", "@artist", "_on", "@station"),
    ]
    grammar = CfgGrammar(
        patterns=[tuple(p) for p in patterns],
        entities={label: [(e, 1.0) for e in pool]
                  for label, pool in entities.items()},
    )
    return vocab, classes, bg_train, bg_heldout, grammar


def test_criterion_06_directional_perplexity():
    started = time.perf_counter()
    vocab, classes, bg_train, bg_heldout, grammar = _synthetic_setup()
    assert sum(len(s) for s in bg_train) >= 50_000
    assert all(len(v) >= 100 for v in grammar.entities.values())

    background = train_ngram(bg_train, vocab, order=3)
    tagged = expand_tagged(grammar, 4000, seed=5)
    mixed = mix_corpora([list(s) for s in bg_train[:600]], tagged, 0.1, seed=6,
                        size=4000)
    decider = train_decider(mixed, vocab, classes, order=3)
    fsts = {label: build_from_entities(label, pool)
            for label, pool in grammar.entities.items()}
    model = NfclmModel(vocabulary=vocab, classes=classes, background=background,
                       class_fsts=fsts, decider=decider)

    entity_heldout = expand(grammar, 300, seed=77)
    ent_full = perplexity(model, entity_heldout).perplexity
    ent_bg = perplexity(background, entity_heldout).perplexity
    assert ent_full < ent_bg, (ent_full, ent_bg)
    reduction = 1.0 - ent_full / ent_bg

    gen_full = perplexity(model, bg_heldout).perplexity
    gen_bg = perplexity(background, bg_heldout).perplexity
    degradation = gen_full / gen_bg - 1.0
    assert degradation <= 0.10, f"background degradation {degradation:.3%}"

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report(6, f"entity-set perplexity {ent_full:.1f} vs background-only "
              f"{ent_bg:.1f} ({reduction:.1%} reduction); background-set "
              f"degradation {degradation:.2%} (<= 10%); {elapsed:.0f} s")


def test_criterion_07_compactness(tmp_path, toy_vocab, toy_classes, song_fst,
                                  artist_fst):
    rng = random.Random(99)
    symbols = [f"s{i}" for i in range(200)]
    sizes = []
    totals = []
    for n_entities in (100, 200, 300, 400, 500):
        entities = [
            tuple(rng.choice(symbols) for _ in range(4))
            for _ in range(n_entities)
        ]
        fst = build_from_entities("@probe", entity_pairs(entities))
        totals.append(sum(len(e) for e in entities))
        sizes.append(len(fst.serialize()))
    slope, intercept = statistics.linear_regression(totals, sizes)
    residuals = [y - (slope * x + intercept) for x, y in zip(totals, sizes)]
    r_squared = 1.0 - statistics.pvariance(residuals) / statistics.pvariance(sizes)
    assert r_squared >= 0.99, r_squared

    # repacking after editing one class changes only that component
    from nfclm import train_decider as _td
    background = train_ngram([FIG1_SENTENCE], toy_vocab, order=2)
    decider = _td([("_play", "@song")], toy_vocab, toy_classes, order=2)

    def assemble(song):
        return NfclmModel(vocabulary=toy_vocab, classes=toy_classes,
                          background=background,
                          class_fsts={"@song": song, "@artist": artist_fst},
                          decider=decider)

    bundle.pack(assemble(song_fst), tmp_path / "a")
    edited = build_from_entities("@song", entity_pairs([("_ro", "sie"), ("salie",)]))
    bundle.pack(assemble(edited), tmp_path / "b")
    changed = [
        p.name for p in sorted((tmp_path / "a").iterdir())
        if p.read_bytes() != (tmp_path / "b" / p.name).read_bytes()
    ]
    assert changed == ["@song.fst"]
    report(7, f"serialized size linear in entity symbols (R^2={r_squared:.4f}); "
              f"editing one class rewrites only its component")


def test_criterion_08_prior_renormalization():
    raw = {"@bg": 0.90, "@song": 0.06, "@artist": 0.04}
    prior = {"@bg": 0.90, "@song": 0.05, "@artist": 0.05}
    out = keyed(_scale_by_prior, raw, prior, 1.0)
    # hand arithmetic: ratios 1.0, 1.2, 0.8 over a 3.0 total
    assert out["@bg"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert out["@song"] == pytest.approx(1.2 / 3.0, abs=1e-12)
    assert out["@artist"] == pytest.approx(0.8 / 3.0, abs=1e-12)
    assert max(out, key=out.get) == "@song"
    assert max(raw, key=raw.get) == "@bg"
    report(8, "alpha=1 renormalization moves the argmax off @bg exactly when "
              "class likelihood beats the prior ratio (hand arithmetic)")


def test_criterion_09_pipeline_determinism(tmp_path, capsys):
    from test_cli import build_bundle, run, TOY_SYMBOLS

    def build(root):
        root.mkdir()
        (root / "vocab.txt").write_text("\n".join(TOY_SYMBOLS) + "\n",
                                        encoding="utf-8")
        (root / "classes.txt").write_text("@bg\n@song\n@artist\n",
                                          encoding="utf-8")
        (root / "patterns.txt").write_text(
            "_play @song _by @artist\n_play @song\n", encoding="utf-8")
        entity_dir = root / "entities"
        entity_dir.mkdir()
        (entity_dir / "@song.txt").write_text("_ro sie\n_ro salie\n",
                                              encoding="utf-8")
        (entity_dir / "@artist.txt").write_text("_ro berta _flack\n_browne\n",
                                                encoding="utf-8")
        (root / "background.txt").write_text(
            "_play _by\n_ro sie _by\n_play _play _ro\n_by _browne\n",
            encoding="utf-8")
        bundle_dir = build_bundle(root, capsys, seed=13)
        (root / "probe.txt").write_text("_play _ro sie\n_by _browne\n",
                                        encoding="utf-8")
        code, ppl_out, err = run(["ppl", "--bundle", bundle_dir, "--corpus",
                                  root / "probe.txt"], capsys)
        assert code == 0, err
        (root / "nbest.tsv").write_text(
            "u1\t-2.0\t-1.0\t_by _by\nu1\t-2.5\t-1.0\t_play _ro sie\n",
            encoding="utf-8")
        code, rescore_out, err = run(["rescore", "--bundle", bundle_dir,
                                      "--nbest", root / "nbest.tsv",
                                      "--lm-weight", 1.5], capsys)
        assert code == 0, err
        files = {p.name: p.read_bytes() for p in bundle_dir.iterdir()}
        return files, ppl_out, rescore_out

    first = build(tmp_path / "run1")
    second = build(tmp_path / "run2")
    assert first == second
    report(9, "expand-cfg -> mix(10/90) -> train -> build-fst -> pack -> "
              "ppl/rescore: exit 0 and byte-identical outputs under fixed seeds")


def test_criterion_10_rescoring_crossover(toy_vocab, toy_classes, song_fst,
                                          artist_fst):
    model = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)
    correct = NBestEntry("utt", asr_score=-4.0, ilm_score=-1.0,
                         tokens=("_play", "_ro", "sie"))
    wrong = NBestEntry("utt", asr_score=-3.0, ilm_score=-1.0,
                       tokens=("_play", "_by", "_by"))
    filler = NBestEntry("utt", asr_score=-8.0, ilm_score=-1.0,
                        tokens=("_browne",))
    entries = [wrong, correct, filler]
    lm = {e.tokens: sequence_logprob(model, e.tokens) for e in entries}
    assert lm[correct.tokens] > lm[wrong.tokens]
    # ILM scores are equal so they cancel in the comparison
    crossover = (wrong.asr_score - correct.asr_score) / \
        (lm[correct.tokens] - lm[wrong.tokens])
    step = 0.1
    grid = [round(i * step, 10) for i in range(21)]
    flipped_at = None
    for lam in grid:
        ranked = rescore_nbest(model, entries, FusionWeights(lam, 0.3))
        if ranked[0].entry is correct:
            flipped_at = lam
            break
    assert flipped_at is not None, "correct hypothesis never reached rank 1"
    predicted = math.ceil(crossover / step) * step
    assert abs(flipped_at - predicted) <= step + 1e-9, (flipped_at, predicted)
    report(10, f"lambda sweep flips the entity-correct hypothesis at "
               f"{flipped_at:.1f} vs hand-computed crossover {crossover:.3f}")
