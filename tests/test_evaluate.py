import dataclasses
import math
import os
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from nfclm import (BOS, EOS, FusionWeights, NBestEntry, bundle, load_class_alphabet,
                   perplexity, rescore_nbest, sequence_logprob, train_ngram)
from nfclm.evaluate import parse_nbest_file
from nfclm.seqmodel import check_sentences

from conftest import (count_tables, entity_pairs, make_toy_model, ngram_from_tables,
                      random_instance, shared_key_lists, uniform_background)

FIG1_SENTENCE = ("_play", "_ro", "sie", "_by", "_browne")


class TestPerplexity:
    def test_uniform_model_identity(self):
        # uniform over 4 symbols incl. EOS mass folded uniformly -> ppl 4
        model = uniform_background(("a", "b", "c", EOS))
        corpus = [("a", "b"), ("c",), ("b", "a", "c")]
        report = perplexity(model, corpus)
        assert report.perplexity == pytest.approx(4.0, abs=1e-6)
        assert report.symbol_count == sum(len(s) + 1 for s in corpus)

    def test_line_order_invariant(self, toy_model):
        corpus = [FIG1_SENTENCE, ("_play",), ("_ro", "sie")]
        a = perplexity(toy_model, corpus).perplexity
        b = perplexity(toy_model, list(reversed(corpus))).perplexity
        assert a == pytest.approx(b, rel=1e-12)

    def test_dead_sentence_flagged(self, toy_vocab, toy_classes, song_fst,
                                   artist_fst):
        # a singleton beam keeps only the in-class reading of _ro, whose
        # automaton cannot continue with _by: the sentence dies under the beam
        model = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst,
                               beam_size=1)
        dead = ("_ro", "_by")
        assert sequence_logprob(model, dead) == -math.inf
        report = perplexity(model, [FIG1_SENTENCE, dead], skip_dead=True)
        assert report.dead_sentences == [1]
        assert report.sentence_count == 1
        with pytest.raises(ValueError, match="probability 0"):
            perplexity(model, [dead])

    def test_sums_sentence_scores_in_corpus_order(self, toy_model):
        # one walk over the corpus keeps the bits of scoring each sentence
        # alone and summing in corpus order
        corpus = [FIG1_SENTENCE, ("_play",), ("_play", "_ro"), FIG1_SENTENCE,
                  ("_ro", "sie"), ("_by", "_browne", "_play")]
        total = 0.0
        for sentence in corpus:
            total += sequence_logprob(toy_model, sentence)
        report = perplexity(toy_model, corpus)
        assert report.total_logprob.hex() == total.hex()
        assert report.symbol_count == sum(len(s) + 1 for s in corpus)

    def test_one_shot_corpus(self, toy_model):
        """A generator is read once and scores as the list it yields, on the
        full model and on a plain n-gram."""
        corpus = [FIG1_SENTENCE, ("_play",), ("_ro", "sie")]
        for model in (toy_model, toy_model.background):
            assert perplexity(model, (s for s in corpus)) == perplexity(model, corpus)

    def test_corpus_checked_once(self, toy_model, monkeypatch):
        """One ``check_sentences`` pass per call, on the full model and on a
        plain n-gram, with the scores of ``sequence_logprobs``."""
        from nfclm import engine, evaluate, sequence_logprobs
        corpus = [FIG1_SENTENCE, ("_play",), ("_ro", "sie")]
        expected = sum(sequence_logprobs(toy_model, corpus), 0.0).hex()
        passes = []

        def counted(name, sentences):
            passes.append(name)
            return check_sentences(name, sentences)

        for module in (engine, evaluate):
            monkeypatch.setattr(module, "check_sentences", counted)
        for model in (toy_model, toy_model.background):
            passes.clear()
            perplexity(model, corpus)
            assert passes == ["corpus sentence"]
        assert perplexity(toy_model, corpus).total_logprob.hex() == expected

    def test_empty_corpus_rejected(self, toy_model):
        with pytest.raises(ValueError):
            perplexity(toy_model, [])

    def test_other_scorer_rejected(self):
        with pytest.raises(TypeError, match=r"^cannot score with object$"):
            perplexity(object(), [("a",)])


class TestRescore:
    def entries(self):
        return [
            NBestEntry("utt1", asr_score=-3.0, ilm_score=-4.0,
                       tokens=("_play", "_ro", "sie")),
            NBestEntry("utt1", asr_score=-3.5, ilm_score=-4.5,
                       tokens=("_play", "_browne")),
            NBestEntry("utt1", asr_score=-6.0, ilm_score=-5.0,
                       tokens=("_by", "_by")),
        ]

    def test_zero_weights_keep_asr_order(self, toy_model):
        out = rescore_nbest(toy_model, self.entries(), FusionWeights(0.0, 0.0))
        assert [r.original_rank for r in out] == [0, 1, 2]
        assert [r.fused_score for r in out] == [-3.0, -3.5, -6.0]

    def test_fused_scores_hand_arithmetic(self, toy_model):
        entries = self.entries()
        weights = FusionWeights(lm_weight=0.7, ilm_weight=0.2)
        out = rescore_nbest(toy_model, entries, weights)
        by_rank = {r.original_rank: r for r in out}
        for i, entry in enumerate(entries):
            lm = sequence_logprob(toy_model, entry.tokens)
            want = entry.asr_score + 0.7 * lm - 0.2 * entry.ilm_score
            assert by_rank[i].fused_score == pytest.approx(want, rel=1e-12)

    def test_lm_crossover(self, toy_model):
        # entry B has better LM score; find the weight where it overtakes
        a = NBestEntry("u", -2.0, 0.0, ("_by", "_by", "_by"))
        b = NBestEntry("u", -2.5, 0.0, ("_play", "_ro", "sie"))
        lm_a = sequence_logprob(toy_model, a.tokens)
        lm_b = sequence_logprob(toy_model, b.tokens)
        assert lm_b > lm_a
        crossover = (a.asr_score - b.asr_score) / (lm_b - lm_a)
        below = rescore_nbest(toy_model, [a, b], FusionWeights(crossover * 0.9, 0.0))
        above = rescore_nbest(toy_model, [a, b], FusionWeights(crossover * 1.1, 0.0))
        assert below[0].entry is a
        assert above[0].entry is b

    def test_constant_asr_shift_keeps_ranking(self, toy_model):
        weights = FusionWeights(0.5, 0.1)
        base = rescore_nbest(toy_model, self.entries(), weights)
        shifted_entries = [
            NBestEntry(e.utterance_id, e.asr_score + 10.0, e.ilm_score, e.tokens)
            for e in self.entries()
        ]
        shifted = rescore_nbest(toy_model, shifted_entries, weights)
        assert [r.original_rank for r in base] == [r.original_rank for r in shifted]

    def test_untokenizable_ranked_last_with_flag(self, toy_model):
        entries = self.entries() + [
            NBestEntry("utt1", asr_score=99.0, ilm_score=0.0, tokens=("zzz",))
        ]
        out = rescore_nbest(toy_model, entries, FusionWeights(0.0, 0.0))
        assert out[-1].failed
        assert out[-1].entry.tokens == ("zzz",)

    def test_lm_weight_monotonicity(self, toy_model):
        # equal ASR and ILM scores: the best-LM entry's rank never drops
        # as the LM weight grows
        entries = [
            NBestEntry("u", -2.0, -1.0, ("_by", "_by", "_by")),
            NBestEntry("u", -2.0, -1.0, ("_play", "_ro", "sie")),
            NBestEntry("u", -2.0, -1.0, ("_browne", "_flack")),
        ]
        lm = [sequence_logprob(toy_model, e.tokens) for e in entries]
        best = max(range(3), key=lambda i: lm[i])
        last_rank = None
        for lam in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]:
            out = rescore_nbest(toy_model, entries, FusionWeights(lam, 0.7))
            rank = [r.original_rank for r in out].index(best)
            if last_rank is not None:
                assert rank <= last_rank
            last_rank = rank
        assert last_rank == 0

    def test_ties_broken_by_original_rank(self, toy_model):
        entries = [
            NBestEntry("u", -1.0, 0.0, ("_play",)),
            NBestEntry("u", -1.0, 0.0, ("_play",)),
        ]
        out = rescore_nbest(toy_model, entries, FusionWeights(0.3, 0.0))
        assert [r.original_rank for r in out] == [0, 1]

    def test_shared_walk_keeps_ranks_ties_and_flags(self, toy_vocab, toy_classes,
                                                    song_fst, artist_fst):
        # shared prefixes, a duplicate (a tie), a dead hypothesis and OOV
        # hypotheses mixed in; each entry keeps the score it gets alone
        model = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst,
                               beam_size=1)
        texts = ["_play _ro sie", "_play zzz", "_play _ro sie _by _browne",
                 "_play _ro sie", "_ro _by", "_play _ro", "qq _play", "_ro _by _play",
                 "_play"]
        entries = [NBestEntry("u", -1.0 - 0.5 * (i % 3), -0.5, tuple(t.split()))
                   for i, t in enumerate(texts)]
        weights = FusionWeights(0.8, 0.3)
        out = rescore_nbest(model, entries, weights)
        by_rank = {r.original_rank: r for r in out}
        assert sorted(by_rank) == list(range(len(entries)))
        for rank, entry in enumerate(entries):
            r = by_rank[rank]
            assert r.entry is entry
            oov = any(tok not in model.vocabulary for tok in entry.tokens)
            lm = -math.inf if oov else sequence_logprob(model, entry.tokens)
            assert r.lm_logprob.hex() == lm.hex()
            assert r.failed == (lm == -math.inf)
        assert by_rank[1].failed and by_rank[6].failed
        # the singleton beam keeps only the in-class reading of _ro, which
        # cannot continue with _by; the list below it dies with it
        assert by_rank[4].failed and by_rank[7].failed
        assert by_rank[5].failed  # nor stop inside the song span
        scored = [r for r in out if not r.failed]
        flagged = [r for r in out if r.failed]
        assert out == scored + flagged
        assert [r.original_rank for r in flagged] == [1, 4, 5, 6, 7]
        keys = [(-r.fused_score, r.original_rank) for r in scored]
        assert keys == sorted(keys)
        assert by_rank[0].fused_score == by_rank[3].fused_score
        assert out.index(by_rank[0]) + 1 == out.index(by_rank[3])

    def test_empty_list_rejected(self, toy_model):
        with pytest.raises(ValueError):
            rescore_nbest(toy_model, [], FusionWeights(0.0, 0.0))

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            FusionWeights(-0.1, 0.0)
        with pytest.raises(ValueError):
            FusionWeights(0.0, math.inf)


class TestConcurrency:
    def test_threads_match_serial_scoring(self):
        """4 threads scoring one model from empty caches give the serial bits,
        also where many contexts share one cache row."""
        def jobs(rng):
            model, histories = random_instance(random.Random(77))
            symbols = model.vocabulary.symbols
            lists = [h[:cut] + tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
                     for h in histories for cut in range(len(h) + 1)]
            lists += shared_key_lists(model)
            nbest = [NBestEntry("u", -rng.random(), -rng.random(), t) for t in lists]
            return model, lists, nbest

        def run(model, lists, nbest):
            ranked = rescore_nbest(model, nbest, FusionWeights(0.6, 0.2))
            return ([(r.original_rank, r.lm_logprob.hex(), r.fused_score.hex(), r.failed)
                     for r in ranked],
                    [sequence_logprob(model, t).hex() for t in reversed(lists)])

        model, lists, nbest = jobs(random.Random(3))
        serial = run(model, lists, nbest)
        model, lists, nbest = jobs(random.Random(3))
        model._bg_cache.clear()
        model._decider_cache.clear()
        start = threading.Barrier(4, timeout=30)

        def worker(_):
            start.wait()
            return [run(model, lists, nbest) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside cache fills too
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(worker, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4
        assert all(r == serial for rs in results for r in rs)


class TestNBestFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "nbest.tsv"
        path.write_text("utt1\t-3.0\t-4.0\t_play _ro sie\n"
                        "utt2\t-1.5\t-2.5\t_browne\n", encoding="utf-8")
        entries = parse_nbest_file(path)
        assert entries[0].tokens == ("_play", "_ro", "sie")

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "nbest.tsv"
        path.write_text("utt1\t-3.0\t_play\n", encoding="utf-8")
        with pytest.raises(ValueError, match="4 tab-separated"):
            parse_nbest_file(path)

    def test_format_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "nbest.tsv"
        path.write_text("utt1\t-3.0\t-4.0\t_play\n\nutt2\t-3.0\t_play\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: expected 4"):
            parse_nbest_file(path)
        path.write_text("utt1\tnan\t-4.0\t_play\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: utt1: scores"):
            parse_nbest_file(path)

    def test_lines_without_a_file_name_their_line(self):
        with pytest.raises(ValueError, match="^<n-best>:2: expected 4"):
            parse_nbest_file(["utt1\t-3.0\t-4.0\t_play", "utt2\t_play"])


class TestBundle:
    def test_pack_load_same_scores(self, toy_vocab, toy_classes, song_fst,
                                   artist_fst, tmp_path):
        # a trained background, so that scores depend on the history
        from nfclm import NfclmModel, train_decider
        background = train_ngram([FIG1_SENTENCE, ("_ro", "sie")], toy_vocab, order=2)
        decider = train_decider([("_play", "@song", "_by", "@artist")],
                                toy_vocab, toy_classes, order=2)
        model = NfclmModel(
            vocabulary=toy_vocab, classes=toy_classes, background=background,
            class_fsts={"@song": song_fst, "@artist": artist_fst},
            decider=decider, beam_size=50, beam_delta=25.0)
        report = bundle.pack(model, tmp_path / "bundle")
        assert sorted(report) == ["@artist.fst", "@song.fst", "background.bin",
                                  "decider.bin", "manifest.json"]
        assert sorted(report) == sorted(os.listdir(tmp_path / "bundle"))
        for name, size in report.items():
            assert size == os.path.getsize(tmp_path / "bundle" / name)
        loaded = bundle.load(tmp_path / "bundle")
        assert loaded.beam_size == 50 and loaded.beam_delta == 25.0
        for sentence in (FIG1_SENTENCE, ("_ro", "salie"), ("_browne",)):
            assert sequence_logprob(loaded, sentence) == \
                sequence_logprob(model, sentence)

    def test_missing_component(self, toy_vocab, toy_classes, song_fst,
                               artist_fst, tmp_path):
        from nfclm import NfclmModel, train_decider
        background = train_ngram([FIG1_SENTENCE], toy_vocab, order=2)
        decider = train_decider([("_play", "@song")], toy_vocab, toy_classes, order=2)
        model = NfclmModel(
            vocabulary=toy_vocab, classes=toy_classes, background=background,
            class_fsts={"@song": song_fst, "@artist": artist_fst}, decider=decider)
        bundle.pack(model, tmp_path / "b")
        (tmp_path / "b" / "@song.fst").unlink()
        with pytest.raises(bundle.BundleError, match="missing component"):
            bundle.load(tmp_path / "b")

    def test_corrupt_component_names_file(self, toy_vocab, toy_classes, song_fst,
                                          artist_fst, tmp_path, capsys):
        from nfclm import NfclmModel, train_decider
        from nfclm.cli import main
        from nfclm.serialization import SerializationError
        background = train_ngram([FIG1_SENTENCE], toy_vocab, order=2)
        decider = train_decider([("_play", "@song")], toy_vocab, toy_classes, order=2)
        model = NfclmModel(
            vocabulary=toy_vocab, classes=toy_classes, background=background,
            class_fsts={"@song": song_fst, "@artist": artist_fst}, decider=decider)
        bundle.pack(model, tmp_path / "b")
        path = tmp_path / "b" / "background.bin"
        whole = path.read_bytes()
        path.write_bytes(whole[:-3])
        with pytest.raises(SerializationError) as info:
            bundle.load(tmp_path / "b")
        assert str(info.value).startswith(f"{path}: unexpected end of data")
        # the cut column, the last level's counts, each as wide as the model
        # holds it, is named at the start of its values
        n_counts = sum(map(len, count_tables(background)[-1].values()))
        assert info.value.offset == len(whole) - background.levels[-1].counts.itemsize * n_counts
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("_play _ro sie\n", encoding="utf-8")
        assert main(["ppl", "--bundle", str(tmp_path / "b"), "--corpus", str(corpus)]) == 1
        assert capsys.readouterr().err.startswith(f"nfclm: error: {path}: ")

    @pytest.mark.parametrize("component,lost", [
        ("background", "<s>"), ("background", "_ro"), ("decider", "<s>"),
        ("decider", "_ro"), ("decider", "@song")])
    def test_history_alphabet_checked_at_load(self, toy_vocab, toy_classes, song_fst,
                                              artist_fst, tmp_path, capsys, component,
                                              lost):
        """A component binary whose history alphabet lacks a symbol fails the load."""
        from nfclm import BackoffNGram, DeciderModel, NfclmModel, train_decider
        from nfclm.cli import main
        background = train_ngram([FIG1_SENTENCE], toy_vocab, order=2)
        decider = train_decider([("_play", "@song")], toy_vocab, toy_classes, order=2)
        model = NfclmModel(
            vocabulary=toy_vocab, classes=toy_classes, background=background,
            class_fsts={"@song": song_fst, "@artist": artist_fst}, decider=decider)
        bundle.pack(model, tmp_path / "b")

        def without(ngram):
            # the same columns over a history alphabet that has lost one symbol
            return BackoffNGram(ngram.discount, ngram.symbols, ngram.alphabet,
                                ngram.history_alphabet - {lost}, ngram.levels)

        if component == "background":
            data = without(background).serialize()
        else:
            data = DeciderModel(without(decider.ngram), decider.prior,
                                alpha=decider.alpha).serialize()
        path = tmp_path / "b" / f"{component}.bin"
        path.write_bytes(data)
        message = f"{path}: {component} history alphabet lacks {lost!r}"
        if component == "decider":  # checked against the background's vocabulary
            message += f" (vocabulary from {tmp_path / 'b' / 'background.bin'})"
        with pytest.raises(bundle.BundleError) as info:
            bundle.load(tmp_path / "b")
        assert str(info.value) == message
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("_play _ro sie\n", encoding="utf-8")
        assert main(["score", "--bundle", str(tmp_path / "b"), "--corpus", str(corpus)]) == 1
        assert capsys.readouterr() == ("", f"nfclm: error: {message}\n")

    def test_mislabeled_fst_names_its_file(self, toy_vocab, toy_classes, song_fst,
                                           artist_fst, tmp_path):
        from nfclm import NfclmModel, train_decider
        background = train_ngram([FIG1_SENTENCE], toy_vocab, order=2)
        decider = train_decider([("_play", "@song")], toy_vocab, toy_classes, order=2)
        model = NfclmModel(
            vocabulary=toy_vocab, classes=toy_classes, background=background,
            class_fsts={"@song": song_fst, "@artist": artist_fst}, decider=decider)
        bundle.pack(model, tmp_path / "b")
        path = tmp_path / "b" / "@song.fst"
        path.write_bytes((tmp_path / "b" / "@artist.fst").read_bytes())
        with pytest.raises(bundle.BundleError) as info:
            bundle.load(tmp_path / "b")
        assert str(info.value) == f"{path}: FST labeled '@artist' registered under '@song'"

    def test_fst_outside_vocabulary_names_its_file(self, toy_vocab, toy_classes, song_fst,
                                                   artist_fst, tmp_path):
        from nfclm import NfclmModel, build_from_entities, train_decider
        background = train_ngram([FIG1_SENTENCE], toy_vocab, order=2)
        decider = train_decider([("_play", "@song")], toy_vocab, toy_classes, order=2)
        model = NfclmModel(
            vocabulary=toy_vocab, classes=toy_classes, background=background,
            class_fsts={"@song": song_fst, "@artist": artist_fst}, decider=decider)
        bundle.pack(model, tmp_path / "b")
        path = tmp_path / "b" / "@song.fst"
        # the start state's arcs read '_ro' then 'zz'; the symbol table '_ro', 'aa', 'zz'
        fst = build_from_entities("@song", entity_pairs([("_ro", "aa"), ("zz",)]))
        path.write_bytes(fst.serialize())
        with pytest.raises(bundle.BundleError) as info:
            bundle.load(tmp_path / "b")
        assert str(info.value) == (f"{path}: @song: arc symbol 'aa' is outside the vocabulary "
                                   f"(vocabulary from {tmp_path / 'b' / 'background.bin'})")

    def test_decider_of_other_classes_names_its_file(self, toy_vocab, toy_classes, song_fst,
                                                     artist_fst, tmp_path):
        """The decider's classes are the class alphabet: a decider of fewer
        classes loads without the other classes' FSTs, and a decider class
        that has no FST names its missing file."""
        from nfclm import NfclmModel, train_decider
        from nfclm.engine import ComponentError
        background = train_ngram([FIG1_SENTENCE], toy_vocab, order=2)
        decider = train_decider([("_play", "@song")], toy_vocab, toy_classes, order=2)
        model = NfclmModel(
            vocabulary=toy_vocab, classes=toy_classes, background=background,
            class_fsts={"@song": song_fst, "@artist": artist_fst}, decider=decider)
        bundle.pack(model, tmp_path / "b")
        other = train_decider([("_play", "@song")], toy_vocab,
                              load_class_alphabet(["@bg", "@song"]), order=2)
        message = "decider classes do not match the class alphabet"
        with pytest.raises(ComponentError, match=f"^{message}$") as info:
            NfclmModel(vocabulary=toy_vocab, classes=toy_classes, background=background,
                       class_fsts={"@song": song_fst, "@artist": artist_fst}, decider=other)
        assert info.value.component == "decider"
        path = tmp_path / "b" / "decider.bin"
        path.write_bytes(other.serialize())
        loaded = bundle.load(tmp_path / "b")
        assert loaded.classes.labels == ("@bg", "@song") and list(loaded.class_fsts) == ["@song"]
        more = train_decider([("_play", "@song"), ("_by", "@album")], toy_vocab,
                             load_class_alphabet(["@bg", "@song", "@artist", "@album"]), order=2)
        path.write_bytes(more.serialize())
        with pytest.raises(bundle.BundleError) as info:
            bundle.load(tmp_path / "b")
        assert str(info.value) == f"{tmp_path / 'b' / '@album.fst'}: missing component file"

    def test_background_of_another_vocabulary_names_its_file(self, toy_vocab, toy_classes,
                                                             song_fst, artist_fst, tmp_path):
        """The vocabulary is the background's predicted alphabet less EOS, so
        a background that predicts no EOS fits no vocabulary and is named."""
        from nfclm import NfclmModel, train_decider
        from nfclm.engine import ComponentError
        fsts = {"@song": song_fst, "@artist": artist_fst}
        decider = train_decider([("_play", "@song")], toy_vocab, toy_classes, order=2)
        other = ngram_from_tables(0.5, toy_vocab.symbols, toy_vocab.symbols + (BOS,), [{}])
        message = "background model must predict the vocabulary plus EOS"
        with pytest.raises(ComponentError, match=f"^{message}$") as info:
            NfclmModel(vocabulary=toy_vocab, classes=toy_classes, background=other,
                       class_fsts=fsts, decider=decider)
        assert info.value.component == "background"
        model = NfclmModel(
            vocabulary=toy_vocab, classes=toy_classes, decider=decider, class_fsts=fsts,
            background=train_ngram([FIG1_SENTENCE], toy_vocab, order=2))
        directory = tmp_path / "b"
        bundle.pack(model, directory)
        path = directory / "background.bin"
        path.write_bytes(other.serialize())
        with pytest.raises(bundle.BundleError) as info:
            bundle.assemble(path, directory / "decider.bin",
                            {label: directory / f"{label}.fst" for label in fsts},
                            beam_size=model.beam_size, beam_delta=model.beam_delta, alpha=None)
        assert str(info.value) == f"{path}: {message}"
        with pytest.raises(bundle.BundleError) as info:
            bundle.load(directory)
        assert str(info.value) == f"{path}: {message}"

    def test_pack_refuses_a_background_that_is_no_ngram(self, toy_model, tmp_path):
        from nfclm import ConditionalSymbolModel

        class Forwarding(ConditionalSymbolModel):
            alphabet = toy_model.background.alphabet
            distribution = toy_model.background.distribution

        model = dataclasses.replace(toy_model, background=Forwarding())
        with pytest.raises(bundle.BundleError, match=r"^only n-gram background models can be "
                                                     r"packed, got Forwarding$"):
            bundle.pack(model, tmp_path / "b")
        assert not (tmp_path / "b").exists()

    def test_manifest_unreadable_or_of_another_format(self, tmp_path):
        d = tmp_path / "b"
        d.mkdir()
        path = d / "manifest.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(bundle.BundleError,
                           match=f"^{re.escape(str(path))}: unreadable manifest: Expecting "):
            bundle.load(d)
        for manifest in ('{"format": "other-bundle", "version": 1}', '[]'):
            path.write_text(manifest, encoding="utf-8")
            with pytest.raises(bundle.BundleError) as info:
                bundle.load(d)
            assert str(info.value) == f"not a model bundle: {path}"

    def test_manifest_with_byte_order_mark_scores_as_without(self, toy_model, tmp_path,
                                                             capsys):
        from nfclm.cli import main
        bundle.pack(toy_model, tmp_path / "b")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("_play _ro sie\n_by _browne\n", encoding="utf-8")

        def scores():
            model = bundle.load(tmp_path / "b")
            assert main(["score", "--bundle", str(tmp_path / "b"), "--corpus", str(corpus)]) == 0
            return ([sequence_logprob(model, s).hex() for s in (FIG1_SENTENCE, ("_by",))],
                    capsys.readouterr())

        plain = scores()
        path = tmp_path / "b" / "manifest.json"
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert scores() == plain

    def test_version_mismatch(self, tmp_path):
        import json
        d = tmp_path / "b"
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps(
            {"format": "nfclm-bundle", "version": 99}), encoding="utf-8")
        with pytest.raises(bundle.BundleError, match="version"):
            bundle.load(d)

    def test_manifest_missing_key(self, toy_vocab, toy_classes, song_fst,
                                  artist_fst, tmp_path):
        """A manifest without a beam setting is named; alpha may be left out,
        which keeps the decider's."""
        import json
        from nfclm import NfclmModel, train_decider
        background = train_ngram([FIG1_SENTENCE], toy_vocab, order=2)
        decider = train_decider([("_play", "@song")], toy_vocab, toy_classes, order=2)
        model = NfclmModel(
            vocabulary=toy_vocab, classes=toy_classes, background=background,
            class_fsts={"@song": song_fst, "@artist": artist_fst}, decider=decider)
        bundle.pack(model, tmp_path / "b")
        path = tmp_path / "b" / "manifest.json"
        good = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(good) == ["alpha", "beam_delta", "beam_size", "format", "version"]
        for key in ("beam_size", "beam_delta", "alpha"):
            manifest = {name: value for name, value in good.items() if name != key}
            path.write_text(json.dumps(manifest), encoding="utf-8")
            if key == "alpha":
                assert bundle.load(tmp_path / "b").decider.alpha == decider.alpha
                continue
            with pytest.raises(bundle.BundleError) as info:
                bundle.load(tmp_path / "b")
            assert str(info.value).startswith(f"{path}: manifest {key!r} must be ")

    @pytest.mark.parametrize("key,value", [
        ("beam_size", "100"), ("beam_size", 0), ("beam_delta", -1.0),
        ("beam_delta", "30"), ("alpha", -1.0), ("alpha", "1")])
    def test_manifest_bad_beam_setting(self, toy_vocab, toy_classes, song_fst,
                                       artist_fst, tmp_path, capsys, key, value):
        import json
        from nfclm import NfclmModel, train_decider
        from nfclm.cli import main
        background = train_ngram([FIG1_SENTENCE], toy_vocab, order=2)
        decider = train_decider([("_play", "@song")], toy_vocab, toy_classes, order=2)
        model = NfclmModel(
            vocabulary=toy_vocab, classes=toy_classes, background=background,
            class_fsts={"@song": song_fst, "@artist": artist_fst}, decider=decider)
        bundle.pack(model, tmp_path / "b")
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest[key] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(bundle.BundleError) as info:
            bundle.load(tmp_path / "b")
        assert str(info.value).startswith(f"{path}: manifest {key!r} must be ")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("_play _ro sie\n", encoding="utf-8")
        assert main(["score", "--bundle", str(tmp_path / "b"), "--corpus", str(corpus)]) == 1
        assert capsys.readouterr().err.startswith(f"nfclm: error: {path}: manifest {key!r}")

    @pytest.mark.parametrize("made", [False, True], ids=["no directory", "directory made"])
    def test_label_that_is_no_file_name_is_refused_before_writing(self, toy_vocab, tmp_path,
                                                                  made):
        """A class label whose FST file would lie outside the bundle's
        directory is refused by name before anything is written, also where
        that file's directory exists and writing it would succeed."""
        from nfclm import NfclmModel, build_from_entities, train_decider
        classes = load_class_alphabet(["@bg", "@x/y"])
        model = NfclmModel(
            vocabulary=toy_vocab, classes=classes,
            background=train_ngram([FIG1_SENTENCE], toy_vocab, order=2),
            class_fsts={"@x/y": build_from_entities("@x/y", [(("_ro", "sie"), 1)])},
            decider=train_decider([("_play", "@x/y")], toy_vocab, classes, order=2))
        directory = tmp_path / "b"
        if made:
            (directory / "@x").mkdir(parents=True)
        with pytest.raises(bundle.BundleError) as info:
            bundle.pack(model, directory)
        assert str(info.value) == ("class label '@x/y' cannot be packed: its FST file "
                                   "'@x/y.fst' is not a file name")
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == \
            (["b", "b/@x"] if made else [])

    def test_repack_touches_only_edited_class(self, toy_vocab, toy_classes,
                                              song_fst, artist_fst, tmp_path):
        from nfclm import NfclmModel, build_from_entities, train_decider
        background = train_ngram([FIG1_SENTENCE], toy_vocab, order=2)
        decider = train_decider([("_play", "@song")], toy_vocab, toy_classes, order=2)

        def build(song):
            return NfclmModel(
                vocabulary=toy_vocab, classes=toy_classes, background=background,
                class_fsts={"@song": song, "@artist": artist_fst}, decider=decider)

        bundle.pack(build(song_fst), tmp_path / "a")
        edited = build_from_entities("@song", entity_pairs([("_ro", "sie"), ("salie",)]))
        bundle.pack(build(edited), tmp_path / "b")
        changed = []
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            a_bytes = (tmp_path / "a" / name).read_bytes()
            b_bytes = (tmp_path / "b" / name).read_bytes()
            if a_bytes != b_bytes:
                changed.append(name)
        assert changed == ["@song.fst"]
