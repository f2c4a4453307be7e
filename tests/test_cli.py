import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nfclm
from nfclm import (BOS, EOS, advance, bundle as bundle_mod, next_dist, perplexity,
                   rescore_nbest, sequence_logprob)
from nfclm.cli import _fmt, build_parser, main
from nfclm.engine import EXACT_BEAM_SIZE
from nfclm.evaluate import FusionWeights, parse_nbest_file

from conftest import ARTIST_ENTITIES, SONG_ENTITIES, TOY_SYMBOLS
from oracle import exact_sequence_logprob

# 14 tokens: past the exact oracle's 12-symbol limit
LONG_SENTENCE = "_play _ro sie _by _browne _play _ro salie _by _ro berta _flack _by _browne"
# ``dump-dynfst --exact`` of the toy bundle, per sentence, as printed at
# 35d21d4, by the engine's mode that kept whole decider histories
DUMP_EXACT_FILE = Path(__file__).parent / "data" / "dump_exact.json"


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "vocab.txt").write_text("\n".join(TOY_SYMBOLS) + "\n", encoding="utf-8")
    (tmp_path / "classes.txt").write_text("@bg\n@song\n@artist\n", encoding="utf-8")
    (tmp_path / "patterns.txt").write_text(
        "_play @song _by @artist\n_play @song\n", encoding="utf-8")
    entity_dir = tmp_path / "entities"
    entity_dir.mkdir()
    (entity_dir / "@song.txt").write_text(
        "\n".join(" ".join(e) for e in SONG_ENTITIES) + "\n", encoding="utf-8")
    (entity_dir / "@artist.txt").write_text(
        "\n".join(" ".join(e) for e in ARTIST_ENTITIES) + "\n", encoding="utf-8")
    (tmp_path / "background.txt").write_text(
        "_play _by\n_ro sie _by\n_play _play _ro\n_by _browne\n", encoding="utf-8")
    return tmp_path


def run(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def build_bundle(ws, capsys, seed=7):
    code, _, err = run(["expand-cfg", "--patterns", ws / "patterns.txt",
                        "--entity-dir", ws / "entities", "--vocab", ws / "vocab.txt",
                        "--classes", ws / "classes.txt", "-n", 50,
                        "--tagged", "--seed", seed, "--out", ws / "tagged.txt"], capsys)
    assert code == 0, err
    code, _, err = run(["mix", "--background", ws / "background.txt",
                        "--cfg", ws / "tagged.txt", "--fraction", 0.1,
                        "--size", 60, "--seed", seed, "--out", ws / "mixed.txt"],
                       capsys)
    assert code == 0, err
    code, _, err = run(["train-bglm", "--corpus", ws / "background.txt",
                        "--vocab", ws / "vocab.txt", "--order", 2,
                        "--out", ws / "bg.bin"], capsys)
    assert code == 0, err
    code, _, err = run(["train-decider", "--corpus", ws / "mixed.txt",
                        "--vocab", ws / "vocab.txt", "--classes", ws / "classes.txt",
                        "--order", 2, "--out", ws / "decider.bin"], capsys)
    assert code == 0, err
    for label in ("@song", "@artist"):
        code, _, err = run(["build-fst", "--class-label", label,
                            "--entities", ws / "entities" / f"{label}.txt",
                            "--out", ws / f"{label}.fst"], capsys)
        assert code == 0, err
    code, _, err = run(["pack", "--vocab", ws / "vocab.txt",
                        "--classes", ws / "classes.txt", "--bglm", ws / "bg.bin",
                        "--decider", ws / "decider.bin",
                        "--fst", f"@song={ws / '@song.fst'}",
                        "--fst", f"@artist={ws / '@artist.fst'}",
                        "--out-dir", ws / "bundle"], capsys)
    assert code == 0, err
    return ws / "bundle"


class TestPipeline:
    def test_end_to_end(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        assert (bundle / "manifest.json").exists()

        (workspace / "test.txt").write_text("_play _ro sie\n_by _browne\n",
                                            encoding="utf-8")
        code, out, err = run(["ppl", "--bundle", bundle,
                              "--corpus", workspace / "test.txt"], capsys)
        assert code == 0, err
        fields = dict(line.split("\t", 1) for line in out.splitlines())
        assert float(fields["perplexity"]) > 1.0
        assert fields["dead"] == "0"

        code, out, err = run(["score", "--bundle", bundle,
                              "--corpus", workspace / "test.txt"], capsys)
        assert code == 0, err
        assert len(out.splitlines()) == 2
        assert all(float(line.split("\t")[0]) < 0 for line in out.splitlines())

    def test_next_distribution_sums_to_one(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        code, out, err = run(["next", "--bundle", bundle,
                              "--history", "_play _ro"], capsys)
        assert code == 0, err
        probs = [float(line.split("\t")[1]) for line in out.splitlines()]
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_next_exact_matches_beam_on_small_history(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        _, beam_out, _ = run(["next", "--bundle", bundle, "--history", "_play"],
                             capsys)
        _, exact_out, _ = run(["next", "--bundle", bundle, "--history", "_play",
                               "--exact"], capsys)
        beam = {l.split("\t")[0]: float(l.split("\t")[1])
                for l in beam_out.splitlines()}
        exact = {l.split("\t")[0]: float(l.split("\t")[1])
                 for l in exact_out.splitlines()}
        for sym, p in exact.items():
            assert beam[sym] == pytest.approx(p, abs=1e-9)

    def test_ppl_exact_equals_wide_beam(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        (workspace / "probe.txt").write_text("_play _ro sie\n", encoding="utf-8")
        _, exact_out, _ = run(["ppl", "--bundle", bundle, "--corpus",
                               workspace / "probe.txt", "--exact"], capsys)
        _, beam_out, _ = run(["ppl", "--bundle", bundle, "--corpus",
                              workspace / "probe.txt", "--beam-n", 10_000,
                              "--beam-delta", 1e9], capsys)
        exact = float(dict(l.split("\t", 1) for l in exact_out.splitlines())["perplexity"])
        beam = float(dict(l.split("\t", 1) for l in beam_out.splitlines())["perplexity"])
        assert beam == pytest.approx(exact, rel=1e-9)

    def test_rescore_output(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        (workspace / "nbest.tsv").write_text(
            "utt1\t-2.0\t-1.0\t_by _by\n"
            "utt1\t-2.5\t-1.0\t_play _ro sie\n", encoding="utf-8")
        code, out, err = run(["rescore", "--bundle", bundle,
                              "--nbest", workspace / "nbest.tsv",
                              "--lm-weight", 2.0], capsys)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0].startswith("1\tutt1")
        assert len(lines) == 2

    def test_rescore_ranks_within_each_utterance(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        (workspace / "nbest.tsv").write_text(
            "utt1\t-2.0\t-1.0\t_by _by\n"
            "utt2\t-1.0\t-1.0\t_play _ro sie\n"
            "utt1\t-2.5\t-1.0\t_play _ro sie\n"
            "utt2\t-3.0\t-1.0\t_by _browne\n", encoding="utf-8")
        code, out, err = run(["rescore", "--bundle", bundle,
                              "--nbest", workspace / "nbest.tsv",
                              "--lm-weight", 2.0], capsys)
        assert code == 0, err
        rows = [line.split("\t") for line in out.splitlines()]
        assert [(r[0], r[1]) for r in rows] == [
            ("1", "utt1"), ("2", "utt1"), ("1", "utt2"), ("2", "utt2")]
        for utt in ("utt1", "utt2"):
            fused = [float(r[2]) for r in rows if r[1] == utt]
            assert fused == sorted(fused, reverse=True)

    def test_sample_deterministic(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        _, a, _ = run(["sample", "--bundle", bundle, "-n", 3, "--seed", 11], capsys)
        _, b, _ = run(["sample", "--bundle", bundle, "-n", 3, "--seed", 11], capsys)
        assert a == b

    def test_default_seed_is_zero(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        mix = ["mix", "--background", workspace / "background.txt",
               "--cfg", workspace / "tagged.txt", "--fraction", 0.5]
        for args in (["sample", "--bundle", bundle, "-n", 3], mix):
            unseeded, seeded = run(args, capsys), run(args + ["--seed", 0], capsys)
            assert unseeded[0] == 0, unseeded[2]
            assert unseeded == seeded

    def test_dump_dynfst_shows_fig1_labels(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        code, out, err = run(["dump-dynfst", "--bundle", bundle,
                              "--sentence", "_play _ro sie _by _browne",
                              "--exact"], capsys)
        assert code == 0, err
        for label in ("_play", "_play,@song", "_play,@artist", "_play,_ro",
                      "_play,_ro,sie", "_play,@song,_by",
                      "_play,_ro,sie,_by,@artist", "_play,@song,_by,_browne",
                      "_play,@song,_by,@artist", "_play,_ro,sie,_by,_browne"):
            assert label in out

    def test_build_fst_text_dump(self, workspace, capsys):
        """``--text-dump`` writes each arc as ``state symbol probability
        destination`` and each exiting state as ``state EXIT probability``."""
        for label, states, dump in (
                ("@song", 3, ["0 _ro 1 1", "1 salie 0.5 2", "1 sie 0.5 2", "2 EXIT 1"]),
                ("@artist", 4, ["0 _browne 0.5 3", "0 _ro 0.5 1", "1 berta 1 2",
                                "2 _flack 1 3", "3 EXIT 1"])):
            code, out, err = run(["build-fst", "--class-label", label,
                                  "--entities", workspace / "entities" / f"{label}.txt",
                                  "--out", workspace / f"{label}.fst",
                                  "--text-dump", workspace / f"{label}.dump"], capsys)
            assert (code, out, err) == (0, f"{label}\tstates\t{states}\tentities\t2\n", "")
            assert (workspace / f"{label}.dump").read_text(encoding="utf-8") == \
                "\n".join(dump) + "\n"

    def test_ppl_background_only(self, workspace, capsys):
        """``--background-only`` reports the background n-gram's chain rule,
        EOS counted per sentence, not the full model's."""
        bundle = build_bundle(workspace, capsys)
        corpus = workspace / "test.txt"
        corpus.write_text("_play _ro sie\n_by _browne\n", encoding="utf-8")
        code, out, err = run(["ppl", "--bundle", bundle, "--corpus", corpus,
                              "--background-only"], capsys)
        assert (code, err) == (0, "")
        assert out == ("perplexity\t4.64761867921\nlogprob\t-10.754484835\n"
                       "symbols\t7\nsentences\t2\ndead\t0\n")
        background = bundle_mod.load(bundle).background
        size = background.context_size
        total = 0.0
        for sentence in (("_play", "_ro", "sie"), ("_by", "_browne")):
            seq = (BOS,) * size + sentence + (EOS,)
            for i in range(size, len(seq)):
                total += background.logprob(seq[i], seq[i - size:i])
        assert _fmt(total) == "-10.754484835"
        _, full, _ = run(["ppl", "--bundle", bundle, "--corpus", corpus], capsys)
        assert full.splitlines()[0] != out.splitlines()[0]

    def test_expand_cfg_fills_the_tagged_patterns(self, workspace, capsys):
        """Untagged, each sentence is the tagged one under the same seed with
        each class token replaced by one of its class's entities."""
        entities = {"@song": SONG_ENTITIES, "@artist": ARTIST_ENTITIES}

        def fills(pattern, sentence):
            if not pattern:
                return not sentence
            return any(sentence[:len(entity)] == entity
                       and fills(pattern[1:], sentence[len(entity):])
                       for entity in entities.get(pattern[0], [(pattern[0],)]))

        args = ["expand-cfg", "--patterns", workspace / "patterns.txt",
                "--entity-dir", workspace / "entities", "--vocab", workspace / "vocab.txt",
                "--classes", workspace / "classes.txt", "-n", 8, "--seed", 7]
        code, plain, err = run(args, capsys)
        assert (code, err) == (0, "")
        assert plain.splitlines()[:5] == [
            "_play _ro sie", "_play _ro sie", "_play _ro sie _by _browne",
            "_play _ro sie _by _ro berta _flack", "_play _ro salie _by _browne"]
        code, tagged, err = run(args + ["--tagged"], capsys)
        assert (code, err) == (0, "")
        pairs = list(zip(tagged.splitlines(), plain.splitlines(), strict=True))
        assert len(pairs) == 8
        for pattern, sentence in pairs:
            assert fills(tuple(pattern.split()), tuple(sentence.split())), (pattern, sentence)


def unpruned(bundle):
    """The bundle as ``--exact`` loads it: every alignment kept."""
    return bundle_mod.load(bundle, beam_size=EXACT_BEAM_SIZE, beam_delta=math.inf)


class TestExact:
    """``--exact`` keeps every alignment, at any length."""

    def test_score(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        sentences = [LONG_SENTENCE, "_play _ro sie", "_by _browne"]
        (workspace / "long.txt").write_text("\n".join(sentences) + "\n", encoding="utf-8")
        code, out, err = run(["score", "--bundle", bundle, "--corpus",
                              workspace / "long.txt", "--exact"], capsys)
        assert code == 0, err
        model = unpruned(bundle)
        assert out == "".join(f"{_fmt(sequence_logprob(model, s.split()))}\t{s}\n"
                              for s in sentences)

    def test_ppl(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        (workspace / "long.txt").write_text(LONG_SENTENCE + "\n", encoding="utf-8")
        code, out, err = run(["ppl", "--bundle", bundle, "--corpus",
                              workspace / "long.txt", "--exact"], capsys)
        assert code == 0, err
        report = perplexity(unpruned(bundle), [LONG_SENTENCE.split()])
        fields = dict(line.split("\t", 1) for line in out.splitlines())
        assert fields["perplexity"] == _fmt(report.perplexity)
        assert fields["logprob"] == _fmt(report.total_logprob)
        assert fields["symbols"] == "15"

    def test_rescore(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        lines = [f"utt1\t-2.0\t-1.0\t{LONG_SENTENCE}", "utt1\t-2.5\t-1.0\t_play _ro sie"]
        (workspace / "nbest.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(["rescore", "--bundle", bundle, "--nbest",
                              workspace / "nbest.tsv", "--lm-weight", 2.0, "--exact"],
                             capsys)
        assert code == 0, err
        ranked = rescore_nbest(unpruned(bundle), parse_nbest_file(lines),
                               FusionWeights(lm_weight=2.0))
        rows = [line.split("\t") for line in out.splitlines()]
        assert [(r[2], r[4], r[6], r[7]) for r in rows] == [
            (_fmt(r.fused_score), _fmt(r.lm_logprob), "ok", " ".join(r.entry.tokens))
            for r in ranked]

    def test_next(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        code, out, err = run(["next", "--bundle", bundle, "--history", LONG_SENTENCE,
                              "--exact"], capsys)
        assert code == 0, err
        model = unpruned(bundle)
        dist = next_dist(model, advance(model, LONG_SENTENCE.split()))
        assert dict(line.split("\t") for line in out.splitlines()) == \
            {sym: _fmt(p) for sym, p in dist.items()}

    def test_dump_dynfst_prints_the_recorded_bytes(self, workspace, capsys):
        """Every alignment of each sentence, each with its whole decider
        history: the bytes recorded in ``dump_exact.json``."""
        bundle = build_bundle(workspace, capsys)
        recorded = json.loads(DUMP_EXACT_FILE.read_text(encoding="utf-8"))
        assert list(recorded) == ["_play _ro sie _by _browne", LONG_SENTENCE]
        for sentence, dump in recorded.items():
            printed = run(["dump-dynfst", "--bundle", bundle, "--sentence", sentence,
                           "--exact"], capsys)
            assert printed == (0, dump, "")

    def test_score_equals_oracle_within_its_limit(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        sentences = ["_play", "_play _ro sie", "_ro berta _flack _by _browne",
                     " ".join(LONG_SENTENCE.split()[:12])]
        (workspace / "short.txt").write_text("\n".join(sentences) + "\n", encoding="utf-8")
        code, out, err = run(["score", "--bundle", bundle, "--corpus",
                              workspace / "short.txt", "--exact"], capsys)
        assert code == 0, err
        printed = [line.split("\t")[0] for line in out.splitlines()]
        loaded, model = bundle_mod.load(bundle), unpruned(bundle)
        for sentence, field in zip(sentences, printed):
            lp = sequence_logprob(model, sentence.split())
            assert field == _fmt(lp)
            assert lp == pytest.approx(exact_sequence_logprob(loaded, sentence.split()),
                                       rel=1e-12)

    @pytest.mark.parametrize("override", [["--beam-n", 5], ["--beam-delta", 10.0]])
    @pytest.mark.parametrize("command", [
        ["score", "--corpus", "c.txt"], ["ppl", "--corpus", "c.txt"], ["next"],
        ["rescore", "--nbest", "n.tsv"], ["dump-dynfst", "--sentence", "_play"]])
    def test_beam_overrides_are_refused(self, tmp_path, capsys, command, override):
        """``--exact`` would drop a beam override, so the pair is an error."""
        code, out, err = run([*command, "--bundle", tmp_path / "none", "--exact", *override],
                             capsys)
        assert (code, out) == (1, "")
        assert err.startswith("nfclm: error: --exact") and override[0] in err


class TestFailures:
    def test_bad_bundle_dir(self, tmp_path, capsys):
        code, _, err = run(["ppl", "--bundle", tmp_path / "nope",
                            "--corpus", tmp_path / "nope.txt"], capsys)
        assert code == 1
        assert "error" in err

    def test_bad_entity_file(self, workspace, capsys):
        (workspace / "bad.txt").write_text("a\t-1\n", encoding="utf-8")
        code, _, err = run(["build-fst", "--class-label", "@x",
                            "--entities", workspace / "bad.txt",
                            "--out", workspace / "x.fst"], capsys)
        assert code == 1
        assert "non-positive" in err

    def test_entity_count_total_past_float_range(self, workspace, capsys):
        (workspace / "big.txt").write_text("a\t1e308\nb\t1e308\n", encoding="utf-8")
        code, out, err = run(["build-fst", "--class-label", "@x",
                              "--entities", workspace / "big.txt",
                              "--out", workspace / "x.fst"], capsys)
        assert (code, out) == (1, "")
        assert err == "nfclm: error: @x: entity count total inf is not finite\n"
        assert not (workspace / "x.fst").exists()

    def test_entity_count_vanishing_against_its_prefix(self, workspace, capsys):
        (workspace / "tiny.txt").write_text("a\t1e308\nb\t5e-324\n", encoding="utf-8")
        code, out, err = run(["build-fst", "--class-label", "@x",
                              "--entities", workspace / "tiny.txt",
                              "--out", workspace / "x.fst"], capsys)
        assert (code, out) == (1, "")
        assert err == ("nfclm: error: @x: entity prefix 'b' count 5e-324 rounds to "
                       "probability 0.0 against 1e+308\n")
        assert not (workspace / "x.fst").exists()

    def test_pack_class_without_fst_rejected(self, workspace, capsys):
        build_bundle(workspace, capsys)
        code, _, err = run(["pack", "--vocab", workspace / "vocab.txt",
                            "--classes", workspace / "classes.txt",
                            "--bglm", workspace / "bg.bin",
                            "--decider", workspace / "decider.bin",
                            "--fst", f"@song={workspace / '@song.fst'}",
                            "--out-dir", workspace / "partial"], capsys)
        assert code == 1
        assert "do not match class alphabet" in err

    def test_pack_repeated_fst_label_rejected(self, workspace, capsys):
        build_bundle(workspace, capsys)
        code, out, err = run(["pack", "--vocab", workspace / "vocab.txt",
                              "--classes", workspace / "classes.txt",
                              "--bglm", workspace / "bg.bin",
                              "--decider", workspace / "decider.bin",
                              "--fst", f"@song={workspace / '@song.fst'}",
                              "--fst", f"@artist={workspace / '@artist.fst'}",
                              "--fst", f"@song={workspace / '@artist.fst'}",
                              "--out-dir", workspace / "twice"], capsys)
        assert code == 1 and out == ""
        assert err == "nfclm: error: --fst gives class '@song' twice\n"
        assert not (workspace / "twice").exists()

    def test_pack_fst_without_path_rejected(self, workspace, capsys):
        build_bundle(workspace, capsys)
        code, out, err = run(["pack", "--vocab", workspace / "vocab.txt",
                              "--classes", workspace / "classes.txt",
                              "--bglm", workspace / "bg.bin",
                              "--decider", workspace / "decider.bin",
                              "--fst", "@song", "--out-dir", workspace / "none"], capsys)
        assert (code, out) == (1, "")
        assert err == "nfclm: error: --fst expects label=path, got '@song'\n"
        assert not (workspace / "none").exists()

    @pytest.mark.parametrize("flags,name", [
        (["--beam-n", 0], "beam_size"), (["--beam-n", -2], "beam_size"),
        (["--beam-delta", -1], "beam_delta"), (["--beam-delta", "nan"], "beam_delta")])
    def test_bad_beam_flag_rejected(self, workspace, capsys, flags, name):
        bundle = build_bundle(workspace, capsys)
        (workspace / "test.txt").write_text("_play _ro sie\n", encoding="utf-8")
        code, out, err = run(["score", "--bundle", bundle, "--corpus",
                              workspace / "test.txt", *flags], capsys)
        assert code == 1 and out == ""
        # named by its flag, with the model's rule for the setting
        assert err.startswith(f"nfclm: error: {flags[0]} must be "
                              f"{nfclm.NfclmModel.RULES[name].text}, got ")
        assert "manifest.json" not in err

    @pytest.mark.parametrize("command,value", [
        ("score", "nan"), ("score", "inf"), ("score", "-1"), ("pack", "nan")])
    def test_bad_alpha_flag_rejected(self, workspace, capsys, command, value):
        """``--alpha`` is checked by the decider's rule: no traceback, no NaN score."""
        bundle = build_bundle(workspace, capsys)
        (workspace / "test.txt").write_text("_play _ro sie\n", encoding="utf-8")
        inputs = {
            "score": ["--bundle", bundle, "--corpus", workspace / "test.txt"],
            "pack": ["--vocab", workspace / "vocab.txt", "--classes", workspace / "classes.txt",
                     "--bglm", workspace / "bg.bin", "--decider", workspace / "decider.bin",
                     "--fst", f"@song={workspace / '@song.fst'}",
                     "--fst", f"@artist={workspace / '@artist.fst'}",
                     "--out-dir", workspace / "x"]}
        code, out, err = run([command, *inputs[command], "--alpha", value], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("nfclm: error: ") and err.count("\n") == 1
        assert f"alpha must be a finite number >= 0, got {float(value)!r}" in err
        assert not (workspace / "x").exists()

    @pytest.mark.parametrize("command", ["score", "ppl", "train-bglm", "train-decider"])
    def test_corpus_symbol_outside_alphabet_names_line(self, workspace, capsys, command):
        bundle = build_bundle(workspace, capsys)
        corpus = workspace / "bad.txt"
        corpus.write_text("_play @song\n\n_play zzz\n", encoding="utf-8")
        inputs = {"score": ["--bundle", bundle], "ppl": ["--bundle", bundle],
                  "train-bglm": ["--vocab", workspace / "vocab.txt", "--out", workspace / "x"],
                  "train-decider": ["--vocab", workspace / "vocab.txt", "--classes",
                                    workspace / "classes.txt", "--out", workspace / "x"]}
        code, out, err = run([command, "--corpus", corpus, *inputs[command]], capsys)
        # class tokens belong only to the decider's corpus
        bad = ("3: unknown symbol 'zzz'" if command == "train-decider"
               else "1: unknown symbol '@song'")
        assert (code, out, err) == (1, "", f"nfclm: error: {corpus}:{bad}\n")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_dead_sentence_named_by_file_line(self, workspace, capsys, monkeypatch,
                                              source):
        """A dead sentence is named by its line in the input, blank lines counted."""
        import io
        bundle = build_bundle(workspace, capsys)
        text = "_play _ro sie\n\n_play _ro\n_by _browne\n"
        corpus = workspace / "dead.txt"
        corpus.write_text(text, encoding="utf-8")
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        name, arg = (str(corpus), corpus) if source == "file" else ("<stdin>", "-")
        # a singleton beam keeps only the in-class reading of _ro, which
        # cannot end a sentence
        flags = ["ppl", "--bundle", bundle, "--beam-n", 1, "--corpus", arg]
        code, out, err = run(flags, capsys)
        assert (code, out) == (1, "")
        assert err == (f"nfclm: error: {name}:3: sentence has probability 0; "
                       "pass --skip-dead to exclude it\n")
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run([*flags, "--skip-dead"], capsys)
        assert code == 0, err
        fields = [line.split("\t") for line in out.splitlines()]
        assert ["dead", "1"] in fields and ["sentences", "2"] in fields
        assert [f for f in fields if f[0] == "dead-line"] == [["dead-line", "3"]]

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("command", ["train-bglm", "train-decider"])
    def test_empty_training_corpus_is_named(self, workspace, capsys, monkeypatch, command,
                                            source):
        """A training corpus of blank lines is an error about the whole
        corpus, which starts with its name."""
        import io
        text = "\n  \n"
        corpus = workspace / "blank.txt"
        corpus.write_text(text, encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        name, arg = (str(corpus), corpus) if source == "file" else ("<stdin>", "-")
        inputs = {"train-bglm": ["--vocab", workspace / "vocab.txt"],
                  "train-decider": ["--vocab", workspace / "vocab.txt",
                                    "--classes", workspace / "classes.txt"]}
        code, out, err = run([command, "--corpus", arg, *inputs[command],
                              "--out", workspace / "x"], capsys)
        assert (code, out, err) == (1, "", f"nfclm: error: {name}: empty training corpus\n")
        assert not (workspace / "x").exists()

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("text, flags", [("\n  \n", []),
                                             ("_play _ro\n", ["--beam-n", 1, "--skip-dead"])])
    def test_ppl_with_nothing_to_score_is_named(self, workspace, capsys, monkeypatch, text,
                                                flags, source):
        """A corpus of blank lines, or of sentences ``--skip-dead`` skips
        every one of, is an error about the whole corpus, which starts with
        its name."""
        import io
        bundle = build_bundle(workspace, capsys)
        corpus = workspace / "unscorable.txt"
        corpus.write_text(text, encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        name, arg = (str(corpus), corpus) if source == "file" else ("<stdin>", "-")
        # a singleton beam keeps only the in-class reading of _ro, which
        # cannot end a sentence
        code, out, err = run(["ppl", "--bundle", bundle, "--corpus", arg, *flags], capsys)
        assert (code, out, err) == (1, "", f"nfclm: error: {name}: no scorable sentences\n")

    def test_stdin_corpus_is_named_stdin(self, workspace, capsys, monkeypatch):
        import io
        bundle = build_bundle(workspace, capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO("_play\n_play zzz\n"))
        code, _, err = run(["score", "--bundle", bundle, "--corpus", "-"], capsys)
        assert (code, err) == (1, "nfclm: error: <stdin>:2: unknown symbol 'zzz'\n")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_corpus_that_is_not_utf8_names_its_line(self, workspace, capsys, monkeypatch,
                                                    source):
        """A byte that is not UTF-8 is an error about its line, lines
        counted as a file's, in a file or on stdin."""
        import io
        bundle = build_bundle(workspace, capsys)
        data = b"_play\r\n_by\xff _ro\n"
        corpus = workspace / "bad.txt"
        corpus.write_bytes(data)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        name, arg = (str(corpus), corpus) if source == "file" else ("<stdin>", "-")
        code, out, err = run(["score", "--bundle", bundle, "--corpus", arg], capsys)
        assert (code, out, err) == (
            1, "", f"nfclm: error: {name}:2: not UTF-8 text (invalid start byte)\n")

    @pytest.mark.parametrize("empty,flags", [("--cfg", ["--fraction", 0.5]),
                                             ("--background", ["--fraction", 0.5, "--size", 4])])
    def test_mix_names_its_empty_input(self, workspace, capsys, empty, flags):
        """An input that the fraction draws from but that holds no sentence
        is an error that starts with its name."""
        ws = workspace
        (ws / "empty.txt").write_text("\n", encoding="utf-8")
        inputs = {"--background": ws / "background.txt", "--cfg": ws / "background.txt",
                  empty: ws / "empty.txt"}
        code, out, err = run(["mix", *(arg for item in inputs.items() for arg in item), *flags,
                              "--out", ws / "x"], capsys)
        pool = "tagged" if empty == "--cfg" else "background"
        assert (code, out, err) == (1, "", f"nfclm: error: {ws / 'empty.txt'}: {pool} corpus "
                                           "is empty but the fraction requires it\n")
        assert not (ws / "x").exists()

    @pytest.mark.parametrize("size", [[], ["--size", 4]])
    def test_mix_names_two_empty_inputs(self, workspace, capsys, size):
        ws = workspace
        for name in ("empty.txt", "blank.txt"):
            (ws / name).write_text("\n", encoding="utf-8")
        empty, blank = ws / "empty.txt", ws / "blank.txt"
        code, out, err = run(["mix", "--background", empty, "--cfg", blank, "--fraction", 0.5,
                              *size, "--out", ws / "x"], capsys)
        assert (code, out, err) == (1, "", f"nfclm: error: {empty}, {blank}: background and "
                                           "tagged corpora are both empty\n")
        assert not (ws / "x").exists()

    def test_dead_next_history_names_its_position(self, toy_model, tmp_path, capsys):
        bundle_mod.pack(toy_model, tmp_path / "toy")
        # a singleton beam keeps only the in-class reading of _ro, which
        # _by cannot continue
        code, out, err = run(["next", "--bundle", tmp_path / "toy", "--beam-n", 1,
                              "--history", "_ro _by"], capsys)
        assert (code, out) == (1, "")
        assert err == "nfclm: error: no alignment can generate '_by' at position 1\n"

    def test_dead_dump_dynfst_sentence_names_its_symbol(self, toy_model, tmp_path, capsys):
        bundle_mod.pack(toy_model, tmp_path / "toy")
        code, out, err = run(["dump-dynfst", "--bundle", tmp_path / "toy", "--beam-n", 1,
                              "--sentence", "_ro _by"], capsys)
        assert (code, out, err) == (1, "", "dead\t_by\n")

    @pytest.mark.parametrize("n", [0, -1])
    def test_sample_count_below_one_refused(self, toy_model, tmp_path, capsys, n):
        bundle_mod.pack(toy_model, tmp_path / "toy")
        code, out, err = run(["sample", "--bundle", tmp_path / "toy", "-n", n], capsys)
        assert (code, out, err) == (1, "", f"nfclm: error: -n must be >= 1, got {n}\n")

    def test_key_error_printed_without_repr_quotes(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        code, _, err = run(["next", "--bundle", bundle, "--history", "_play zzz"], capsys)
        assert (code, err) == (1, "nfclm: error: symbol 'zzz' is outside the vocabulary\n")

    @pytest.mark.parametrize("args", [
        ["sample", "--bundle", "bundle", "--exact"],
        ["sample", "--bundle", "bundle", "--beam-n", 1],
        ["sample", "--bundle", "bundle", "--beam-delta", 0],
        ["build-fst", "--class-label", "@x", "--entities", "x.txt", "--out", "x.fst",
         "--beam-n", 3],
        ["rescore", "--bundle", "b", "--nbest", "n", "--references", "r"],
        # training reads no alpha; pack and the scoring commands set it
        ["train-decider", "--corpus", "c", "--vocab", "v", "--classes", "k", "--out", "o",
         "--alpha", 1],
    ])
    def test_options_a_subcommand_ignores_are_rejected(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            run(args, capsys)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_determinism_across_runs(self, workspace, tmp_path, capsys):
        first = build_bundle(workspace, capsys)
        snapshot = {p.name: p.read_bytes() for p in first.iterdir()}
        # wipe and rebuild with the same seeds
        for p in first.iterdir():
            p.unlink()
        first.rmdir()
        for name in ("tagged.txt", "mixed.txt", "bg.bin", "decider.bin",
                     "@song.fst", "@artist.fst"):
            (workspace / name).unlink()
        second = build_bundle(workspace, capsys)
        assert {p.name: p.read_bytes() for p in second.iterdir()} == snapshot


# a value each checked flag's rule refuses, and the error that names it
REFUSED_FLAG_VALUES = {
    "--beam-n": ("0", "--beam-n must be an int >= 1, got 0"),
    "--beam-delta": ("nan", "--beam-delta must be a number >= 0, got nan"),
    "--alpha": ("-1", "--alpha must be a finite number >= 0, got -1.0"),
    "-n": ("0", "-n must be >= 1, got 0"),
    "--max-len": ("0", "--max-len must be >= 1, got 0"),
    "--size": ("0", "--size must be >= 1, got 0"),
    "--order": ("0", "--order must be >= 1, got 0"),
    "--discount": ("nan", "--discount must be in (0,1), got nan"),
    "--lm-weight": ("nan", "--lm-weight must be finite and >= 0, got nan"),
    "--ilm-weight": ("-1", "--ilm-weight must be finite and >= 0, got -1.0"),
    "--fraction": ("1.5", "--fraction must be in [0,1], got 1.5"),
}


@pytest.mark.parametrize("command,flag", [
    *((command, flag) for command in ("pack", "score", "ppl", "next", "rescore", "dump-dynfst")
      for flag in ("--beam-n", "--beam-delta", "--alpha")),
    ("sample", "--alpha"), ("sample", "-n"), ("sample", "--max-len"), ("expand-cfg", "-n"),
    ("mix", "--size"), ("mix", "--fraction"),
    *((command, flag) for command in ("train-bglm", "train-decider")
      for flag in ("--order", "--discount")),
    ("rescore", "--lm-weight"), ("rescore", "--ilm-weight")])
def test_refused_flag_value_names_its_flag(tmp_path, capsys, command, flag):
    """A flag value that its rule refuses is named by the flag before any
    file is read: every input here is missing, and nothing is written."""
    missing, out = tmp_path / "missing", tmp_path / "out"
    args = {
        "pack": ["--vocab", missing, "--classes", missing, "--bglm", missing,
                 "--decider", missing, "--fst", f"@song={missing}", "--out-dir", out],
        "score": ["--bundle", missing, "--corpus", missing],
        "ppl": ["--bundle", missing, "--corpus", missing],
        "next": ["--bundle", missing, "--history", "_play"],
        "rescore": ["--bundle", missing, "--nbest", missing],
        "dump-dynfst": ["--bundle", missing, "--sentence", "_play"],
        "sample": ["--bundle", missing],
        "expand-cfg": ["--patterns", missing, "--entity-dir", missing, "--vocab", missing,
                       "--classes", missing, "--out", out],
        "mix": ["--background", missing, "--cfg", missing, "--fraction", 0.5, "--out", out],
        "train-bglm": ["--corpus", missing, "--vocab", missing, "--out", out],
        "train-decider": ["--corpus", missing, "--vocab", missing, "--classes", missing,
                          "--out", out],
    }[command]
    value, message = REFUSED_FLAG_VALUES[flag]
    code, printed, err = run([command, *args, flag, value], capsys)
    assert (code, printed, err) == (1, "", f"nfclm: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,source", [
    ("train-bglm", "vocab.txt"), ("train-decider", "classes.txt"),
    ("build-fst", "entities/@song.txt"), ("expand-cfg", "patterns.txt"),
    ("score", "test.txt"), ("rescore", "nbest.tsv")])
def test_leading_byte_order_mark_is_not_read(workspace, capsys, command, source):
    """A text input that starts with a byte-order mark gives the output,
    printed and written, of the same input without it."""
    ws, out = workspace, workspace / "out"
    bundle = build_bundle(ws, capsys)
    (ws / "test.txt").write_text("_play _ro sie\n_by _browne\n", encoding="utf-8")
    (ws / "nbest.tsv").write_text("u1\t-2.0\t-1.0\t_by _by\n"
                                  "u1\t-2.5\t-1.0\t_play _ro sie\n", encoding="utf-8")
    args = {
        "train-bglm": ["--corpus", ws / "background.txt", "--vocab", ws / "vocab.txt",
                       "--order", 2, "--out", out],
        "train-decider": ["--corpus", ws / "mixed.txt", "--vocab", ws / "vocab.txt",
                          "--classes", ws / "classes.txt", "--order", 2, "--out", out],
        "build-fst": ["--class-label", "@song", "--entities", ws / "entities" / "@song.txt",
                      "--out", out],
        "expand-cfg": ["--patterns", ws / "patterns.txt", "--entity-dir", ws / "entities",
                       "--vocab", ws / "vocab.txt", "--classes", ws / "classes.txt",
                       "-n", 20, "--out", out],
        "score": ["--bundle", bundle, "--corpus", ws / "test.txt"],
        "rescore": ["--bundle", bundle, "--nbest", ws / "nbest.tsv"],
    }[command]

    def outputs():
        code, printed, err = run([command, *args], capsys)
        assert code == 0, err
        return printed, out.read_bytes() if out.exists() else None

    plain = outputs()
    path = ws / source
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert outputs() == plain


def test_module_runs_the_command_line(tmp_path):
    """``python -m nfclm`` runs the same command line from a source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nfclm.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    ran = subprocess.run([sys.executable, "-m", "nfclm", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert ran.returncode == 0 and ran.stdout.startswith("usage: nfclm "), ran.stderr
    ran = subprocess.run([sys.executable, "-m", "nfclm", "score", "--bundle",
                          str(tmp_path / "none"), "--corpus", "-"], env=env, input="",
                         capture_output=True, text=True, timeout=60)
    assert (ran.returncode, ran.stdout) == (1, "")
    assert ran.stderr.startswith("nfclm: error: missing manifest at "), ran.stderr


def test_output_is_independent_of_the_hash_seed(workspace, capsys):
    """``score``, ``next`` and ``dump-dynfst``, each also with ``--exact``,
    print the same bytes under two string-hash seeds."""
    bundle = build_bundle(workspace, capsys)
    corpus = workspace / "corpus.txt"
    corpus.write_text(f"{LONG_SENTENCE}\n_play _ro sie\n_by _browne\n", encoding="utf-8")
    commands = [["score", "--bundle", bundle, "--corpus", corpus],
                ["next", "--bundle", bundle, "--history", "_play _ro"],
                ["dump-dynfst", "--bundle", bundle, "--sentence", "_play _ro sie _by _browne"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(nfclm.__file__)))
    printed = {}
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        for command in commands:
            for flags in ([], ["--exact"]):
                ran = subprocess.run([sys.executable, "-m", "nfclm", *map(str, command + flags)],
                                     env=env, capture_output=True, timeout=120)
                assert ran.returncode == 0 and ran.stdout, ran.stderr
                printed.setdefault((command[0], *flags), []).append(ran.stdout)
    assert len(printed) == 6
    for name, (first, second) in printed.items():
        assert first == second, name


def readme_commands():
    """The arguments of every ``nfclm`` command in README's ``sh`` blocks,
    backslash continuations joined, split as the shell splits them."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme.read_text(encoding="utf-8"),
                            flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["nfclm"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse(capsys):
    """Every command README shows parses, and together they use every
    subcommand, so a flag or subcommand the command line drops is not left
    documented."""
    parser = build_parser()
    used = set()
    for args in readme_commands():
        try:
            used.add(parser.parse_args(args).command)
        except SystemExit:
            pytest.fail(f"README command does not parse: nfclm {shlex.join(args)}\n"
                        f"{capsys.readouterr().err}")
    subcommands = next(action.choices for action in parser._actions
                       if action.dest == "command")
    assert used == set(subcommands)



# each malformed kind of text input, made from the input's good bytes and a
# line that the input may not hold (None for a path that is missing or a
# directory), and whether a stream can carry it
MALFORMED = {
    "missing": None,
    "directory": None,
    "empty": lambda good, bad: b"",
    "blank lines only": lambda good, bad: b"\n \n",
    "byte-order mark": lambda good, bad: b"\xef\xbb\xbf" + good,
    "not UTF-8": lambda good, bad: good + b"\xff\n",
    "CRLF line ends": lambda good, bad: good.replace(b"\n", b"\r\n"),
    "unknown symbol": lambda good, bad: good + bad + b"\n",
}
# each subcommand's text inputs, as files in the workspace, and its other
# arguments; output goes to stdout or to ``out``
COMMANDS = {
    "build-fst": ({"--entities": "entities/@song.txt"}, ["--class-label", "@song", "--out"]),
    "train-bglm": ({"--corpus": "background.txt", "--vocab": "vocab.txt"},
                   ["--order", 2, "--out"]),
    "train-decider": ({"--corpus": "tagged.txt", "--vocab": "vocab.txt",
                       "--classes": "classes.txt"}, ["--order", 2, "--out"]),
    "expand-cfg": ({"--patterns": "patterns.txt", "--entity-dir": "entities",
                    "--vocab": "vocab.txt", "--classes": "classes.txt"}, ["-n", 5, "--out"]),
    "mix": ({"--background": "background.txt", "--cfg": "tagged.txt"},
            ["--fraction", 0.5, "--out"]),
    "pack": ({"--vocab": "vocab.txt", "--classes": "classes.txt"},
             ["--bglm", "bg.bin", "--decider", "decider.bin", "--fst", "@song=@song.fst",
              "--fst", "@artist=@artist.fst", "--out-dir"]),
    "score": ({"--corpus": "test.txt"}, ["--bundle", "bundle"]),
    "ppl": ({"--corpus": "test.txt"}, ["--bundle", "bundle"]),
    "rescore": ({"--nbest": "nbest.tsv"}, ["--bundle", "bundle"]),
}
# a line that is no symbol of the input: a reserved or unlabelled name, or
# a symbol outside the vocabulary
UNKNOWN = {"--entities": b"_ro zzz", "--corpus": b"_play zzz", "--vocab": b"</s>",
           "--classes": b"zzz", "--patterns": b"_play zzz", "--entity-dir": b"_ro zzz",
           "--background": b"_play zzz", "--cfg": b"_play zzz",
           "--nbest": b"u2\t-1.0\t-1.0\t_play zzz"}
# the malformed inputs that are read, and why, beside those whose byte-order
# mark or CRLF line ends are read as the good input
ACCEPTED = {
    ("build-fst", "--entities", "unknown symbol"): "build-fst reads no vocabulary",
    ("mix", "--background", "unknown symbol"): "mix reads no vocabulary",
    ("mix", "--cfg", "unknown symbol"): "mix reads no vocabulary",
    ("score", "--corpus", "empty"): "no sentence, so no score",
    ("score", "--corpus", "blank lines only"): "no sentence, so no score",
    ("rescore", "--nbest", "unknown symbol"): "the hypothesis is ranked FAILED",
}
# a missing entity file is named by the pattern line that needs it
NAMED_BY = {("expand-cfg", "--entity-dir", "missing"): "patterns.txt:1"}


@pytest.mark.parametrize("command,flag,kind,source", [
    (command, flag, kind, source) for command, (inputs, _) in COMMANDS.items()
    for flag in inputs for kind in MALFORMED
    for source in ("file", "stdin")[:1 + (flag in ("--corpus", "--background", "--cfg")
                                          and MALFORMED[kind] is not None)]])
def test_malformed_text_input_is_named_or_accepted(workspace, capsys, monkeypatch, command,
                                                    flag, kind, source):
    """Each subcommand, given each malformed kind of each text input it
    reads, exits 1 with an error that starts with the input's name and
    writes nothing, or gives the good input's output for a byte-order mark
    or CRLF line ends, or is listed as accepted.  An input that may be
    ``-`` is also given on stdin, named ``<stdin>``."""
    import io
    ws = workspace
    if command in ("pack", "score", "ppl", "rescore"):
        build_bundle(ws, capsys)
    ws.joinpath("tagged.txt").write_text("_play @song _by @artist\n_play _ro\n", encoding="utf-8")
    ws.joinpath("test.txt").write_text("_play _ro sie\n_by _browne\n", encoding="utf-8")
    ws.joinpath("nbest.tsv").write_text("u1\t-2.0\t-1.0\t_by _by\n"
                                        "u1\t-2.5\t-1.0\t_play _ro sie\n", encoding="utf-8")
    monkeypatch.chdir(ws)
    inputs, others = COMMANDS[command]

    def outputs(flag_value):
        args = [command, *(a for item in {**inputs, **flag_value}.items() for a in item),
                *others]
        code, printed, err = run([*args, "out"] if args[-1].startswith("--out") else args,
                                 capsys)
        out, written = ws / "out", None
        if out.is_dir():  # pack's bundle
            written = {p.name: p.read_bytes() for p in out.iterdir()}
            shutil.rmtree(out)
        elif out.exists():
            written = out.read_bytes()
            out.unlink()
        return code, printed, err, written

    good = outputs({})
    assert good[0] == 0, good[2]
    os.mkdir("bad")
    good_file = inputs[flag] if flag != "--entity-dir" else "entities/@song.txt"
    bad = os.path.join("bad", os.path.basename(good_file))
    if flag == "--entity-dir":  # the grammar's entity files, @song.txt malformed
        shutil.copy("entities/@artist.txt", "bad")
    value, name = ("bad" if flag == "--entity-dir" else bad), bad
    if kind == "directory":
        os.mkdir(bad)
    elif MALFORMED[kind] is not None:
        data = MALFORMED[kind](Path(good_file).read_bytes(), UNKNOWN[flag])
        Path(bad).write_bytes(data)
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            value, name = "-", "<stdin>"
    code, printed, err, written = outputs({flag: value})
    if kind in ("byte-order mark", "CRLF line ends"):
        assert (code, printed, err, written) == good
    elif (command, flag, kind) in ACCEPTED:
        assert (code, err) == (0, "")
    else:
        name = NAMED_BY.get((command, flag, kind), name)
        assert (code, printed, written) == (1, "", None)
        assert err.startswith(f"nfclm: error: {name}:"), err
