import math

import pytest

from nfclm import (advance, bundle as bundle_mod, exact_sequence_logprob,
                   next_dist, perplexity, rescore_nbest, sequence_logprob)
from nfclm.cli import _fmt, main
from nfclm.evaluate import FusionWeights, parse_nbest_file

from conftest import ARTIST_ENTITIES, SONG_ENTITIES, TOY_SYMBOLS

# 14 tokens: past the exact oracle's 12-symbol limit
LONG_SENTENCE = "_play _ro sie _by _browne _play _ro salie _by _ro berta _flack _by _browne"


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

    def test_seed_env_fallback(self, workspace, capsys, monkeypatch):
        bundle = build_bundle(workspace, capsys)
        monkeypatch.setenv("NFCLM_SEED", "42")
        _, a, _ = run(["sample", "--bundle", bundle, "-n", 2], capsys)
        _, b, _ = run(["sample", "--bundle", bundle, "-n", 2, "--seed", 42], capsys)
        assert a == b

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


def unpruned(bundle):
    """The bundle as ``--exact`` loads it: every alignment kept."""
    return bundle_mod.load(bundle, beam_size=10 ** 6, beam_delta=math.inf)


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

    @pytest.mark.parametrize("flags,name", [
        (["--beam-n", 0], "beam_size"), (["--beam-n", -2], "beam_size"),
        (["--beam-delta", -1], "beam_delta"), (["--beam-delta", "nan"], "beam_delta")])
    def test_bad_beam_flag_rejected(self, workspace, capsys, flags, name):
        bundle = build_bundle(workspace, capsys)
        (workspace / "test.txt").write_text("_play _ro sie\n", encoding="utf-8")
        code, out, err = run(["score", "--bundle", bundle, "--corpus",
                              workspace / "test.txt", *flags], capsys)
        assert code == 1 and out == ""
        assert err.startswith("nfclm: error: ") and name in err
        assert "manifest.json" not in err

    @pytest.mark.parametrize("command,value", [
        ("score", "nan"), ("score", "inf"), ("score", "-1"), ("train-decider", "nan"),
        ("train-decider", "inf"), ("pack", "nan")])
    def test_bad_alpha_flag_rejected(self, workspace, capsys, command, value):
        """``--alpha`` is checked by the decider's rule: no traceback, no NaN score."""
        bundle = build_bundle(workspace, capsys)
        (workspace / "test.txt").write_text("_play _ro sie\n", encoding="utf-8")
        inputs = {
            "score": ["--bundle", bundle, "--corpus", workspace / "test.txt"],
            "train-decider": ["--corpus", workspace / "mixed.txt", "--vocab",
                              workspace / "vocab.txt", "--classes", workspace / "classes.txt",
                              "--out", workspace / "x.bin"],
            "pack": ["--vocab", workspace / "vocab.txt", "--classes", workspace / "classes.txt",
                     "--bglm", workspace / "bg.bin", "--decider", workspace / "decider.bin",
                     "--fst", f"@song={workspace / '@song.fst'}",
                     "--fst", f"@artist={workspace / '@artist.fst'}",
                     "--out-dir", workspace / "x"]}
        code, out, err = run([command, *inputs[command], "--alpha", value], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("nfclm: error: ") and err.count("\n") == 1
        assert f"alpha must be a finite number >= 0, got {float(value)!r}" in err
        assert not (workspace / "x.bin").exists() and not (workspace / "x").exists()

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

    def test_stdin_corpus_is_named_stdin(self, workspace, capsys, monkeypatch):
        import io
        bundle = build_bundle(workspace, capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO("_play\n_play zzz\n"))
        code, _, err = run(["score", "--bundle", bundle, "--corpus", "-"], capsys)
        assert (code, err) == (1, "nfclm: error: <stdin>:2: unknown symbol 'zzz'\n")

    def test_key_error_printed_without_repr_quotes(self, workspace, capsys):
        bundle = build_bundle(workspace, capsys)
        code, _, err = run(["next", "--bundle", bundle, "--history", "_play zzz"], capsys)
        assert (code, err) == (1, "nfclm: error: symbol 'zzz' is outside the vocabulary\n")

    @pytest.mark.parametrize("args", [
        ["sample", "--bundle", "bundle", "--exact"],
        ["build-fst", "--class-label", "@x", "--entities", "x.txt", "--out", "x.fst",
         "--beam-n", 3],
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
