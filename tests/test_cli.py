import math

import pytest

from nfclm.cli import main

from conftest import ARTIST_ENTITIES, SONG_ENTITIES, TOY_SYMBOLS


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
