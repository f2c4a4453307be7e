"""The oracle stays apart from the beam, and the library's exact score meets it.

``oracle.py`` enumerates alignments from the model's definitions.  The
beam tests compare it with the engine, which shows something only while
the two share no code: the first test reads the oracle's source for the
beam's names.  The second is the benchmark's window check, run on the
tiny ``perfbench/scale.py`` bundle.
"""

import ast
import importlib.util
import math
from pathlib import Path

import pytest

import oracle
from nfclm import bundle, engine, sequence_logprob

ROOT = Path(__file__).resolve().parent.parent
# the engine's beam code: the route kernel, the merge and every walk over them
BEAM_NAMES = {"_mixture", "log_sum_exp", "start_beam", "extend", "eos_logprob", "advance",
              "next_dist", "sample", "sequence_logprob", "sequence_logprobs", "_walk"}
# seed 207 draws a window the default beam scores -inf
WINDOW_SEEDS = (3, 207)


def test_oracle_reads_no_beam_code():
    # a stale name would leave its code unchecked
    assert all(callable(getattr(engine, name, None)) for name in BEAM_NAMES)
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    names, attributes, imported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert (names | attributes | imported) & BEAM_NAMES == set()
    # the oracle defines its own exact_sequence_logprob; it reads not the engine's
    assert "exact_sequence_logprob" not in attributes | imported
    assert "engine" not in names | attributes | imported


def scale_windows(out: Path):
    """(tiny scale model, oracle windows of every seed in ``WINDOW_SEEDS``)."""
    spec = importlib.util.spec_from_file_location("perfbench_scale",
                                                  ROOT / "perfbench" / "scale.py")
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    scale.build_bundle("tiny", str(out / "build"))
    windows = []
    for seed in WINDOW_SEEDS:
        scale.make_inputs(seed, "tiny", str(out / "build"), str(out / str(seed)))
        text = (out / str(seed) / "windows.txt").read_text(encoding="utf-8")
        windows += [tuple(line.split()) for line in text.splitlines() if line.strip()]
    return bundle.load(out / "build" / "bundle"), windows


def test_scale_windows_library_exact_equals_oracle(tmp_path):
    """On every window, ``engine.exact_sequence_logprob`` equals the oracle,
    and the default beam's error and dead windows read the same against
    either, as the benchmark's ``beam_err_nats`` and ``beam_dead_windows``
    count them."""
    model, windows = scale_windows(tmp_path)
    assert len(windows) == 6
    for window in windows:
        exact = engine.exact_sequence_logprob(model, window)
        enumerated = oracle.exact_sequence_logprob(model, window)
        assert exact == pytest.approx(enumerated, rel=1e-12, abs=0), window
        beam = sequence_logprob(model, window)
        assert (beam == -math.inf < exact) == (beam == -math.inf < enumerated), window
        if beam > -math.inf:
            assert abs(abs(beam - exact) - abs(beam - enumerated)) <= 1e-12, window
