"""nfclm benchmark: one workload on a deterministic synthetic scale bundle.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload score-entity --seed 1 --seconds 10 --trace 0

The seed fixes every input; the bundle is the same for every seed (see
``scale.py``).  Building the bundle and generating the inputs is not
timed; both are cached under ``.bench_build/perfbench``, keyed by size,
seed and a digest of the sources.  The timed part runs in a fresh
``worker.py`` process.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  The line before it is the full
report: metadata, sample counts, workload-specific figures and workload
properties.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
TIME_LIMIT_S = 170.0
FIRST_BUILD_LIMIT_S = 600.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "nfclm", "*.py"))
                       + [os.path.join(BENCH, "scale.py")]):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a checkout of its own; do not report an enclosing repo
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"   # the same set and dict layouts in every run
    return env


def _generate(step: str, out: str, timeout: float, *options: str) -> float:
    """Run one ``scale.py`` step into ``out`` unless it is there; returns seconds."""
    if os.path.exists(os.path.join(out, "meta.json")):
        return 0.0
    tmp = f"{out}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    started = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(BENCH, "scale.py"), step, "--out", tmp,
                    *options], env=child_env(), check=True, timeout=timeout,
                   stdout=sys.stderr)
    os.replace(tmp, out)
    return time.perf_counter() - started


def ensure_inputs(seed: int, size: str, digest: str):
    """(bundle directory, input directory, seconds building the bundle, generating inputs).

    The bundle is built once per checkout and size; that first build may
    take longer than the limit of an ordinary run.
    """
    bundle_dir = os.path.join(WORK, f"{size}-bundle-{digest[:16]}")
    data = os.path.join(WORK, f"{size}-seed{seed}-{digest[:16]}")
    build_s = _generate("bundle", bundle_dir, FIRST_BUILD_LIMIT_S, "--size", size)
    inputs_s = _generate("inputs", data, TIME_LIMIT_S / 2, "--size", size,
                         "--seed", str(seed), "--bundle", bundle_dir)
    return bundle_dir, data, build_s, inputs_s


def main(argv=None) -> int:
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "nfclm", "__init__.py")):
        return fail(f"no nfclm sources under {SRC}")
    try:
        spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("scale", "tiny"), default="scale",
                        help="tiny is for the smoke test only")
    args = parser.parse_args(argv)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    digest = source_digest()
    try:
        bundle_dir, data, build_s, inputs_s = ensure_inputs(args.seed, args.size, digest)
        command = [sys.executable, os.path.join(BENCH, "worker.py"), "--src", SRC,
                   "--bundle", os.path.join(bundle_dir, "bundle"),
                   "--data", data, "--workload", args.workload,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
            command += ["--spans-out", os.path.join(
                WORK, "spans", f"{args.workload}-seed{args.seed}-{args.size}.jsonl")]
        remaining = TIME_LIMIT_S - (time.perf_counter() - started - build_s)
        proc = subprocess.run(
            command, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(remaining, 1.0), check=True)
    except subprocess.CalledProcessError as exc:
        return fail(f"{exc.cmd[1]} exited with status {exc.returncode}")
    except subprocess.TimeoutExpired as exc:
        return fail(f"{exc.cmd[1]} did not finish within {exc.timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return fail("worker printed no result")
    result = json.loads(lines[-1])

    values = result["layers"] if args.trace else result
    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"])
        if not isinstance(value, (int, float)):
            return fail(f"workload {args.workload} produced no value for {entry['name']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    attempted, failed = result["attempted"], result["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": digest,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "bundle_build_s": build_s,
        "inputs_s": inputs_s,
        "failed_frac": failed / attempted if attempted else 1.0,
        "bundle": read_json(os.path.join(bundle_dir, "meta.json")),
        "worker": result,
    }
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    with open(os.path.join(WORK, "reports", f"{args.workload}-seed{args.seed}-{args.size}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
