"""One timed benchmark process: load the bundle, run one workload, print JSON.

``run.py`` starts this in a fresh interpreter after the inputs exist, so
the process does nothing but import nfclm, call ``bundle.load`` and run
one closed-loop workload with one client and one thread.  Set-up time
and peak RSS are therefore what a command-line user pays.

Every timing comes from ``time.perf_counter`` around a public nfclm call;
peak RSS comes from ``resource.getrusage`` of this process.  A shared
host runs this process at a speed that changes by up to 2x within
seconds, so every timing is also scaled to a fixed reference speed by
``SpeedClock``: a timer signal runs a short calibration loop every
``TICK_S``, and an interval is scaled by how long the loops inside it
took.  The raw wall-clock figures are reported next to the scaled ones.

With ``--trace 1`` the process first runs the workload untraced, then
loads a fresh model, installs the bench-side wrappers of ``tracing.py``
and runs the same inputs again; the two runs must produce bit-identical
results.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import heapq
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

SETUP_LOADS = 3         # bundle loads whose median is setup_s
TRACED_LOADS = 2        # traced loads the bundle.* layer metrics average over
LM_WEIGHT = 0.5
ILM_WEIGHT = 0.4
RESCORE_CHECKS = 3      # hypotheses per list whose lm_logprob is recomputed
LAZY_HYPS = 4           # best-ASR hypotheses per list a decoder follows
LAZY_CAPACITY = 64      # resident DynFst state payloads
FANOUT_STATES = 4       # fan-out is queried at the first states of each utterance
                        # (scale.py orders lazy.jsonl by the beams there)
FANOUT_TOP_K = 3        # candidate arcs expanded after each fan-out
TRACED_SHARE = 1 / 3    # share of --seconds the untraced pass of a traced run takes
TICK_S = 0.025          # interval of the calibration timer
TICK_ROUNDS = 1000      # calibration loop rounds per tick, about 1 ms
CAL_REF_S = 0.0007      # one tick's loop at the fast level of the host it was tuned on
WALL_CAP = 3            # a run stops after this many times --seconds of wall time


def percentile(values, q):
    """Inclusive-method percentile ``q`` (1..99) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class _Item:
    __slots__ = ("rank", "key", "label")

    def __init__(self, rank, key, label):
        self.rank, self.key, self.label = rank, key, label


_SCATTER = bytearray(range(256)) * (8 << 10)   # 2 MiB, more than a core's cache


def _calibration_loop(rounds: int) -> int:
    """Fixed interpreter work like nfclm's, half of it waiting on memory.

    The first half builds, sorts and drops small objects, as the engine
    does.  The second reads bytes at pseudo-random offsets of a 2 MiB
    buffer, as lookups in large model tables do.  A loop of only the
    first kind slows down on a contended host by about 1.7x, one of only
    the second kind by about 1.4x; the workloads slow down by 1.3-1.8x.
    """
    kept: list[_Item] = []
    acc = 0
    for i in range(rounds):
        kept.append(_Item(i, (i, i + 1), "x"))
        if len(kept) > 200:
            kept.sort(key=lambda item: -item.rank)
            acc += kept[0].rank
            kept = kept[:10]
    j = rounds
    mask = len(_SCATTER) - 1
    for _ in range(rounds + rounds // 2):
        j = (j * 1103515245 + 12345) & mask
        acc += _SCATTER[j]
    return acc


class SpeedClock:
    """Scales timed intervals to the reference speed.

    While started, SIGALRM runs one calibration loop every ``TICK_S``
    (between two bytecodes of whatever is running) and records when it
    started and how long it took.  An interval is scaled by ``CAL_REF_S``
    over the mean duration of the loops that ran inside it, or, when none
    did, of the loops just before and after it; the loops' own time is
    taken out of the interval first.  Work done while the host runs this
    process at half speed thus counts at its reference-speed duration.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.spent: list[float] = []
        self.ticking = False

    def _tick(self, signum=None, frame=None) -> None:
        if self.ticking:   # a signal that arrives during a tick is dropped
            return
        self.ticking = True
        collecting = gc.isenabled()
        gc.disable()   # a collection of the workload's heap is not the loop's cost
        started = time.perf_counter()
        _calibration_loop(TICK_ROUNDS)
        self.spent.append(time.perf_counter() - started)
        self.starts.append(started)
        if collecting:
            gc.enable()
        self.ticking = False

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(reference-speed seconds, wall seconds) of ``start``..``end``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.spent[lo:hi]
        if inside:
            wall = end - start - math.fsum(inside)
        else:
            inside = self.spent[max(lo - 1, 0):hi + 1]
            wall = end - start
        return wall * CAL_REF_S * len(inside) / math.fsum(inside), wall

    def summary(self) -> dict:
        ticks = self.spent
        return {"ticks": len(ticks),
                "tick_p50_ms": percentile(ticks, 50) * 1e3,
                "tick_min_ms": min(ticks) * 1e3,
                "tick_max_ms": max(ticks) * 1e3,
                "speed_factor_p50": CAL_REF_S / percentile(ticks, 50)}


class WallClock:
    """The ``SpeedClock`` interface without scaling, for the traced pass."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        return end - start, end - start


class Recorder:
    """Operation latencies, work counts, failures and a result digest."""

    def __init__(self, heavy_checks: bool = True):
        self.heavy_checks = heavy_checks
        # timed (start, end) intervals; an operation may be several of them
        self.latencies: list[list[tuple[float, float]]] = []
        self.fanouts: list[tuple[float, float]] = []
        self.arcs: list[tuple[float, float]] = []
        self.tokens = 0
        self.hyps = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.request = 0
        self.dead_hyps = 0      # perturbed hypotheses no alignment survives for

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"request {self.request}: {message}")

    def result(self, value: float) -> None:
        self.digest.update(float(value).hex().encode())
        self.digest.update(b";")


class Score:
    """``perplexity()`` over one sentence per operation."""

    group = 1   # a run stops only after a whole group of operations

    def __init__(self, nf, model, rec: Recorder, source: str):
        self.nf, self.model, self.rec = nf, model, rec
        self.source = source
        self.total_logprob = 0.0

    def step(self, line: str) -> None:
        rec = self.rec
        tokens = tuple(line.split())
        rec.attempted += 1
        started = time.perf_counter()
        try:
            report = self.nf.evaluate.perplexity(self.model, [tokens])
        except Exception as exc:  # a failed operation is counted, not fatal
            rec.fail(f"{type(exc).__name__}: {exc}")
            return
        rec.latencies.append([(started, time.perf_counter())])
        rec.tokens += report.symbol_count
        rec.hyps += 1
        lp = report.total_logprob
        if not math.isfinite(lp) or report.symbol_count != len(tokens) + 1:
            rec.fail(f"perplexity report {lp!r} over {report.symbol_count} symbols")
        self.total_logprob += lp
        rec.result(lp)

    def extra(self) -> dict:
        symbols = self.rec.tokens
        return {"perplexity": math.exp(-self.total_logprob / symbols) if symbols else None}


def _prefix_counts(token_lists) -> tuple[int, int]:
    """(positions, distinct prefixes) over the hypotheses of one list."""
    seen = set()
    positions = 0
    for tokens in token_lists:
        for i in range(1, len(tokens) + 1):
            seen.add(tokens[:i])
        positions += len(tokens)
    return positions, len(seen)


class Rescore:
    """One ``rescore_nbest()`` call per 100-best list."""

    source = "nbest.jsonl"
    # Each aligned group of 8 lists holds one list per eighth of the cost
    # range (see scale.py), so whole groups give every run the same mix.
    group = 8

    def __init__(self, nf, model, rec: Recorder):
        self.nf, self.model, self.rec = nf, model, rec
        self.weights = nf.evaluate.FusionWeights(LM_WEIGHT, ILM_WEIGHT)
        self.lists = 0
        self.top1_ref = 0
        self.top1_asr = 0
        self.positions = 0
        self.prefixes = 0
        self.hyp_tokens = 0

    def step(self, line: str) -> None:
        rec, nf = self.rec, self.nf
        item = json.loads(line)
        entries = [nf.evaluate.NBestEntry(f"u{rec.request}", asr, ilm, tuple(text.split()))
                   for asr, ilm, text in item["hyps"]]
        reference = tuple(item["reference"].split())
        rec.attempted += 1
        started = time.perf_counter()
        try:
            ranked = nf.evaluate.rescore_nbest(self.model, entries, self.weights)
        except Exception as exc:  # a failed operation is counted, not fatal
            rec.fail(f"{type(exc).__name__}: {exc}")
            return
        rec.latencies.append([(started, time.perf_counter())])
        token_lists = [e.tokens for e in entries]
        self.hyp_tokens += sum(len(t) for t in token_lists)
        rec.tokens += sum(len(t) + 1 for t in token_lists)
        rec.hyps += len(entries)
        positions, prefixes = _prefix_counts(token_lists)
        self.positions += positions
        self.prefixes += prefixes
        self.lists += 1
        self.top1_ref += ranked[0].entry.tokens == reference
        self.top1_asr += max(entries, key=lambda e: e.asr_score).tokens == reference

        # A hypothesis no alignment survives for is flagged and ranked last;
        # that is defined behaviour for a perturbed hypothesis, a failure
        # for the reference.
        dead = [r for r in ranked if r.failed]
        rec.dead_hyps += len(dead)
        fused = [r.fused_score for r in ranked[:len(ranked) - len(dead)]]
        if any(r.failed for r in ranked[:len(fused)]):
            rec.fail("a dead hypothesis is ranked above a scored one")
        elif not all(map(math.isfinite, fused)):
            rec.fail("a scored hypothesis has a non-finite fused score")
        elif any(a < b for a, b in zip(fused, fused[1:])):
            rec.fail("list is not sorted by fused score")
        if any(r.entry.tokens == reference for r in dead):
            rec.fail("the reference has no surviving alignment")
        if rec.heavy_checks:
            step = max(1, len(ranked) // RESCORE_CHECKS)
            for r in ranked[::step][:RESCORE_CHECKS] + dead:
                if r.lm_logprob != nf.engine.sequence_logprob(self.model, r.entry.tokens):
                    rec.fail("lm_logprob differs from sequence_logprob")
        for r in ranked:
            rec.result(r.fused_score)

    def extra(self) -> dict:
        return {
            "top1_ref_frac": self.top1_ref / self.lists if self.lists else None,
            "top1_asr_only_frac": self.top1_asr / self.lists if self.lists else None,
            "lists": self.lists,
        }


class LazyFst:
    """A decoder walking n-best hypotheses through one bounded DynFst session."""

    source = "lazy.jsonl"
    group = Rescore.group

    def __init__(self, nf, model, rec: Recorder):
        self.nf, self.model, self.rec = nf, model, rec
        self.session = nf.dynfst.DynFstSession(model, capacity=LAZY_CAPACITY)
        self.positions = 0
        self.prefixes = 0

    def _fanout(self, state: int, timed: list) -> None:
        nf, rec, session = self.nf, self.rec, self.session
        rec.attempted += 1
        started = time.perf_counter()
        dist = nf.engine.next_dist(self.model, session.beam_of(state))
        timed.append((started, time.perf_counter()))
        rec.fanouts.append(timed[-1])
        total = math.fsum(dist.values())
        if abs(total - 1.0) > 1e-9:
            rec.fail(f"fan-out at state {state} sums to {total!r}")
        candidates = [s for s in dist if s != nf.EOS]
        for symbol in heapq.nlargest(FANOUT_TOP_K, candidates, key=dist.__getitem__):
            self._arc(state, symbol, timed)

    def _arc(self, state: int, symbol: str, timed: list):
        self.rec.attempted += 1
        started = time.perf_counter()
        arc = self.session.transition(state, symbol)
        timed.append((started, time.perf_counter()))
        self.rec.arcs.append(timed[-1])
        return arc

    def step(self, line: str) -> None:
        rec, session = self.rec, self.session
        item = json.loads(line)
        rows = sorted(item["hyps"], key=lambda row: -row[0])[:LAZY_HYPS]
        reference = tuple(item["reference"].split())
        token_lists = [tuple(text.split()) for _, _, text in rows]
        timed: list[tuple[float, float]] = []
        walked = []
        for n, tokens in enumerate(token_lists):
            state = session.start_state()
            path = 0.0
            for depth, symbol in enumerate(tokens):
                if n == 0 and depth < FANOUT_STATES:
                    self._fanout(state, timed)
                arc = self._arc(state, symbol, timed)
                rec.tokens += 1
                if arc is None:
                    path = math.inf
                    break
                state, weight = arc
                path += weight
            else:
                started = time.perf_counter()
                final = session.final_weight(state)
                timed.append((started, time.perf_counter()))
                rec.tokens += 1
                path = math.inf if final is None else path + final
            rec.hyps += 1
            walked.append((tokens, path))
        rec.latencies.append(timed)
        positions, prefixes = _prefix_counts(token_lists)
        self.positions += positions
        self.prefixes += prefixes
        # One walked hypothesis per utterance, in turn, is checked against
        # sequence_logprob: checking all of them would take longer than
        # the walks and halve the utterances a run times.
        checked = rec.request % len(walked)
        for n, (tokens, weight) in enumerate(walked):
            rec.result(weight)
            # No path is defined behaviour for a perturbed hypothesis (the
            # arc or final weight is absent), a failure for the reference.
            if weight == math.inf:
                rec.dead_hyps += 1
                if tokens == reference:
                    rec.fail("the reference has no path")
            if rec.heavy_checks and n == checked:
                expected = -self.nf.engine.sequence_logprob(self.model, tokens)
                if not (weight == expected or abs(weight - expected) <= 1e-9):
                    rec.fail(f"path weight {weight!r} != -sequence_logprob {expected!r}")

    def extra(self) -> dict:
        return {"session": self.session.stats.as_dict()}


def make_workload(name, nf, model, rec):
    if name == "score-entity":
        return Score(nf, model, rec, "entity.txt")
    if name == "score-background":
        return Score(nf, model, rec, "background.txt")
    if name == "rescore-nbest":
        return Rescore(nf, model, rec)
    if name == "lazy-fst":
        return LazyFst(nf, model, rec)
    raise ValueError(f"unknown workload {name!r}")


def drive(workload, data_dir, seconds, clock, limit=None) -> tuple[int, bool]:
    """Closed loop over the input file; returns (items run, inputs exhausted).

    The loop runs for ``seconds`` at reference speed, so a run does the
    same work however fast the host runs it (caches, session state and
    RSS grow with the work done).  It stops only between whole groups of
    ``workload.group`` items, and anyway after ``WALL_CAP`` times
    ``seconds`` of wall time.
    """
    rec = workload.rec
    started = last = time.perf_counter()
    spent = 0.0            # reference-speed seconds so far
    done = 0
    exhausted = limit is None
    with open(os.path.join(data_dir, workload.source), encoding="utf-8") as fh:
        for line in fh:
            now = time.perf_counter()
            spent += clock.scaled(last, now)[0]
            last = now
            if (done == limit or now - started >= WALL_CAP * seconds
                    or spent >= seconds and done % workload.group == 0):
                exhausted = False
                break
            rec.request = done
            workload.step(line)
            done += 1
    return done, exhausted


def beam_error(nf, model, data_dir) -> tuple[float, int]:
    """(mean |beam - exact| log-probability per token, dead windows).

    A dead window is one the beam scores -inf although the exact oracle
    gives it positive probability: every alignment that could continue
    was pruned.  It is counted on its own, because its error is infinite.
    """
    total = 0.0
    tokens = 0
    dead = 0
    with open(os.path.join(data_dir, "windows.txt"), encoding="utf-8") as fh:
        windows = [tuple(line.split()) for line in fh if line.strip()]
    for window in windows:
        beam = nf.engine.sequence_logprob(model, window)
        exact = nf.engine.exact_sequence_logprob(model, window)
        if beam == -math.inf and exact > -math.inf:
            dead += 1
            continue
        total += abs(beam - exact)
        tokens += len(window) + 1
    return (total / tokens if tokens else 0.0), dead


class Nfclm:
    """The nfclm modules, looked up at call time so trace wrappers apply."""

    def __init__(self, src: str):
        sys.path.insert(0, src)
        import nfclm
        from nfclm import bundle, dynfst, engine, evaluate
        if os.path.dirname(os.path.abspath(nfclm.__file__)) != os.path.join(src, "nfclm"):
            raise SystemExit(f"nfclm imported from {nfclm.__file__}, not from {src}")
        self.bundle, self.dynfst, self.engine, self.evaluate = bundle, dynfst, engine, evaluate
        self.EOS = nfclm.EOS


def timed_loads(nf, bundle_dir, count):
    """(last model, (start, end) of each load) of ``count`` loads."""
    times = []
    model = None
    for _ in range(count):
        model = None
        gc.collect()
        started = time.perf_counter()
        model = nf.bundle.load(bundle_dir)
        times.append((started, time.perf_counter()))
    return model, times


def summary(rec: Recorder, clock) -> dict:
    """Throughput and percentiles at reference speed, and raw under ``wall``."""
    def scaled(pieces):
        times = [clock.scaled(*piece) for piece in pieces]
        return math.fsum(t[0] for t in times), math.fsum(t[1] for t in times)

    per_kind = {"utt": [scaled(pieces) for pieces in rec.latencies],
                "fanout": [clock.scaled(*piece) for piece in rec.fanouts],
                "arc": [clock.scaled(*piece) for piece in rec.arcs]}
    busy = math.fsum(t[0] for t in per_kind["utt"])
    raw_busy = math.fsum(t[1] for t in per_kind["utt"])
    out = {
        "ops": len(rec.latencies),
        "busy_s": busy,
        "tokens": rec.tokens,
        "hyps": rec.hyps,
        "tok_per_s": rec.tokens / busy if busy else 0.0,
        "hyp_per_s": rec.hyps / busy if busy else 0.0,
        "digest": rec.digest.hexdigest(),
    }
    wall = {
        "busy_s": raw_busy,
        "tok_per_s": rec.tokens / raw_busy if raw_busy else 0.0,
        "hyp_per_s": rec.hyps / raw_busy if raw_busy else 0.0,
    }
    for key, scale, unit in (("utt", 1e3, "ms"), ("fanout", 1e3, "ms"), ("arc", 1e6, "us")):
        times = per_kind[key]
        if times:
            ref, raw = [t[0] for t in times], [t[1] for t in times]
            out[f"{key}_p50_{unit}"] = percentile(ref, 50) * scale
            out[f"{key}_p90_{unit}"] = percentile(ref, 90) * scale
            out[f"{key}_n"] = len(times)
            wall[f"{key}_p50_{unit}"] = percentile(raw, 50) * scale
            wall[f"{key}_p90_{unit}"] = percentile(raw, 90) * scale
    out["wall"] = wall
    return out


def run(nf, args, seconds, loads, rec, clock, limit=None, prepare=None):
    """Load the bundle ``loads`` times, then drive the workload on the last model."""
    clock.start()
    try:
        model, load_times = timed_loads(nf, args.bundle, loads)
        if prepare is not None:
            prepare(model)
        workload = make_workload(args.workload, nf, model, rec)
        done, exhausted = drive(workload, args.data, seconds, clock, limit)
    finally:
        clock.stop()
    return model, workload, load_times, done, exhausted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the nfclm package")
    parser.add_argument("--bundle", required=True, help="packed model directory")
    parser.add_argument("--data", required=True, help="generated workload inputs")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    nf = Nfclm(os.path.abspath(args.src))
    out = traced_run(nf, args) if args.trace else untraced_run(nf, args)
    print(json.dumps({"workload": args.workload, "trace": args.trace, **out}))
    return 0


def untraced_run(nf, args) -> dict:
    rec = Recorder()
    clock = SpeedClock()
    model, workload, loads, done, exhausted = run(nf, args, args.seconds, SETUP_LOADS, rec,
                                                  clock)
    out = summary(rec, clock)
    loads = [clock.scaled(*interval) for interval in loads]
    out["setup_s"] = statistics.median(t[0] for t in loads)
    out["setup_samples"] = [t[0] for t in loads]
    out["wall"]["setup_s"] = statistics.median(t[1] for t in loads)
    out["wall"]["setup_samples"] = [t[1] for t in loads]
    out["speed"] = clock.summary()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.workload == "score-entity":
        out["beam_err_nats"], out["beam_dead_windows"] = beam_error(nf, model, args.data)
    out.update(workload.extra())
    if getattr(workload, "positions", 0):
        out["prefix_share"] = 1 - workload.prefixes / workload.positions
    out.update(outcome(rec, done, exhausted))
    return out


def traced_run(nf, args) -> dict:
    """Untraced pass, then the same inputs on a fresh traced model."""
    from tracing import Tracer, deep_size, install, instrument_model

    plain = Recorder()
    clock = SpeedClock()
    model, _, _, done, exhausted = run(nf, args, args.seconds * TRACED_SHARE, 1, plain, clock)
    beam_err, dead_windows = beam_error(nf, model, args.data)
    model = None
    rec = Recorder(heavy_checks=False)
    tracer = Tracer(rec)
    install(tracer)
    # no calibration ticks here: they would land inside the traced spans
    model, workload, _, traced_done, _ = run(
        nf, args, math.inf, TRACED_LOADS, rec, WallClock(), limit=done,
        prepare=lambda m: instrument_model(tracer, m))
    untraced, traced = summary(plain, clock), summary(rec, WallClock())
    if traced_done != done or untraced["digest"] != traced["digest"]:
        rec.fail("traced run results differ from the untraced run")
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.errors += plain.errors

    session = getattr(workload, "session", None)
    layers = layer_metrics(tracer, model, workload, session)
    layers["dynfst.retained_kb"] = deep_size(session, skip=[model]) / 1024 if session else 0.0
    layers["engine.beam_err_nats"] = beam_err
    layers["engine.beam_dead_windows"] = dead_windows
    untraced_wall = untraced["wall"]["busy_s"]
    layers["trace.overhead_ratio"] = (traced["busy_s"] / untraced_wall
                                      if untraced_wall else 0.0)
    if args.spans_out:
        tracer.write_spans(args.spans_out)
    return {
        "layers": layers,
        "properties": properties(tracer, layers),
        "untraced": untraced,
        "traced": traced,
        "spans_recorded": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        **outcome(rec, done, exhausted),
    }


def outcome(rec: Recorder, done: int, exhausted: bool) -> dict:
    return {"items": done, "inputs_exhausted": exhausted, "attempted": rec.attempted,
            "failed": rec.failed, "errors": rec.errors, "dead_hyps": rec.dead_hyps}


def layer_metrics(tracer, model, workload, session) -> dict:
    """Per-layer counts and self times of a traced pass (bundle ones per load)."""
    loads = TRACED_LOADS
    calls, counts = tracer.calls, tracer.counts
    extends = calls["engine.extend"]
    bg_lookups = counts["engine.bg_lookups"]
    decider_lookups = counts["engine.decider_lookups"]
    beam_out = tracer.beam_out
    stats = session.stats.as_dict() if session else {}
    transitions = calls["dynfst.transition"]
    rescored_tokens = getattr(workload, "hyp_tokens", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "bundle.fst_deserialize_s": tracer.total_s("classfst.deserialize") / loads,
        "bundle.fst_validate_calls": calls["classfst.validate"] / loads,
        "bundle.fst_validate_s": tracer.total_s("classfst.validate") / loads,
        "bundle.ngram_deserialize_s": tracer.total_s("seqmodel.ngram_deserialize") / loads,
        "seqmodel.bg_logprob_calls": calls["seqmodel.bg.logprob"],
        "seqmodel.bg_logprob_self_s": tracer.self_s("seqmodel.bg.logprob"),
        "seqmodel.bg_distribution_calls": calls["seqmodel.bg.distribution"],
        "seqmodel.decider_calls": calls["seqmodel.decider.distribution"],
        "seqmodel.decider_self_s": tracer.self_s("seqmodel.decider.distribution"),
        "engine.bg_cache_hit_ratio": ratio(bg_lookups - calls["seqmodel.bg.logprob"],
                                           bg_lookups),
        "engine.bg_cache_entries": len(getattr(model, "_bg_cache", ())),
        "engine.decider_cache_hit_ratio": ratio(
            decider_lookups - calls["seqmodel.decider.distribution"], decider_lookups),
        "engine.decider_cache_entries": len(getattr(model, "_decider_cache", ())),
        "engine.extend_calls": extends,
        "engine.extend_self_s": tracer.self_s("engine.extend"),
        "engine.eos_self_s": tracer.self_s("engine.eos_logprob"),
        "engine.beam_in_mean": ratio(sum(tracer.beam_in), len(tracer.beam_in)),
        "engine.beam_out_p50": percentile(beam_out, 50) if beam_out else 0.0,
        "engine.beam_out_p90": percentile(beam_out, 90) if beam_out else 0.0,
        "engine.beam_at_cap_frac": ratio(counts["engine.beam_at_cap"], len(beam_out)),
        "engine.lse_calls": calls["engine.log_sum_exp"],
        "engine.lse_terms_mean": ratio(counts["engine.lse_terms"],
                                       calls["engine.log_sum_exp"]),
        "engine.next_dist_calls": calls["engine.next_dist"],
        "engine.next_dist_self_s": tracer.self_s("engine.next_dist"),
        "engine.extend_per_next_dist": ratio(counts["engine.extend_in_next_dist"],
                                             calls["engine.next_dist"]),
        "classfst.arc_lookups_per_extend": ratio(counts["classfst.arc_lookups"], extends),
        "classfst.exit_prob_calls": counts["classfst.exit_prob_calls"],
        "dynfst.transition_calls": transitions,
        "dynfst.arc_memo_hit_ratio": ratio(counts["dynfst.arc_memo_hits"], transitions),
        "dynfst.expansions": stats.get("expansions", 0),
        "dynfst.evictions": stats.get("evictions", 0),
        "dynfst.replays": stats.get("replays", 0),
        "dynfst.replayed_steps": stats.get("replayed_steps", 0),
        "dynfst.transition_self_s": tracer.self_s("dynfst.transition"),
        "evaluate.prefix_share": ratio(getattr(workload, "positions", 0)
                                       - getattr(workload, "prefixes", 0),
                                       getattr(workload, "positions", 0)),
        "evaluate.extend_per_token": ratio(counts["evaluate.rescore_extends"],
                                           rescored_tokens),
        "evaluate.rescore_self_s": tracer.self_s("evaluate.rescore_nbest"),
    }


BEAM_BUCKETS = ((1, 1), (2, 4), (5, 16), (17, 64), (65, 99), (100, 10 ** 9))


def properties(tracer, layers) -> dict:
    """Measured shares of the workload properties later optimizations rely on."""
    beam_out = tracer.beam_out
    histogram = {f"{lo}-{hi}" if hi < 10 ** 9 else f">={lo}":
                 sum(lo <= n <= hi for n in beam_out) / len(beam_out) if beam_out else 0.0
                 for lo, hi in BEAM_BUCKETS}
    transitions = layers["dynfst.transition_calls"]
    return {
        "beam_out_histogram": histogram,
        "beam_steps": len(beam_out),
        "beam_at_cap_share": layers["engine.beam_at_cap_frac"],
        "nbest_prefix_share": layers["evaluate.prefix_share"],
        "dynfst_memo_hit_share": layers["dynfst.arc_memo_hit_ratio"],
        "dynfst_replay_share": layers["dynfst.replays"] / transitions if transitions else 0.0,
        "bg_cache_miss_share": 1 - layers["engine.bg_cache_hit_ratio"],
        "decider_cache_miss_share": 1 - layers["engine.decider_cache_hit_ratio"],
    }


if __name__ == "__main__":
    sys.exit(main())
