#!/usr/bin/env python3
"""siglogic benchmark: three seeded workloads, one client in a closed loop.

    python3 bench/run.py --workload query_mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (see bench/README.md for why each was chosen):

    query_mix      in-memory library session: point, scan, join and EquivIn
                   queries against a KB built at set-up
    cli_roundtrip  in-process `siglogic query|equiv|facts` calls, each of
                   which re-reads a larger KB file
    ingest_raw     raw java/python/php lines through `siglogic ingest`,
                   batch by batch into a fresh KB file

Every request's output is checked against expectations the benchmark
works out from its own generated corpus (bench/oracle.py).  A run covers
its workload's seeded request set at least once, then repeats it until
`--seconds` have passed; `attempted` and `failed` count the requests of
that set, so they are the same on every run of a seed.  Times are scaled
by a yardstick (see `Yardstick`) timed next to every request, which
cancels the host's own speed drift.  With
`--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` a fixed number of rounds runs untraced and then traced, and
the last line carries the per-layer metrics of the traced pass.  The
lines before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict, namedtuple
from pathlib import Path
from random import Random
from time import perf_counter

import corpus
import oracle
from tracer import PER_LAYER, SHAPES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Failures the code was known to produce when this benchmark was defined.
# They count as failed ops; any other wrong output makes the run incorrect.
KNOWN_DEFECTS = {
    "vararg_dropped": "query/equiv output drops `,...` on vararg rows",
    "keyconflict_escapes": "a key-conflict ingest raises KeyConflict instead of a path:line: diagnostic",
}

TAIL_PERCENTILES = (99, 95, 90, 75, 50)

# The yardstick's median time on the 2-vCPU VM where the benchmark was
# defined; scaled times read as if the host ran at that speed throughout.
YARDSTICK_NOMINAL_S = 0.0017
# Before each request the yardstick runs for at least this share of the
# previous request's time, so long requests get a longer sample.
YARDSTICK_SHARE = 0.05
SETUP_YARDSTICK_S = 0.02

Op = namedtuple("Op", "kind shape units call check")


def import_siglogic():
    """A fresh import of siglogic from this checkout's src/, never another copy."""
    for name in [m for m in sys.modules if m == "siglogic" or m.startswith("siglogic.")]:
        del sys.modules[name]
    sl = importlib.import_module("siglogic")
    importlib.import_module("siglogic.cli")
    if Path(sl.__file__).resolve().parent != SRC / "siglogic":
        raise ImportError("siglogic imported from %s, not %s" % (sl.__file__, SRC))
    return sl


class Yardstick:
    """A fixed pure-Python kernel that measures the host's speed.

    The benchmark's own slot matcher answers three scan queries over a
    200-function corpus made from seed 0: dict, tuple and string work like
    siglogic's, but independent of siglogic and of the run's seed, so a
    change to the program does not move it.  The shared host's speed
    drifts by tens of percent within a minute; timing this kernel right
    before each request and scaling by it takes that drift out.
    """

    def __init__(self):
        self.fns = corpus.gen_functions(Random(0), 200)
        self.queries = corpus.SCAN_QUERIES[:3]
        self.spent = 0.0  # seconds and kernel passes since the last take()
        self.passes = 0

    def sample(self, min_s):
        """Run the kernel at least once and for at least min_s seconds.

        The cyclic collector is off meanwhile: a full collection would
        walk the workload's live heap, which differs by seed, and the
        kernel makes no cycles, so its garbage is freed all the same.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            while True:
                for q in self.queries:
                    oracle.expected_answer(q, self.fns)
                self.passes += 1
                elapsed = perf_counter() - start
                if elapsed >= min_s:
                    break
        finally:
            if enabled:
                gc.enable()
        self.spent += elapsed

    def take(self):
        """The mean kernel time since the last take(), and reset."""
        mean = self.spent / self.passes
        self.spent, self.passes = 0.0, 0
        return mean


def scaled(seconds, kernel_s):
    """seconds as they would read at the yardstick's nominal speed."""
    return seconds * YARDSTICK_NOMINAL_S / kernel_s


def key_tuple(key):
    return (key.lang, key.namespace, key.class_name, key.name, key.arity)


class QueryMix:
    """A library session over ~1k signatures.

    A round interleaves the four query shapes: 8 point, every scan form,
    every join form and 8 EquivIn queries, so each round carries the same
    mix of cheap and costly work whatever the seed.  The KB size is capped
    by the quadratic scan/join cost: at 1k functions a round takes
    1.5-2 s.
    """

    name = "query_mix"
    n_functions = 1000
    pool_size = 64
    per_round = {"point": 8, "scan": len(corpus.SCAN_QUERIES),
                 "join": len(corpus.JOIN_QUERIES), "equiv": 8}
    pass_rounds = pool_size // 8  # rounds until the point and equiv pools repeat
    trace_rounds = 3
    setup_reps = 9
    round_kinds = SHAPES

    def __init__(self, seed, workdir, n_functions=None):
        rng = Random(seed)
        fns = corpus.gen_functions(rng, n_functions or self.n_functions)
        groups = corpus.gen_groups(rng, fns)
        self.texts = [fn.text for fn in fns]
        self.links = [(g[0].key, m.key) for g in groups for m in g[1:]]
        scans, joins = list(corpus.SCAN_QUERIES), list(corpus.JOIN_QUERIES)
        rng.shuffle(scans)
        rng.shuffle(joins)
        self.pools = {
            "point": corpus.gen_point_pool(rng, fns, self.pool_size),
            "scan": scans,
            "join": joins,
            "equiv": corpus.gen_equiv_pool(rng, groups, self.pool_size),
        }
        by_group = oracle.group_index(groups)
        self.expected = {
            q: (oracle.expected_equiv(q, fns, by_group) if shape == "equiv"
                else oracle.expected_answer(q, fns))
            for shape, pool in self.pools.items() for q in pool
        }

    def setup(self, sl):
        store = sl.FactStore()
        for text in self.texts:
            sl.ingest_signature(store, sl.parse_signature(text))
        eqs = sl.EquivStore()
        for a, b in self.links:
            eqs.add_eq(sl.FunctionKey(*a), sl.FunctionKey(*b))
        self.sl, self.store, self.eqs = sl, store, eqs

    def round(self, i):
        sl = self.sl
        for j in range(max(self.per_round.values())):
            for shape in self.round_kinds:
                if j >= self.per_round[shape]:
                    continue
                pool = self.pools[shape]
                query = pool[(i * self.per_round[shape] + j) % len(pool)]
                if shape == "equiv":
                    call = lambda q=query: sl.answer_equiv(self.store, self.eqs, sl.parse_signature(q))
                else:
                    call = lambda q=query: sl.answer(self.store, sl.parse_signature(q))
                yield Op(shape, shape, 1, call, lambda out, q=query: self.check(q, out))

    def check(self, query, out):
        if isinstance(out, Exception):
            return "error: %r on %s" % (out, query)
        got = {(key_tuple(b.key), b.items) for b in out}
        return None if got == self.expected[query] else "wrong answer to %s" % query


def run_cli(sl, argv):
    out, err = io.StringIO(), io.StringIO()
    rc = sl.cli.run(argv, stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


class CliRoundtrip:
    """`siglogic query|equiv|facts` in process, each call re-reading a KB
    three times the size of query_mix's, so load dominates every call.
    A round makes one call of each; a pass of 8 rounds runs every query
    of the pools (one per round, plain and porcelain alternating)."""

    name = "cli_roundtrip"
    n_functions = 3000
    pool_size = 8
    pass_rounds = pool_size
    trace_rounds = 4
    setup_reps = 15
    round_kinds = ("cli_query", "cli_equiv", "cli_facts")

    def __init__(self, seed, workdir, n_functions=None):
        rng = Random(seed)
        fns = corpus.gen_functions(rng, n_functions or self.n_functions)
        groups = corpus.gen_groups(rng, fns)
        self.kb = str(workdir / "kb.txt")
        self.links = str(workdir / "links.txt")
        Path(self.kb).write_text("".join(fn.text + "\n" for fn in fns))
        Path(self.links).write_text("".join(l + "\n" for l in corpus.link_lines(groups)))
        self.points = corpus.gen_point_pool(rng, fns, self.pool_size)
        self.equivs = corpus.gen_equiv_pool(rng, groups, self.pool_size)
        by_key = {fn.key: fn for fn in fns}
        by_group = oracle.group_index(groups)
        self.expected = {q: oracle.expected_records(oracle.expected_answer(q, fns), by_key) for q in self.points}
        self.expected.update(
            (q, oracle.expected_records(oracle.expected_equiv(q, fns, by_group), by_key))
            for q in self.equivs
        )
        self.fact_count = oracle.fact_count(fns)
        self.first_facts = None

    def setup(self, sl):
        self.sl = sl

    def round(self, i):
        sl = self.sl
        flag = ["--porcelain"] if i % 2 else []  # plain and porcelain alternate
        query = self.points[i % len(self.points)]
        yield Op("cli_query", "point", 1,
                 lambda: run_cli(sl, ["query", query, "--kb", self.kb] + flag),
                 lambda out: self.check_results(query, bool(flag), out))
        equiv = self.equivs[i % len(self.equivs)]
        yield Op("cli_equiv", "equiv", 1,
                 lambda: run_cli(sl, ["equiv", equiv, "--kb", self.kb, "--eq", self.links] + flag),
                 lambda out: self.check_results(equiv, bool(flag), out))
        yield Op("cli_facts", None, 1, lambda: run_cli(sl, ["facts", "--kb", self.kb]), self.check_facts)

    def check_results(self, query, porcelain, out):
        if isinstance(out, Exception):
            return "error: %r on %s" % (out, query)
        rc, text, err = out
        if rc != 0:
            return "exit %d on %s: %s" % (rc, query, err.strip())
        got, expected = oracle.parse_cli_results(text, porcelain), self.expected[query]
        if got == expected:
            return None
        if got == oracle.drop_vararg(expected):
            return "vararg_dropped"
        return "wrong output for %s" % query

    def check_facts(self, out):
        if isinstance(out, Exception):
            return "error: %r on facts" % (out,)
        rc, text, err = out
        if self.first_facts is None:
            self.first_facts = text
        lines = text.splitlines()
        if rc != 0 or len(lines) != self.fact_count or lines != sorted(lines):
            return "facts: exit %d, %d lines, expected %d sorted" % (rc, len(lines), self.fact_count)
        return None if text == self.first_facts else "facts output differs between calls"


class IngestRaw:
    """Raw java/python/php lines through `siglogic ingest`.

    A round grows a fresh KB file to 800 signatures in 10 batches of 100
    lines; a fifth of each batch repeats lines already sent.  The first
    round ends with a few one-line calls that carry a key conflict.
    """

    name = "ingest_raw"
    n_functions = 800
    batches = 10
    dup_share = 0.2
    conflicts = 3
    pass_rounds = 1
    trace_rounds = 3
    setup_reps = 15
    round_kinds = ("ingest",)

    def __init__(self, seed, workdir, n_functions=None):
        rng = Random(seed)
        fns = corpus.gen_raw_functions(rng, n_functions or self.n_functions)
        rng.shuffle(fns)
        self.kb = str(workdir / "kb.txt")
        fresh_per_batch = -(-len(fns) // self.batches)
        sent, kb_text, seen_ns, seen_cls, stored = [], "", set(), set(), set()
        self.batch_files, self.expected = [], []
        for b in range(self.batches):
            fresh = fns[b * fresh_per_batch:(b + 1) * fresh_per_batch]
            sent += fresh
            n_dup = round(len(fresh) * self.dup_share / (1 - self.dup_share))
            batch = fresh + rng.choices(sent, k=n_dup)
            rng.shuffle(batch)
            added = 0
            for fn in batch:
                if fn.key not in stored:
                    stored.add(fn.key)
                    kb_text += fn.text + "\n"
                    added += oracle.new_facts(fn, seen_ns, seen_cls)
            path = workdir / ("batch%d.txt" % b)
            path.write_text("".join(corpus.raw_fn(fn) + "\n" for fn in batch))
            self.batch_files.append(str(path))
            stdout = "ingested %d signatures, %d new facts\n" % (len(batch), added)
            self.expected.append((len(batch), stdout, kb_text))
        self.conflict_files = []
        typed = [fn for fn in fns if fn.lang != "python"]
        for k, fn in enumerate(rng.sample(typed, self.conflicts)):
            path = workdir / ("conflict%d.txt" % k)
            path.write_text(corpus.raw_fn(corpus.conflicting(rng, fn)) + "\n")
            self.conflict_files.append(str(path))

    def setup(self, sl):
        self.sl = sl

    def round(self, i):
        if os.path.exists(self.kb):
            os.remove(self.kb)
        for path, (lines, stdout, kb_text) in zip(self.batch_files, self.expected):
            yield Op("ingest", None, lines,
                     lambda p=path: run_cli(self.sl, ["ingest", "--kb", self.kb, p]),
                     lambda out, s=stdout, t=kb_text: self.check_batch(out, s, t))
        if i == 0:
            for path in self.conflict_files:
                yield Op("ingest_conflict", None, 0,
                         lambda p=path: run_cli(self.sl, ["ingest", "--kb", self.kb, p]),
                         lambda out, p=path: self.check_conflict(p, out, kb_text))

    def _kb_text(self):
        with open(self.kb, encoding="utf-8") as fh:
            return fh.read()

    def check_batch(self, out, stdout, kb_text):
        if isinstance(out, Exception):
            return "error: %r on ingest" % (out,)
        rc, text, err = out
        if rc != 0 or text != stdout:
            return "ingest: exit %d, %r, expected %r" % (rc, text, stdout)
        return None if self._kb_text() == kb_text else "ingest: KB file differs"

    def check_conflict(self, path, out, kb_text):
        unchanged = self._kb_text() == kb_text
        if type(out).__name__ == "KeyConflict" and unchanged:
            return "keyconflict_escapes"
        if isinstance(out, Exception):
            return "error: %r on conflict" % (out,)
        rc, _, err = out
        if rc == 1 and err.startswith(path + ":1: ") and unchanged:
            return None
        return "conflict: exit %d, stderr %r, KB unchanged: %s" % (rc, err, unchanged)


WORKLOADS = {w.name: w for w in (QueryMix, CliRoundtrip, IngestRaw)}


class Tally:
    """Latencies and verdicts of the ops one run made."""

    def __init__(self):
        self.latency = defaultdict(list)  # kind -> seconds
        self.rounds = []  # seconds per round, over the workload's round kinds
        self.rates = []  # work units per second, per round
        self.scaled_rounds = []  # the same two, scaled by the yardstick
        self.scaled_rates = []
        self.requests = set()  # (round in the pass, position in the round)
        self.failures = {}  # request -> verdict of its first failed execution

    @property
    def attempted(self):
        return len(self.requests)


def run_rounds(wl, tally, tracer=None, seconds=None, rounds=None, yardstick=None):
    """Closed loop: each op starts when the previous one has returned and
    been checked.  Stops after `rounds` rounds, or once a whole pass of
    the request set has run and `seconds` have run out."""
    start = perf_counter()
    i = 0
    op_id = 0
    last_dt = 0.0
    while True:
        round_s = units = 0.0
        for pos, op in enumerate(wl.round(i)):
            if yardstick:
                yardstick.sample(YARDSTICK_SHARE * last_dt)
            # start every op from a collected heap, so that garbage left by
            # one op is not collected on the next op's clock
            gc.collect()
            if tracer:
                tracer.begin_op(op_id, op.shape)
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception as e:  # a raising call is a checked outcome
                out = e
            dt = last_dt = perf_counter() - t0
            if tracer:
                tracer.end_op()
            op_id += 1
            request = (i % wl.pass_rounds, pos)
            tally.requests.add(request)
            verdict = op.check(out)
            if verdict:
                tally.failures.setdefault(request, verdict)
            tally.latency[op.kind].append(dt)
            if op.kind in wl.round_kinds:
                round_s += dt
                units += op.units
        tally.rounds.append(round_s)
        tally.rates.append(units / round_s)
        if yardstick:
            kernel_s = yardstick.take()
            tally.scaled_rounds.append(scaled(round_s, kernel_s))
            tally.scaled_rates.append(units / tally.scaled_rounds[-1])
        i += 1
        if rounds is not None:
            if i >= rounds:
                return
        elif i >= wl.pass_rounds and perf_counter() - start >= seconds:
            return


def tail(samples):
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    10 samples above it, nearest rank; None when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # nearest rank, 1-based
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def report_latencies(wl, tally):
    for kind, samples in tally.latency.items():
        label = "%s_query" % kind if wl.name == "query_mix" else kind
        print("  %s_p50_ms = %.3f ms (n=%d)" % (label, 1000 * statistics.median(samples), len(samples)))
        t = tail(samples)
        if t:
            print("  %s_tail_ms = %.3f ms (p%d, n=%d)" % (label, 1000 * t[1], t[0], len(samples)))
        else:
            print("  %s_tail_ms = n/a (n=%d; a tail needs 10 samples above it)" % (label, len(samples)))


def report_failures(tally):
    failed = len(tally.failures)
    print("  fail_ratio = %.4f (%d failed of %d attempted requests)" % (
        failed / tally.attempted, failed, tally.attempted))
    for verdict, n in Counter(tally.failures.values()).most_common():
        note = KNOWN_DEFECTS.get(verdict, "UNEXPECTED")
        print("    %d x %s: %s" % (n, verdict, note))


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "siglogic").glob("*.py")))


def result_line(tallies, metrics):
    verdicts = [v for t in tallies for v in t.failures.values()]
    return json.dumps({
        "correct": all(v in KNOWN_DEFECTS for v in verdicts),
        "attempted": sum(t.attempted for t in tallies),
        "failed": len(verdicts),
        "metrics": metrics,
    })


def measure(wl, seconds):
    """Untraced run: set-up several times, then the closed loop."""
    yardstick = Yardstick()
    setup, setup_scaled = [], []
    for _ in range(wl.setup_reps):
        # a set-up is short, so the yardstick brackets it with longer samples
        gc.collect()
        yardstick.sample(SETUP_YARDSTICK_S)
        t0 = perf_counter()
        wl.setup(import_siglogic())
        setup.append(perf_counter() - t0)
        yardstick.sample(SETUP_YARDSTICK_S)
        setup_scaled.append(scaled(setup[-1], yardstick.take()))
    tally = Tally()
    run_rounds(wl, tally, seconds=seconds, yardstick=yardstick)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "round_p50_ms": (1000 * statistics.median(tally.scaled_rounds), "ms"),
        "work_per_s": (statistics.median(tally.scaled_rates), "1/s"),
    }
    ops = sum(len(v) for v in tally.latency.values())
    print("%s: %d rounds, %d ops, set-up median of %d; times scaled by the yardstick" % (
        wl.name, len(tally.rounds), ops, len(setup)))
    for name, (value, unit) in metrics.items():
        print("  %s = %.6g %s" % (name, value, unit))
    print("  unscaled: setup_s = %.6g s, round_p50_ms = %.6g ms, work_per_s = %.6g 1/s" % (
        statistics.median(setup), 1000 * statistics.median(tally.rounds), statistics.median(tally.rates)))
    if wl.name == "ingest_raw":
        print("  ingest_sigs_per_s = %.6g signatures/s" % metrics["work_per_s"][0])
    report_latencies(wl, tally)
    report_failures(tally)
    print("  src/siglogic lines = %d (informational)" % src_lines())
    return result_line([tally], {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def measure_traced(wl, seed, out_dir=ROOT / ".bench_out"):
    """A fixed number of rounds untraced, then the same rounds traced;
    the spans go to a file in out_dir."""
    sl = import_siglogic()
    t0 = perf_counter()
    wl.setup(sl)
    setup_plain = perf_counter() - t0
    plain = Tally()
    run_rounds(wl, plain, rounds=wl.trace_rounds)

    tracer = Tracer(sl)
    tracer.install()
    try:
        t0 = perf_counter()
        wl.setup(sl)
        setup_traced = perf_counter() - t0
        tracer.end_op()  # counts the store set-up built
        traced = Tally()
        run_rounds(wl, traced, tracer=tracer, rounds=wl.trace_rounds)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / ("spans-%s-seed%d.tsv.gz" % (wl.name, seed))
    tracer.write_spans(spans)

    p50_plain, p50_traced = statistics.median(plain.rounds), statistics.median(traced.rounds)
    print("%s traced: %d rounds, %d spans written to %s" % (
        wl.name, wl.trace_rounds, len(tracer.span_start), spans))
    print("  tracing overhead: round p50 %.3f ms untraced, %.3f ms traced (%+.3f ms, %+.1f%%)" % (
        1000 * p50_plain, 1000 * p50_traced, 1000 * (p50_traced - p50_plain),
        100 * (p50_traced / p50_plain - 1)))
    print("  tracing overhead: set-up %.4f s untraced, %.4f s traced" % (setup_plain, setup_traced))
    for name, unit, _ in PER_LAYER:
        print("  %s = %.6g %s" % (name, metrics[name]["value"], unit))
    report_failures(traced)
    print("  src/siglogic lines = %d (informational)" % src_lines())
    return result_line([plain, traced], metrics)


def run_all(args):
    """Each workload in a fresh process, one after another."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "siglogic" / "__init__.py").is_file():
        print("error: no siglogic sources at %s" % SRC, file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    workdir = ROOT / ".bench_run" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            line = measure_traced(wl, args.seed)
        else:
            line = measure(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
