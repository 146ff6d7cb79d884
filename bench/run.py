"""Build/recall benchmark for passrecall.  Run from the repository root:

    python3 bench/run.py --workload many-docs --seed 1 --seconds 30 --trace 0

Drives `passrecall build` and `passrecall recall` (with PYTHONPATH=src, no
install) on inputs that bench/gen.py makes from the seed, checks every
output with bench/check.py, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics of an untraced pass; --trace 1 gives the per-layer
metrics of a traced pass (bench/tracer.py) and its overhead against an
untraced pass of the same work.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import check  # noqa: E402
import gen  # noqa: E402

# Workload -> (queries per round, least rounds, builds) per run.  A round is
# one `passrecall recall` process, so each gives one set-up sample; long-docs
# still times at least 100 queries per run.  A run takes about a minute: the
# host's speed drifts over tens of seconds, and a shorter run would carry
# one moment's drift into every figure it reports.
ROUNDS = {
    "many-docs": (300, 6, 6),
    "long-docs": (34, 4, 4),
}
RECALL_FLAGS = ["--stage1-template", "{}", "--stage2-template", "{}"]


class BenchError(RuntimeError):
    pass


class Run:
    def __init__(self, workload: str, seed: int, work: str):
        self.workload, self.work = workload, work
        gen.write(workload, seed, work)
        with open(os.path.join(work, "queries.txt"), encoding="utf-8") as fh:
            self.queries = fh.read().splitlines()
        with open(os.path.join(work, "sources.txt"), encoding="utf-8") as fh:
            self.sources = fh.read().splitlines()
        self.docs = check.load_documents(os.path.join(work, "corpus.jsonl"))
        self.env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
        self.rounds: list[dict] = []
        self.ok: list[bool] = []
        self.self_test_ok = True
        self.builds_identical = True

    def _child(self, tag: str, command: list[str], trace: str | None) -> dict:
        """Run one program command through child.py and wait for it.

        Returns child.py's record (query start/end times, own peak RSS)
        with the spawn time and wall time added."""
        timings = os.path.join(self.work, f"{tag}.timings.json")
        argv = [sys.executable, os.path.join(BENCH, "child.py"), timings]
        if trace:
            argv += ["--trace", trace]
        log = os.path.join(self.work, f"{tag}.log")
        with open(log, "w", encoding="utf-8") as err:
            spawned = time.monotonic()
            code = subprocess.call(argv + ["--"] + command, env=self.env,
                                   stdout=subprocess.DEVNULL, stderr=err)
            wall_s = time.monotonic() - spawned
        if code != 0:
            with open(log, encoding="utf-8") as fh:
                raise BenchError(f"{tag} exited {code}: {fh.read()[-2000:]}")
        with open(timings, encoding="utf-8") as fh:
            child = json.load(fh)
        child.update(spawned=spawned, wall_s=wall_s,
                     peak_rss_mb=child["peak_rss_kb"] / 1024)
        return child

    def build(self, tag: str, trace: str | None = None) -> dict:
        """Build into art/ the first time; later builds must reproduce it."""
        art = os.path.join(self.work, "art")
        out = os.path.join(self.work, tag) if os.path.isdir(art) else art
        child = self._child(tag, ["build", "--corpus",
                                  os.path.join(self.work, "corpus.jsonl"),
                                  "--out", out], trace)
        if out != art:
            self.builds_identical &= _same_tree(art, out)
            shutil.rmtree(out)
        return child

    def recall(self, tag: str, queries: list[str],
               trace: str | None = None) -> tuple:
        qfile = os.path.join(self.work, f"{tag}.queries.txt")
        out = os.path.join(self.work, f"{tag}.out.jsonl")
        with open(qfile, "w", encoding="utf-8") as fh:
            fh.write("\n".join(queries) + "\n")
        command = ["recall", "--index-dir", os.path.join(self.work, "art"),
                   "--queries", qfile, "--output", out] + RECALL_FLAGS
        return self._child(tag, command, trace), check.read_output(out)

    def round(self, index: int, trace: str | None = None) -> dict:
        """One recall process over the index-th query batch, checked."""
        batch = ROUNDS[self.workload][0]
        picks = [(index * batch + i) % len(self.queries) for i in range(batch)]
        queries = [self.queries[i] for i in picks]
        sources = [self.sources[i] for i in picks]
        tag = f"round{index}{'-traced' if trace else ''}"
        child, records = self.recall(tag, queries, trace)
        spans = child["queries"]
        if len(records) != len(queries) or len(spans) != len(queries):
            raise BenchError(f"{tag}: {len(records)} records, "
                             f"{len(spans)} timed queries, {len(queries)} asked")
        ok = [check.record_ok(r, q, self.docs) for r, q in zip(records, queries)]
        self.ok += ok
        if index == 0 and ok[0]:
            self.self_test_ok &= check.self_test(records[0], queries[0], self.docs)
        return {
            "child": child, "queries": queries, "sources": sources,
            "records": records,
            "setup_s": spans[0][0] - child["spawned"],
            "latencies": [end - start for start, end in spans],
            "busy_s": spans[-1][1] - spans[0][0],
        }

    def artifact_bytes_per_token(self) -> float:
        art = os.path.join(self.work, "art")
        size = sum(os.path.getsize(os.path.join(art, f)) for f in _files(art))
        return size / sum(len(words) for _, words in self.docs.values())


def _files(root: str) -> list[str]:
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def _same_tree(a: str, b: str) -> bool:
    """Whether two directories hold the same files with the same bytes."""
    names = _files(a)
    return names == _files(b) and filecmp.cmpfiles(
        a, b, names, shallow=False)[0] == names


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_pass(run: Run, seconds: float) -> dict:
    """Rounds until both the least count and `seconds` of recall time are
    reached, with the builds spread between them: the host's speed drifts
    over seconds, so samples taken at one moment would all share its drift."""
    _, least, n_builds = ROUNDS[run.workload]
    builds = [run.build("build")]
    measured = 0.0
    while len(run.rounds) < least or measured < seconds:
        run.rounds.append(run.round(len(run.rounds)))
        measured += run.rounds[-1]["child"]["wall_s"]
        if len(builds) < n_builds:
            builds.append(run.build(f"build{len(builds)}"))
    latencies = [x for r in run.rounds for x in r["latencies"]]
    sources = [s for r in run.rounds for s in r["sources"]]
    records = [rec for r in run.rounds for rec in r["records"]]
    return {
        "build_s": _metric(statistics.median(b["wall_s"] for b in builds), "s"),
        "build_peak_rss_mb": _metric(
            statistics.median(b["peak_rss_mb"] for b in builds), "MB"),
        "setup_s": _metric(statistics.median(r["setup_s"] for r in run.rounds), "s"),
        "query_p50_ms": _metric(1000 * statistics.median(latencies), "ms"),
        "query_p90_ms": _metric(
            1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms"),
        "queries_per_s": _metric(
            len(latencies) / sum(r["busy_s"] for r in run.rounds), "1/s"),
        "recall_peak_rss_mb": _metric(
            statistics.median(r["child"]["peak_rss_mb"] for r in run.rounds), "MB"),
        "artifact_bytes_per_token": _metric(run.artifact_bytes_per_token(), "B/token"),
        "r_precision": _metric(check.r_precision(records, sources), "%"),
    }


def traced_pass(run: Run) -> dict:
    """A traced build and round, each between two untraced ones over the
    same inputs, so that host drift does not pass for tracing overhead."""
    plain_builds = [run.build("build")]
    trace_build = os.path.join(run.work, "build.trace.json")
    traced_build = run.build("build-traced", trace_build)
    plain_builds.append(run.build("build-again"))
    plain = [run.round(0)]
    run.rounds.append(plain[0])
    trace_recall = os.path.join(run.work, "recall.trace.json")
    traced = run.round(0, trace_recall)
    plain.append(run.round(0))
    if not plain[0]["records"] == traced["records"] == plain[1]["records"]:
        raise BenchError("tracing changed the recall output")

    def load(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    build_trace, recall_trace = load(trace_build), load(trace_recall)
    nq = len(traced["queries"])
    seconds, calls = Counter(), Counter()  # per span name, whole pass
    q_seconds, q_counts = Counter(), Counter()  # inside queries only
    setup_counts = Counter()
    for trace in (build_trace, recall_trace):
        for _, _, query, name, start, end in trace["spans"]:
            seconds[name] += end - start
            calls[name] += 1
            if query is not None:
                q_seconds[name] += end - start
                q_counts[name] += 1
        for query, name, n in trace["counts"]:
            (setup_counts if query is None else q_counts)[name] += n
    loaded = calls["fmindex.load_index"]
    steps = q_counts["decode.constraint_steps"]
    metrics = {
        "corpus.ingest_s": (seconds["corpus.ingest"], "s"),
        "fmindex.index_build_s": (seconds["fmindex.index_build"], "s"),
        "storage.write_s": (seconds["storage.write"], "s"),
        "storage.files_written": (calls["storage.write"], "count"),
        "storage.load_s": (seconds["storage.load"], "s"),
        "fmindex.indexes_loaded": (loaded, "count"),
        "fmindex.load_yield": (len(recall_trace["stage2_docs"]) / loaded, "ratio"),
        "scorer.train_s": (seconds["scorer.train"], "s"),
        "scorer.train_streams": (setup_counts["scorer.train_streams"], "count"),
        "pipeline.stage1_ms": (1000 * q_seconds["pipeline.stage1"] / nq, "ms/query"),
        "pipeline.stage2_ms": (1000 * q_seconds["pipeline.stage2"] / nq, "ms/query"),
        "pipeline.localize_ms": (1000 * q_seconds["pipeline.localize"] / nq, "ms/query"),
        "decode.constraint_steps": (steps / nq, "count/query"),
        "decode.step_yield": (q_counts["scorer.call"] / steps, "ratio"),
        "fmindex.backward_extends": (
            q_counts["fmindex.backward_extends"] / nq, "count/query"),
        "scorer.calls": (q_counts["scorer.call"] / nq, "count/query"),
        "scorer.candidates": (q_counts["scorer.candidates"] / nq, "count/query"),
        "scorer.busy_ms": (1000 * q_seconds["scorer.call"] / nq, "ms/query"),
        "trace.build_overhead": (
            traced_build["wall_s"] / statistics.mean(b["wall_s"] for b in plain_builds),
            "ratio"),
        "trace.setup_overhead": (
            traced["setup_s"] / statistics.mean(p["setup_s"] for p in plain), "ratio"),
        "trace.query_overhead": (
            sum(traced["latencies"]) / statistics.mean(sum(p["latencies"]) for p in plain),
            "ratio"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "passrecall", "cli.py")):
        print("run from the repository root: src/passrecall not found",
              file=sys.stderr)
        return 2
    work = os.path.join(".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    run = Run(args.workload, args.seed, work)
    try:
        if args.trace:
            metrics = traced_pass(run)
            keep = ("build.trace.json", "recall.trace.json")
        else:
            metrics = timed_pass(run, args.seconds)
            keep = ()
        correct = run.self_test_ok and run.builds_identical and all(run.ok)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    # Keep only the span files, for reading where time went.
    for name in keep:
        os.replace(os.path.join(work, name), os.path.join(
            ".bench_run", f"{args.workload}-{args.seed}.{name}"))
    shutil.rmtree(work)
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.ok),
        "failed": run.ok.count(False),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
