#!/usr/bin/env python3
"""Replay benchmark for the TRIC reproduction: TRIC+, TRIC and INC+ on SNB and
BIO streams by direct replay; traced runs add TRIC+ through Structured
Streaming.

    python3 tricbench/run.py --workload snb --seed 1 --seconds 32 --trace 0

Run from the root of a checkout. When a build input has changed, the script
compiles the repository and the benchmark with sbt (tricbench/build.sbt), then
measures each engine in a fresh JVM, timed rounds one JVM at a time, checks
every engine's answers and prints one JSON result as its last line. See tricbench/README.md
for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "tricbench"

ENGINES = ["tric_plus", "tric", "inc_plus"]
TRIE_ENGINES = ["tric_plus", "tric"]

WORKLOADS = ["snb", "bio"]

# Traced runs also replay the workload with TRIC+ through Structured
# Streaming, in a JVM of its own tagged STREAM: the stream.* metrics.
STREAM, STREAM_ENGINE = "stream", "tric_plus"

# A stop-the-world collector on one thread with a fixed heap and young
# generation: no resizing driven by pause time. The young generation is small
# enough that young collections land inside every replay (TRIC+ allocates
# ~0.8 GB per SNB replay), so their cost is part of every timing. The parallel
# collector's full GC (System.gc() before every round, outside the timed
# window) skips dead objects: ~20 ms against ~350 ms for the serial one.
# GC (1) + JIT compiler threads (2) + Spark cores (1) stay within the 4 CPUs
# the benchmark was tuned on.
JVM_FLAGS = [
    "-XX:+UseParallelGC", "-XX:ParallelGCThreads=1", "-XX:-UseAdaptiveSizePolicy",
    "-Xms2g", "-Xmx2g", "-Xmn512m", "-XX:+UseTransparentHugePages", "-XX:CICompilerCount=2", "-Xss8m",
]
# Direct replay: -Xbatch compiles a method when its counters call for it, with
# the replay thread waiting, rather than whenever a compiler thread gets to
# it. The code the JIT makes then depends on the inputs, not on how the
# machine scheduled the JVM's threads, and the same engine on the same inputs
# reads alike in every JVM. Spark's start-up runs so much code once that
# under -Xbatch it takes a minute, so the streaming JVM goes without.
DIRECT_JVM_FLAGS = JVM_FLAGS + ["-Xbatch"]

RUN_LIMIT_S = 170  # a run's JVMs are killed once the run has taken this long
MAX_ROUNDS = 200  # timed rounds per JVM, at most

END_TO_END_UNITS = {"upd_per_s": "upd/s", "p50_ms": "ms", "p99_ms": "ms", "mem_mb": "MB"}
LAYER_UNITS = {
    "index_ms": "ms", "busy_ms": "ms", "tail_share": "share", "affected_ratio": "share",
    "notify_ratio": "share", "edge_view_rows": "rows", "join_builds": "count", "bindings": "count",
    "alloc_kb_per_upd": "KiB/upd", "gc_share": "share", "trace_overhead_upd_per_s": "upd/s",
}
TRIE_UNITS = {"trie_nodes": "count", "trie_share": "edges/node", "view_rows": "rows"}
SHARED_UNITS = {"query.cover_ms": "ms", "query.paths_per_query": "paths/query", "check.matcher_ms": "ms"}
STREAM_UNITS = {"stream.session_s": "s", "stream.batches": "count", "stream.overhead_ms_per_batch": "ms/batch",
                "stream.engine_share": "share"}


class BenchError(Exception):
    pass


def build():
    """Compile the repository and the benchmark when a build input changed and
    return the JVM options and classpath that start EngineRun, as the build's
    `benchLaunch` task wrote them."""
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        raise BenchError(f"no program sources under {ROOT / 'src' / 'main' / 'scala'}: run from the root of a checkout")
    if not shutil.which("sbt"):
        raise BenchError("sbt not found on PATH")
    files = [p for p in (ROOT / "build.sbt", ROOT / "project" / "build.properties",
                         HERE / "build.sbt", HERE / "project" / "build.properties") if p.is_file()]
    files += sorted(p for d in (ROOT / "src" / "main", ROOT / "jobs", HERE / "src" / "main") if d.is_dir()
                    for p in d.rglob("*") if p.is_file())
    digest = hashlib.sha256(str(ROOT).encode())
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    launch, stamp = HERE / "target" / "launch.txt", BUILD / "launch.stamp"
    if not (stamp.is_file() and stamp.read_text() == digest.hexdigest() and launch.is_file()):
        print("building with sbt", file=sys.stderr)
        BUILD.mkdir(parents=True, exist_ok=True)
        # sbt's global state goes under .bench_build; no server, no downloads
        cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.offline=true",
               f"-Dsbt.global.base={BUILD / 'sbt'}", "benchLaunch"]
        res = subprocess.run(cmd, cwd=HERE, env=dict(os.environ, COURSIER_MODE="offline"),
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=800)
        if res.returncode != 0 or not launch.is_file():
            raise BenchError("build failed:\n" + res.stdout[-4000:])
        stamp.write_text(digest.hexdigest())
    return launch.read_text().splitlines()


class Jvm:
    """EngineRun measuring one engine in a fresh JVM, driven one line each
    way over its standard input and output. Its log goes to <tag>.log and its
    result to <tag>.json."""

    def __init__(self, launch, run_dir, tag, flags, argv):
        self.tag, self.log, self.out = tag, run_dir / f"{tag}.log", run_dir / f"{tag}.json"
        tmp = run_dir / "tmp"
        tmp.mkdir(exist_ok=True)
        cmd = (["java"] + flags + [f"-Djava.io.tmpdir={tmp}"] + launch +
               ["repro.tricbench.EngineRun", "--out", str(self.out), "--local-dir", str(tmp)] + argv)
        with open(self.log, "w") as lf:
            self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=lf, text=True)
        self.rounds = self.min_rounds = 0

    def warm_up(self):
        self.min_rounds = int(self.ask(None, "ready").split()[1])

    def tell(self, command):
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except OSError:
            pass  # the JVM has gone; the next read fails the run

    def ask(self, command, reply):
        """Send `command` (if any) and read the JVM's answer, which must start
        with `reply`; anything else stops the JVM and fails the run."""
        if command:
            self.tell(command)
        try:
            line = self.proc.stdout.readline()
        except OSError:
            line = ""
        if not line.startswith(reply):
            if self.proc.poll() is None:
                self.proc.kill()
            code = self.proc.wait()
            tail = self.log.read_text(errors="replace").splitlines()[-25:]
            raise BenchError(f"{self.tag}: JVM exited with {code} (log {self.log}):\n" + "\n".join(tail))
        return line

    def round(self):
        self.ask("round", "done")
        self.rounds += 1

    def request_finish(self):
        self.tell("finish")

    def finish(self):
        self.ask(None, "finished")
        self.proc.wait()
        return json.loads(self.out.read_text())


def measure(launch, run_dir, seconds, specs, started):
    """Start one JVM per (tag, JVM flags, EngineRun argv) of `specs`; they generate their inputs
    and warm up side by side. Then alternate timed rounds between them, one
    JVM at a time, until `seconds` have passed and each has its fewest rounds:
    a slow phase of the machine thus falls on every engine alike. The JVMs
    check and measure memory side by side again. Returns each JVM's result."""
    group = []
    for tag, flags, argv in specs:
        group.append(Jvm(launch, run_dir, tag, flags, argv))
        started.append(group[-1])
    for j in group:
        j.warm_up()
    t0 = time.monotonic()
    while (time.monotonic() - t0 < seconds and group[0].rounds < MAX_ROUNDS) or \
            any(j.rounds < j.min_rounds for j in group):
        for j in group:
            j.round()
    for j in group:
        j.request_finish()
    return {j.tag: j.finish() for j in group}


def read_answers(path):
    return path.read_text().split("\n")


def disagreements(a, b):
    """Updates on which two per-update answer sequences differ."""
    return sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))


def gate(results, answers):
    """The workload's correctness gate. `results` maps each JVM's tag to its
    EngineRun result, `answers` maps it to its per-update answer lines. Every
    JVM's own checks must pass and every answer sequence must equal the first
    one. Returns (failures, attempted, failed): on any failure every operation
    of the workload counts as failed."""
    failures = [f"{t}: {c['name']}: {c['detail']}" for t, r in results.items() for c in r["checks"] if not c["ok"]]
    tags = list(answers)
    for t in tags[1:]:
        n = disagreements(answers[tags[0]], answers[t])
        if n:
            failures.append(f"{t} disagrees with {tags[0]} on {n} of {len(answers[tags[0]])} updates")
    attempted = sum(r["rounds"] * r["updates_per_round"] for r in results.values())
    return failures, attempted, attempted if failures else 0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(results):
    m = {"setup_s": metric(sum(r["index_ms"] for r in results.values()) / 1e3, "s")}
    for e, r in results.items():
        for k, unit in END_TO_END_UNITS.items():
            m[f"{e}.{k}"] = metric(r[k], unit)
    return m


def per_layer(results):
    direct = {t: r["layer"] for t, r in results.items() if t != STREAM}
    m = {k: metric(statistics.median(l[k] for l in direct.values()), unit) for k, unit in SHARED_UNITS.items()}
    for e, layer in direct.items():
        units = dict(LAYER_UNITS, **(TRIE_UNITS if e in TRIE_ENGINES else {}))
        m.update({f"{e}.{k}": metric(layer[k], unit) for k, unit in units.items()})
    if STREAM in results:
        s = results[STREAM]
        m.update({k: metric(s["layer"][k], unit) for k, unit in STREAM_UNITS.items()})
        m.update({f"stream.{k}": metric(s[k], END_TO_END_UNITS[k]) for k in ("upd_per_s", "p50_ms", "p99_ms")})
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="shuffles the order Q_DB is indexed in and renumbers the query ids")
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed window of a run, over which the engines' rounds alternate")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--engine", choices=ENGINES, help="isolation mode: measure this engine alone, by direct replay")
    ap.add_argument("--stream-seed", type=int, help="stream generator seed (default: SNB 7, BIO 13)")
    ap.add_argument("--query-seed", type=int, help="query generator seed (default 42)")
    args = ap.parse_args(argv)

    launch = build()

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (f"-{args.engine}" if args.engine else "")
    run_dir = BUILD / "runs" / run_name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    common = ["--dataset", args.workload, "--order-seed", str(args.seed), "--trace", str(args.trace)]
    if args.stream_seed is not None:
        common += ["--stream-seed", str(args.stream_seed)]
    if args.query_seed is not None:
        common += ["--query-seed", str(args.query_seed)]

    # One fresh JVM per engine, by direct replay; traced runs then replay
    # TRIC+ through Spark in a JVM of its own. Isolation mode gives its one
    # engine the same timed window as a full run.
    def spec(tag, engine, path):
        flags = DIRECT_JVM_FLAGS if path == "direct" else JVM_FLAGS
        return tag, flags, common + ["--engine", engine, "--path", path,
                                     "--answers-out", str(run_dir / f"{tag}.answers"),
                                     "--trace-out", str(run_dir / f"{tag}.spans.jsonl")]

    started = []
    killed = []

    def kill_all():
        killed.append(True)
        for j in started:
            j.proc.kill()

    watchdog = threading.Timer(RUN_LIMIT_S, kill_all)
    watchdog.start()
    try:
        results = measure(launch, run_dir, args.seconds,
                          [spec(e, e, "direct") for e in ([args.engine] if args.engine else ENGINES)], started)
        if args.trace and not args.engine:
            results.update(measure(launch, run_dir, 0, [spec(STREAM, STREAM_ENGINE, "stream")], started))
    except BenchError as err:
        raise BenchError(f"killed, the run exceeded {RUN_LIMIT_S} s" if killed else str(err))
    finally:
        watchdog.cancel()
        for j in started:
            if j.proc.poll() is None:
                j.proc.kill()
            j.proc.wait()

    answers = {t: read_answers(run_dir / f"{t}.answers") for t in results}
    failures, attempted, failed = gate(results, answers)
    metrics = end_to_end(results) if args.trace == 0 else per_layer(results)

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "failures": failures,
        "per_jvm": {t: {k: r[k] for k in r if k not in ("layer", "env", "checks")} for t, r in results.items()},
        "checks": {t: r["checks"] for t, r in results.items()},
        "layer_bases": {t: {k: v for k, v in r.get("layer", {}).items() if ".base" in k} for t, r in results.items()},
        "environment": {t: r["env"] for t, r in results.items()},
        "run_limit_s": RUN_LIMIT_S,
    }
    (run_dir / "result.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({"details": details}))
    for f in failures:
        print("FAILED: " + f, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"tricbench: {err}", file=sys.stderr)
        sys.exit(2)
