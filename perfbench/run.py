"""The repository benchmark: one workload per run, end to end or split
into layers.

    python3 perfbench/run.py --workload road_paths --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each is there):

* ``road_paths`` — k-source shortest paths (Example 2.6) over a grid
  road network streamed from CSV;
* ``bulk_ingest`` — a ~100k-arc road CSV through ``Database.load_csv``
  and a selective non-recursive ``min``;
* ``serve_mixed`` — ``repro serve`` in its own process hosting twelve
  small databases of the four paper families, under a seeded request mix.

``--trace 0`` measures untraced and reports the end-to-end metrics,
host-adjusted (``speed.py`` says how and why);
``--trace 1`` reports the per-layer metrics.  Human-readable lines come
first (every metric with its unit and sample count, the host
fingerprint, the oracle verdict); the last line is one JSON object.
The exit code is 0 only when every output matched its oracle.  Files
are written under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import gen
import speed
from serve_load import LATE_LIMIT_MS, LoadGenerator, Phase, Server

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Fixed open-loop rates (requests/s) of ``serve_mixed``, well below the
#: ~85 requests/s the closed loop reaches on a 2-core host.
LIGHT_RPS = 25.0
BUSY_RPS = 50.0
#: ``serve_mixed`` hosts one fixed dataset, as a deployed service does;
#: ``--seed`` drives its traffic: arrival times and the request mix.
DATASET_SEED = 2024
#: A closed-loop warm-up takes ``WARM_SHARE`` of ``--seconds``; then the
#: phases run as short segments (name, share of ``--seconds``, rate),
#: cycled ``CYCLES`` times, so that the host's speed swings (seconds long
#: on a shared machine) reach every phase alike.  Each open-loop segment
#: starts with an empty queue.
WARM_SHARE = 0.04
CYCLE = (("light", 0.095, LIGHT_RPS), ("busy", 0.06, BUSY_RPS), ("closed", 0.035, None))
CYCLES = 5
#: Process launches per run, each timed until it can serve the first
#: timed operation; set-up is their median.
LAUNCHES = 5
#: Batch input sizes: grid side and number of query seeds.
SIZES = {"road_paths": (40, 4), "bulk_ingest": (158, 200)}
WORKLOADS = ("road_paths", "bulk_ingest", "serve_mixed")
#: The processor the process under test (worker or server) is pinned
#: to; the harness keeps to the others.  Its speed is probed there.
UNDER_TEST = speed.under_test_cpus()


def metric_units(kind: str) -> Dict[str, str]:
    """``BENCHMARK.json``'s ``end_to_end`` or ``per_layer`` metrics:
    name -> unit.  Every workload reports all of them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class Report:
    """Collects metrics as ``name -> (value, unit, samples)``."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, samples)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


# -- host ------------------------------------------------------------------


def fingerprint() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        # the host-speed probe on the processor under test, as a reference
        "calibration_s": statistics.median(speed.probe_on(UNDER_TEST) for _ in range(9)),
    }


def git_sha() -> Optional[str]:
    """HEAD's commit when the checkout is a git repository, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def src_digest() -> str:
    """SHA-256 over the engine's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # Fixed string hashing, so set iteration order and every count repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


# -- batch workloads ---------------------------------------------------------


def batch_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """The road CSV, the query seeds, and the oracle's answer."""
    side, k = SIZES[workload]
    rng = random.Random(seed)
    arcs = gen.road_grid(side, rng)
    csv = os.path.join(WORK, f"{workload}-{seed}.csv")
    gen.write_csv(csv, arcs)
    seeds = sorted(rng.sample(range(side * side), k))
    if workload == "road_paths":
        expected = [
            [s, t, d] for s in seeds for t, d in gen.shortest_distances(arcs, s).items()
        ]
    else:
        expected = [[u, c] for u, c in gen.min_out_arc(csv, set(seeds)).items()]
    return {"workload": workload, "csv": csv, "seeds": seeds, "expected": expected}


def run_worker(spec: Dict[str, Any], tag: str) -> Tuple[float, float, Dict[str, Any]]:
    """Launch ``worker.py``; returns (seconds until READY, a host-speed
    probe timed just before the launch, its result)."""
    spec_path = os.path.join(WORK, f"{tag}.spec.json")
    out_path = os.path.join(WORK, f"{tag}.out.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    before = speed.probe_on(UNDER_TEST)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, out_path],
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: speed.pin(UNDER_TEST),
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {tag} failed (exit {code})")
    with open(out_path, encoding="utf-8") as handle:
        return ready, before, json.load(handle)


def batch_e2e(workload: str, seed: int, seconds: float, report: Report) -> None:
    spec = batch_inputs(workload, seed)
    spec.update(mode="e2e", seconds=seconds / LAUNCHES)
    setups, raw_setups, walls, raw_walls, probes, rss = [], [], [], [], [], []
    for i in range(LAUNCHES):
        ready, before, out = run_worker(spec, f"{workload}-e2e-{i}")
        # the worker probes right after READY, before its first solve
        setups.append(ready * speed.factor(before, out["probes"][0]))
        raw_setups.append(ready)
        walls += speed.adjusted(out["walls"], out["probes"])
        raw_walls += out["walls"]
        probes += out["probes"]
        rss.append(out["peak_rss_mb"])
        report.count(out["attempted"], out["failed"])
    adjusted_s = statistics.median(walls)
    report.add("setup_s", statistics.median(setups), "s", len(setups))
    report.add("op_p50_ms", adjusted_s * 1000.0, "ms", len(walls))
    report.add("op_per_s", len(walls) / sum(walls), "1/s", len(walls))
    report.add("peak_rss_mb", statistics.median(rss), "MB", len(rss))
    report.add("solve_s", statistics.median(raw_walls), "s", len(raw_walls))
    report.add("raw.setup_s", statistics.median(raw_setups), "s", len(raw_setups))
    report.add("host.probe_s", statistics.median(probes), "s", len(probes))


def batch_layers(workload: str, seed: int, seconds: float, report: Report) -> None:
    spec = batch_inputs(workload, seed)
    spec.update(mode="layers", seconds=seconds)
    _, _, out = run_worker(spec, f"{workload}-layers")
    layers = out["layers"]
    report.count(out["attempted"], out["failed"])
    rounds = out["rounds"]
    for name, unit in metric_units("per_layer").items():
        if name in layers:
            report.add(name, layers[name], unit, rounds)
    for name in ("data.scan_s", "layers.sum_s"):
        report.add(name, layers[name], "s", rounds)
    report.add("layers.max_share", layers["layers.max_share"], "ratio", rounds)
    report.add("solve_s", layers["e2e.untraced_s"], "s", rounds)
    if workload == "road_paths":
        share = layers["engine.solve_share"]
        report.notes.append(
            f"prediction engine.solve_s >= 80% of solve_s: {share:.1%} "
            f"({'holds' if share >= 0.8 else 'fails'})"
        )
    else:
        largest = out["largest_layer"]
        report.notes.append(
            f"prediction data.edb_s is the largest layer: largest is {largest} "
            f"({'holds' if largest == 'data.edb_s' else 'fails'})"
        )


# -- serve_mixed -------------------------------------------------------------


def serve_inputs() -> Tuple[List[str], List[Dict]]:
    """Writes the hosted databases; returns the ``repro serve`` command
    and the databases, each with ``rows``: its reference answer, as the
    client sees it through JSON."""
    sys.path.insert(0, SRC)
    from repro.core.database import Database

    databases = gen.serve_databases(DATASET_SEED)
    argv = [sys.executable, "-m", "repro", "serve"]
    for hosted in databases:
        path = os.path.join(WORK, f"{hosted['name']}.mad")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(hosted["text"])
        argv.append(f"{hosted['name']}={path}")
        db = Database(name=hosted["name"])
        db.load(hosted["text"])
        relation = db.solve(method="auto").model.relation(hosted["query"])
        rows = json.loads(json.dumps([list(row) for row in relation.rows()], default=str))
        if sorted(map(tuple, rows)) != sorted(map(tuple, hosted["oracle"])):
            raise RuntimeError(f"reference solve of {hosted['name']} fails its oracle")
        hosted["rows"] = rows
    argv += ["--flight-dir", WORK, "--checkpoint-dir", WORK]
    return argv, databases


def tail(values: List[float], q: float) -> Tuple[float, int]:
    """The nearest-rank ``q`` quantile and how many samples lie beyond it."""
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[index], len(ordered) - 1 - index


def summarize_phase(phase, report: Report, prefix: str) -> Dict[str, float]:
    report.count(len(phase.samples), phase.failed)
    if phase.server_ok != phase.ok_count:
        report.count(0, 1)
        report.notes.append(
            f"{phase.name}: server counted {phase.server_ok} ok, generator {phase.ok_count}"
        )
    done = [s for s in phase.samples if s.ok]
    if not done:
        raise RuntimeError(f"phase {phase.name} completed no request")
    late, _ = tail([(s.woke - s.due) * 1000.0 for s in phase.samples], 0.99)
    latency = [(s.done - s.due) * 1000.0 for s in done]
    adjusted = [(s.done - s.due) * 1000.0 * s.scale for s in done]
    queue = [(s.sent - s.due) * 1000.0 for s in done]
    p99, beyond = tail(latency, 0.99)
    stats = {
        "p50_ms": statistics.median(latency),
        "adjusted_p50_ms": statistics.median(adjusted),
        "p99_ms": p99,
        "late_p99_ms": late,
        "queue_p50_ms": statistics.median(queue),
        "queue_p99_ms": tail(queue, 0.99)[0],
        "server_p50_ms": statistics.median(s.server_wall_s * 1000.0 for s in done),
        "http_p50_ms": statistics.median((s.done - s.sent - s.server_wall_s) * 1000.0 for s in done),
        "bytes_mean": statistics.fmean(s.body_bytes for s in done),
        "done": len(done),
    }
    if late > LATE_LIMIT_MS:
        report.notes.append(
            f"{phase.name} phase invalid: generator p99 lateness {late:.2f} ms > {LATE_LIMIT_MS} ms"
        )
        report.count(0, 1)
    report.add(f"{prefix}.p50_ms", stats["p50_ms"], "ms", len(done))
    report.add(f"{prefix}.p99_ms", p99, "ms", len(done))
    report.notes.append(f"{prefix}.p99_ms has {beyond} samples beyond it")
    return stats


def serve_phases(
    port: int, databases: List[Dict], seed: int, seconds: float, cycle
) -> Tuple[Dict[str, Any], float, List[float]]:
    """Warms up, then runs ``CYCLES`` rounds of ``cycle``'s segments.
    Returns the pooled phases by name, the repeat share, and the
    host-speed probes taken between segments on the server's processor."""
    generator = LoadGenerator(
        port,
        databases,
        seed,
        connections=min(2, os.cpu_count() or 1),
        # the median of three, as segments are few
        probe=lambda: statistics.median(speed.probe_on(UNDER_TEST) for _ in range(3)),
    )
    phases = {name: Phase(name) for name in ["warm"] + [name for name, _, _ in cycle]}

    async def run() -> None:
        await generator.run(phases["warm"], None, WARM_SHARE * seconds)
        for _ in range(CYCLES):
            for name, share, rate in cycle:
                await generator.run(phases[name], rate, share * seconds)

    asyncio.run(run())
    return phases, generator.repeats / max(1, generator.sent), generator.probes


def launch(argv: List[str], env: Dict[str, str]) -> Tuple[Server, float, float]:
    """A ready server, and its set-up time host-adjusted and raw."""
    before = speed.probe_on(UNDER_TEST)
    server = Server(argv, env, WORK, UNDER_TEST)
    try:
        ready = server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server, ready * speed.factor(before, speed.probe_on(UNDER_TEST)), ready


def serve_e2e(seed: int, seconds: float, report: Report) -> None:
    argv, databases = serve_inputs()
    env = child_env()
    setups, raw_setups = [], []
    for _ in range(LAUNCHES - 1):
        server, ready, raw = launch(argv, env)
        setups.append(ready)
        raw_setups.append(raw)
        if server.stop() != 0:
            raise RuntimeError("server did not drain cleanly")
    server, ready, raw = launch(argv, env)
    setups.append(ready)
    raw_setups.append(raw)
    try:
        phases, _, probes = serve_phases(server.port, databases, seed, seconds, CYCLE)
        rss = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited with {code} after draining")
    warm, light, closed = phases["warm"], phases["light"], phases["closed"]
    report.count(len(warm.samples), warm.failed)
    light_stats = summarize_phase(light, report, "serve.light")
    busy_stats = summarize_phase(phases["busy"], report, "serve.busy")
    late = max(light_stats["late_p99_ms"], busy_stats["late_p99_ms"])
    report.add("serve.generator_late_ms", late, "ms", len(light.samples) + len(phases["busy"].samples))
    report.count(len(closed.samples), closed.failed)
    completed = sum(s.ok for s in closed.samples)
    capacity = completed / closed.seconds
    report.add("setup_s", statistics.median(setups), "s", len(setups))
    report.add("op_p50_ms", light_stats["adjusted_p50_ms"], "ms", len(light.samples))
    report.add("op_per_s", completed / closed.adjusted_seconds, "1/s", len(closed.samples))
    report.add("peak_rss_mb", rss, "MB", 1)
    report.add("serve.capacity_rps", capacity, "1/s", len(closed.samples))
    report.add("raw.setup_s", statistics.median(raw_setups), "s", len(raw_setups))
    report.add("host.probe_s", statistics.median(probes), "s", len(probes))


def serve_layers(seed: int, seconds: float, report: Report) -> None:
    argv, databases = serve_inputs()
    server, _, _ = launch(argv, child_env())
    try:
        cycle = (("light", 0.08, LIGHT_RPS),)
        phases, repeat_share, _ = serve_phases(server.port, databases, seed, seconds, cycle)
        light = phases["light"]
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited with {code} after draining")
    stats = summarize_phase(light, report, "serve.light")
    spec = {
        "mode": "serve_layers",
        "seconds": 0.45 * seconds,
        "workdir": WORK,
        "databases": [
            {key: hosted[key] for key in ("name", "text", "query", "rows")}
            for hosted in databases
        ],
    }
    _, _, out = run_worker(spec, "serve-layers")
    layers = out["layers"]
    report.count(out["attempted"], out["failed"])
    n = out["attempted"]
    for name, unit in metric_units("per_layer").items():
        if name in layers:
            report.add(name, layers[name], unit, n)
    m = len(light.samples)
    report.add("serve.server_ms", stats["server_p50_ms"], "ms", m)
    report.add("serve.http_ms", stats["http_p50_ms"], "ms", m)
    report.add("serve.queue_ms", stats["queue_p50_ms"], "ms", m)
    report.add("serve.queue_p99_ms", stats["queue_p99_ms"], "ms", m)
    report.add("serve.generator_late_ms", stats["late_p99_ms"], "ms", m)
    report.add("serve.repeat_share", repeat_share, "ratio", m)
    report.add("serve.response_bytes", stats["bytes_mean"], "B", m)
    # Closure of one request's server-side work: its layers against
    # RequestSupervisor.execute timed in the same rounds.  Transport and
    # queue wait add to that exactly (they are measured per request as
    # the remainder), and waiting for the interpreter lock while another
    # request runs shows as serve.overlap_share.
    report.add("serve.request_ms", 1000.0 * layers["e2e.request_s"], "ms", n)
    report.add("layers.sum_s", layers["layers.sum_s"], "s", n)
    report.add("layers.max_share", layers["layers.max_share"], "ratio", n)
    report.add("serve.overlap_share", 1.0 - len(solo_requests(light)) / stats["done"], "ratio", m)
    fixed = 1000.0 * layers["analysis.analyze_s"] + layers["serve.request_trace_ms"]
    share = fixed / stats["server_p50_ms"]
    report.add("serve.fixed_share", share, "ratio", m)
    report.notes.append(
        f"prediction analysis.analyze_s + serve.request_trace_ms >= 20% of "
        f"serve.server_ms: {share:.1%} ({'holds' if share >= 0.2 else 'fails'})"
    )


def solo_requests(phase) -> List:
    """Completed requests whose service overlapped no other request."""
    done = sorted((s for s in phase.samples if s.ok), key=lambda s: s.sent)
    solo = []
    busy_until = 0.0
    for i, sample in enumerate(done):
        after = done[i + 1].sent if i + 1 < len(done) else float("inf")
        if busy_until <= sample.sent and sample.done <= after:
            solo.append(sample)
        busy_until = max(busy_until, sample.done)
    return solo


# -- entry point -------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no engine sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    if UNDER_TEST:
        speed.pin(os.sched_getaffinity(0) - UNDER_TEST)
    host = fingerprint()
    report = Report()
    if args.workload == "serve_mixed":
        (serve_layers if args.trace else serve_e2e)(args.seed, args.seconds, report)
    else:
        (batch_layers if args.trace else batch_e2e)(
            args.workload, args.seed, args.seconds, report
        )
    correct = report.failed == 0
    report.add("failed_ratio", report.failed / max(1, report.attempted), "ratio", report.attempted)
    print(f"host {json.dumps(host, sort_keys=True)}")
    for name, (value, unit, samples) in sorted(report.metrics.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={samples})")
    for note in report.notes:
        print(f"{args.workload} note: {note}")
    print(f"{args.workload} oracle: {'all outputs match' if correct else 'MISMATCH'}")
    wanted = metric_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name][0], "unit": report.metrics[name][1]}
            for name in wanted
        },
    }
    with open(
        os.path.join(WORK, f"report-{args.workload}-{args.seed}-{args.trace}.json"),
        "w",
        encoding="utf-8",
    ) as handle:
        json.dump({"host": host, "result": result, "all": report.metrics, "notes": report.notes}, handle)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
