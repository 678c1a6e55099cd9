"""End-to-end benchmark of the bpfree reproduction.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `bpfree` and the in-process helper
(`e2ebench/helper`) from source into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs one workload for `--seconds` of measurement,
checks every output, and prints one JSON result as the last stdout line:
the end-to-end metrics with `--trace 0`, the per-layer metrics of a
separate traced run with `--trace 1`. See `e2ebench/README.md`.

Workloads:
  cold_all        `bpfree exp all --jobs 2` on an empty store, repeated
  warm_all        `bpfree exp all --jobs 1` on a store filled in set-up
  static_predict  compile + classify + predict suite programs in-process
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

ROOT = os.getcwd()
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BPFREE = os.path.join(TARGET, "release", "bpfree")
HELPER = os.path.join(TARGET, "release", "e2ebench-helper")

# Set-up repetitions whose median is `setup_s`.
ORACLE_REPS = 3
FILL_REPS = 3
STATIC_SETUP_REPS = 9

# The registry's experiments, in run order.
EXPERIMENT_NAMES = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "graph1", "graphs4_11", "graph12", "graph13", "btfnt", "extensions",
    "ff_stability", "freq_estimate", "leave_one_out", "opt_ablate",
    "ordering_ablate", "summary_json",
]


def log(msg):
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def build():
    """Builds both binaries; a checkout that cannot build is an error."""
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    for args in (
        ["cargo", "build", "--release", "--offline", "--bin", "bpfree"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("e2ebench", "helper", "Cargo.toml")],
    ):
        if not os.path.isfile("Cargo.toml"):
            fail("no Cargo.toml here: run from the repository root")
        r = subprocess.run(args, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(args)}")


def child_env(jobs=None):
    """The environment of every program the benchmark starts: none of
    the user's bpfree settings leak in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BPFREE_")}
    if jobs is not None:
        env["BPFREE_JOBS"] = str(jobs)
    return env


class Proc:
    """One finished child process: wall, CPU and peak RSS of that child
    alone (from `wait4`), its exit code and its stdout."""

    def __init__(self, args, work, jobs=None):
        out_path = os.path.join(work, "stdout")
        err_path = os.path.join(work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            p = subprocess.Popen(args, stdout=out, stderr=err, env=child_env(jobs))
            _, status, usage = os.wait4(p.pid, 0)
            self.wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        self.code = p.returncode
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        with open(out_path, encoding="utf-8", errors="replace") as f:
            self.stdout = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            self.stderr = f.read()

    def result(self, what):
        if self.code != 0:
            fail(f"{what} exited {self.code}: {self.stderr[-2000:]}")
        return json.loads(self.stdout.strip().splitlines()[-1])


def exp_all(work, store, jobs):
    p = Proc([BPFREE, "exp", "all", "--jobs", str(jobs), "--cache-dir", store], work)
    log(f"exp all --jobs {jobs}: wall {p.wall:.3f}s cpu {p.cpu:.3f}s rss {p.rss_mb:.1f}MB")
    return p


def helper(work, *args, jobs=None):
    return Proc([HELPER, *args], work, jobs=jobs)


def dir_size(path):
    """(files, bytes) of a store directory."""
    files = total = 0
    for dirpath, _, names in os.walk(path):
        for n in names:
            files += 1
            total += os.path.getsize(os.path.join(dirpath, n))
    return files, total


class Checker:
    """Counts the operations (experiments) of `exp all` passes and the
    ones that fail their checks."""

    def __init__(self, oracle, line_counts, reference_text):
        self.line_counts = line_counts
        self.reference = benchlib.split_segments(reference_text, line_counts)
        self.checks = benchlib.content_checks(oracle)
        self.attempted = 0
        self.failed = 0

    def add(self, proc):
        bad = benchlib.failed_experiments(
            proc.stdout, proc.code, self.line_counts, self.reference, self.checks
        )
        if bad:
            log(f"failed experiments: {', '.join(bad)}")
        self.attempted += len(self.line_counts)
        self.failed += len(bad)


def line_counts_of(pass_json):
    """Each experiment's output line count, in registry order. The
    per-layer metrics name the 19 experiments, so a different registry
    is an error, not a silent zero."""
    counts = [(name, n) for name, n in pass_json["lines"]]
    if [name for name, _ in counts] != EXPERIMENT_NAMES:
        fail(f"the registry lists {[n for n, _ in counts]}, expected {EXPERIMENT_NAMES}")
    return counts


# ------------------------------------------------------------- workloads


def cold_all(work, seconds):
    # Set-up: the reference answers, recomputed ORACLE_REPS times.
    oracle = helper(work, "oracle", "--reps", str(ORACLE_REPS)).result("oracle")
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        store = os.path.join(work, f"store{len(passes)}")
        passes.append(exp_all(work, store, jobs=2))
        if passes[1:]:
            shutil.rmtree(store)
    # Experiment boundaries come from the registry, run on the first
    # pass's store.
    counts = line_counts_of(
        helper(work, "pass", "--cache-dir", os.path.join(work, "store0"), jobs=1).result("pass")
    )
    checker = Checker(oracle["benchmarks"], counts, passes[0].stdout)
    for p in passes:
        checker.add(p)
    return checker, passes, benchlib.median(oracle["reps_s"])


def warm_all(work, seconds):
    # Set-up: fill the store FILL_REPS times (each a cold pass into a
    # fresh store); the last store is the one measured against.
    fills = []
    for i in range(FILL_REPS):
        store = os.path.join(work, f"fill{i}")
        if fills:
            shutil.rmtree(os.path.join(work, f"fill{i - 1}"))
        fills.append(exp_all(work, store, jobs=2))
        if fills[-1].code != 0:
            fail(f"store fill exited {fills[-1].code}: {fills[-1].stderr[-2000:]}")
    oracle = helper(work, "oracle").result("oracle")
    counts = line_counts_of(helper(work, "pass", "--cache-dir", store, jobs=1).result("pass"))
    checker = Checker(oracle["benchmarks"], counts, fills[-1].stdout)
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        passes.append(exp_all(work, store, jobs=1))
    for p in passes:
        checker.add(p)
    return checker, passes, benchlib.median([f.wall for f in fills])


def end_to_end(workload, work, seconds, seed):
    if workload == "static_predict":
        proc = helper(
            work, "static", "--seed", str(seed), "--seconds", str(seconds),
            "--setup-reps", str(STATIC_SETUP_REPS),
        )
        r = proc.result("static")
        metrics = {
            "wall_s": (benchlib.median(r["sweep_wall_s"]), "s"),
            "cpu_s": (r["sweep_cpu_s"], "s"),
            "peak_rss_mb": (proc.rss_mb, "MB"),
            "setup_s": (benchlib.median(r["setup_s"]), "s"),
        }
        return r["attempted"], r["failed"], metrics
    run = cold_all if workload == "cold_all" else warm_all
    checker, passes, setup = run(work, seconds)
    metrics = {
        "wall_s": (benchlib.median([p.wall for p in passes]), "s"),
        "cpu_s": (benchlib.median([p.cpu for p in passes]), "s"),
        "peak_rss_mb": (benchlib.median([p.rss_mb for p in passes]), "MB"),
        "setup_s": (setup, "s"),
    }
    return checker.attempted, checker.failed, metrics


# ----------------------------------------------------------------- trace

LAYER_UNITS = {
    "lang.parse_s": "s",
    "lang.compile_s": "s",
    "lang.ir_instrs": "count",
    "core.classify_s": "s",
    "core.predict_s": "s",
    "core.branches": "count",
    "core.ordering_study_s": "s",
    "sim.decode_s": "s",
    "sim.run_s": "s",
    "sim.trace_s": "s",
    "sim.dyn_instrs": "count",
    "sim.minstrs_per_s": "Minstr/s",
    "suite.datasets_s": "s",
}
COUNTERS = ["simulations", "analyses", "orderings", "compiles", "decodes", "trace_records"]
TAIL_UNITS = {
    "cache.read_s": "s",
    "cache.entries": "count",
    "cache.bytes": "bytes",
    **{f"engine.{c}": "count" for c in COUNTERS},
    "par.speedup": "ratio",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
}
TIMED_LAYERS = {k for k, u in LAYER_UNITS.items() if u == "s"} | {
    f"bench.{n}_s" for n in EXPERIMENT_NAMES
} | {"cache.read_s"}


def per_layer_names():
    return (
        list(LAYER_UNITS)
        + [f"bench.{n}_s" for n in EXPERIMENT_NAMES]
        + list(TAIL_UNITS)
    )


def unit_of(name):
    return LAYER_UNITS.get(name) or TAIL_UNITS.get(name) or "s"


def traced(workload, work, seconds, seed):
    """The per-layer run: untraced passes for the reference wall and the
    parallel speed-up, then one pass traced layer by layer in-process.
    Layers a workload does not touch read 0."""
    values = dict.fromkeys(per_layer_names(), 0.0)
    if workload == "static_predict":
        proc = helper(
            work, "static", "--seed", str(seed), "--seconds", str(max(1, seconds // 2)),
            "--setup-reps", "1", "--trace",
        )
        r = proc.result("static")
        layers = r["layers"]
        values.update(layers)
        untraced = benchlib.median(r["sweep_wall_s"])
        timed_sum = sum(v for k, v in layers.items() if k in TIMED_LAYERS)
        values["unattributed_s"] = untraced - timed_sum
        values["trace_overhead_s"] = benchlib.median(r["traced_sweep_wall_s"]) - untraced
        values["req_p50_ms"] = benchlib.percentile(r["latency_ms"], 50)
        values["req_p99_ms"] = benchlib.percentile(r["latency_ms"], 99)
        return r["attempted"], r["failed"], values

    oracle = helper(work, "oracle").result("oracle")
    store = os.path.join(work, "store")
    if workload == "cold_all":
        one = exp_all(work, os.path.join(work, "untraced1"), jobs=1)
        two = exp_all(work, os.path.join(work, "untraced2"), jobs=2)
        reference = two
        t = helper(work, "pass", "--cache-dir", store, "--reread", jobs=1).result("pass")
        values["cache.read_s"] = t["reread_s"]
    else:
        reference = exp_all(work, store, jobs=2)
        one = exp_all(work, store, jobs=1)
        two = exp_all(work, store, jobs=2)
        t = helper(work, "pass", "--cache-dir", store, jobs=1).result("pass")
        values["cache.read_s"] = t["layers"].get("cache.read_s", 0.0)
    checker = Checker(oracle["benchmarks"], line_counts_of(t), reference.stdout)
    checker.add(one)
    checker.add(two)

    layers = t["layers"]
    for k, v in layers.items():
        if k != "cache.read_s":
            values[k] = v
    values["lang.ir_instrs"] = t["ir_instrs"]
    values["core.branches"] = t["branches"]
    values["sim.dyn_instrs"] = t["dyn_instrs"]
    interp_s = layers.get("sim.run_s", 0.0) + layers.get("sim.trace_s", 0.0)
    values["sim.minstrs_per_s"] = t["dyn_instrs"] / interp_s / 1e6 if interp_s else 0.0
    for c in COUNTERS:
        values[f"engine.{c}"] = t["counters"][c]
    values["cache.entries"], values["cache.bytes"] = dir_size(store)
    values["par.speedup"] = one.wall / two.wall
    timed_sum = sum(v for k, v in layers.items() if k in TIMED_LAYERS)
    values["unattributed_s"] = one.wall - timed_sum
    values["trace_overhead_s"] = t["wall_s"] - one.wall
    return checker.attempted, checker.failed, values


# ------------------------------------------------------------------ main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["cold_all", "warm_all", "static_predict"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if a.trace:
            attempted, failed, values = traced(a.workload, work, a.seconds, a.seed)
            metrics = {k: (values[k], unit_of(k)) for k in per_layer_names()}
        else:
            attempted, failed, metrics = end_to_end(a.workload, work, a.seconds, a.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    # Every operation that did not fail passed all of its checks.
    print(benchlib.result_line(True, attempted, failed, metrics))


if __name__ == "__main__":
    main()
