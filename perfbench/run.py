#!/usr/bin/env python3
"""nanocache benchmark: end-to-end runs of the real nanocache_cli, and a
separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload study_batch|serve_hot|serve_tiered
                             --seed N --seconds S --trace 0|1 [--smoke]

Builds the program from the source tree next to this directory (Release,
into .bench_build/), generates the workload from --seed, checks every
response, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  The line before it
records host provenance and sample counts.  --smoke runs a tiny version of
the workload and checks the output against BENCHMARK.json.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = wl.ROOT
BUILD = ROOT / ".bench_build"
RUN = ROOT / ".bench_run"
CLI = BUILD / "nanocache" / "tools" / "nanocache_cli"
LOADGEN = BUILD / "nc_load"
TRACER = BUILD / "nc_trace"

CAPABILITIES_LINE = '{"schema_version":4,"id":"setup","kind":"capabilities"}'
METRICS_LINE = '{"schema_version":4,"id":"final","kind":"metrics"}'
# Limits in seconds: a cold build, then everything after it.
BUILD_DEADLINE_S = 840
DEADLINE_S = 170
HOT_WINDOW_S = 1.0
HOT_WINDOWS_PER_SERVER = 2

NPROC = len(os.sched_getaffinity(0))
CLIENTS = max(1, min(NPROC, 8))


class BenchError(Exception):
    pass


_children = []


def _env():
    """Child environment without nanocache overrides from the caller."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("NANOCACHE_")}


def _spawn(args, **kwargs):
    proc = subprocess.Popen([str(a) for a in args], env=_env(), **kwargs)
    _children.append(proc)
    return proc


def _reap(proc):
    """Wait for `proc`; returns (exit code, peak RSS in KiB).  The kernel
    folds the spawning process's own RSS into a child's ru_maxrss, so this
    is exact only for a child that outgrows this script (a study batch
    does, by an order of magnitude); servers are measured by peak_rss_kib.
    """
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _children.remove(proc)
    return proc.returncode, usage.ru_maxrss


def _stop_children():
    for proc in list(_children):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    _children.clear()


# --------------------------------------------------------------------------
# Build and provenance


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no nanocache source tree next to perfbench/")
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", ROOT / "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
                  "nanocache_cli", "nc_load", "nc_trace"])
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for step in steps:
            proc = _spawn(step, stdout=log, stderr=subprocess.STDOUT)
            if _reap(proc)[0] != 0:
                break
        else:
            return
    raise BenchError("build failed:\n" + log_path.read_text()[-3000:])


def provenance(seed):
    cache = (BUILD / "CMakeCache.txt").read_text()
    match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    compiler = None
    for path in sorted(BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        text = path.read_text()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            compiler = f"{ident.group(1)} {version.group(1)}"
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True, env={**_env(), "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    digest = hashlib.sha256()
    for base in ("src", "include", "tools", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {
        "hardware_threads": os.cpu_count(),
        "nproc": NPROC,
        "clients": CLIENTS,
        "CMAKE_BUILD_TYPE": match.group(1) if match else None,
        "compiler": compiler,
        "git_commit": git.stdout.strip() if git.returncode == 0 else None,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


# --------------------------------------------------------------------------
# Driving nanocache_cli


def batch(lines, threads, extra=(), metrics=None):
    """One `nanocache_cli batch` process.  Returns (response lines, process
    wall seconds, peak RSS KiB)."""
    src = RUN / "batch_in.jsonl"
    dst = RUN / "batch_out.jsonl"
    src.write_text("\n".join(lines) + "\n")
    args = [CLI, "batch", "-", "--threads", threads, *extra]
    if metrics:
        args += ["--metrics", metrics]
    with open(src) as fin, open(dst, "w") as fout, \
            open(RUN / "batch_err.txt", "w") as ferr:
        start = time.perf_counter()
        proc = _spawn(args, stdin=fin, stdout=fout, stderr=ferr)
        code, rss = _reap(proc)
        wall = time.perf_counter() - start
    if code != 0:
        raise BenchError(f"batch exited {code}: "
                         + (RUN / "batch_err.txt").read_text()[-500:])
    return dst.read_text().splitlines(), wall, rss


def batch_setup(threads):
    """Seconds from launching `batch` until its first answer."""
    start = time.perf_counter()
    proc = _spawn([CLI, "batch", "-", "--threads", threads],
                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                  stderr=subprocess.DEVNULL, text=True)
    proc.stdin.write(CAPABILITIES_LINE + "\n")
    proc.stdin.close()
    answer = proc.stdout.readline()
    setup = time.perf_counter() - start
    proc.stdout.read()
    code, _ = _reap(proc)
    if code != 0 or '"ok":true' not in answer:
        raise BenchError("batch setup probe failed: " + answer[:300])
    return setup


def socket_path():
    path = os.path.relpath(RUN / "s.sock")
    if len(path) > 100:
        path = str(RUN / "s.sock")
    if len(path) > 100:
        raise BenchError("unix socket path too long: " + path)
    return path


class Server:
    """A `nanocache_cli serve` process on a unix socket.  `setup_s` is the
    time from launch until it answered a capabilities line."""

    def __init__(self, threads, extra=()):
        self.path = socket_path()
        start = time.perf_counter()
        self.proc = _spawn(
            [CLI, "serve", "--listen", "unix:" + self.path, "--threads",
             threads, *extra],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        ready = self.proc.stderr.readline()
        if not ready.startswith("serve: listening"):
            raise BenchError("server did not start: " + ready)
        answer = self.request(CAPABILITIES_LINE)
        self.setup_s = time.perf_counter() - start
        if '"ok":true' not in answer:
            raise BenchError("capabilities probe failed: " + answer[:300])

    def request(self, line):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.connect(self.path)
            conn.sendall((line + "\n").encode())
            data = b""
            while not data.endswith(b"\n"):
                chunk = conn.recv(1 << 20)
                if not chunk:
                    raise BenchError("server closed the connection")
                data += chunk
        return data.decode().rstrip("\n")

    def registry(self):
        """Counters of the live process metrics registry."""
        return json.loads(self.request(METRICS_LINE))["result"]["counters"]

    def stop(self):
        """SIGTERM (graceful drain); returns the peak RSS KiB it reached
        while serving."""
        rss = peak_rss_kib(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        self.proc.stderr.read()
        code, _ = _reap(self.proc)
        if code != 0:
            raise BenchError(f"server exited {code}")
        return rss


def peak_rss_kib(pid):
    """VmHWM of a live process: the peak RSS of its own address space."""
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))


def write_load_files(name, pool, references, schedules):
    """Template and schedule files for nc_load."""
    pool_path = RUN / f"{name}_pool.tsv"
    with open(pool_path, "w") as out:
        for template, (head, tail) in zip(pool, references):
            req_head, req_tail = wl.split_template(template)
            out.write(f"{req_head}\t{req_tail}\t{head}\t{tail}\n")
    schedule_path = RUN / f"{name}_schedule.txt"
    schedule_path.write_text(
        "".join(" ".join(map(str, s)) + "\n" for s in schedules))
    return pool_path, schedule_path


def load(server, pool_path, schedule_path, seconds=0.0, id_prefix=""):
    """Run nc_load against `server`; returns its summary plus the sorted
    per-request latencies in microseconds."""
    lat_path = RUN / "latencies.txt"
    args = [LOADGEN, "--socket", server.path, "--pool", pool_path,
            "--schedule", schedule_path, "--latencies", lat_path]
    if seconds:
        args += ["--seconds", f"{seconds:.3f}"]
    if id_prefix:
        args += ["--id-prefix", id_prefix]
    proc = _spawn(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                  text=True)
    out, err = proc.communicate()
    _children.remove(proc)
    if proc.returncode != 0:
        raise BenchError("nc_load failed: " + err[-500:])
    if err:
        sys.stderr.write(err)
    summary = json.loads(out)
    summary["latencies_us"] = sorted(
        int(x) / 1000.0 for x in lat_path.read_text().split())
    return summary


def window_values(windows):
    """End-to-end rate and latency of a run made of several measurement
    windows: the median over windows of each window's figure, so a burst
    of outside load during a few windows does not move the result."""
    return {
        "requests_per_s": statistics.median(
            w["answered"] / w["wall_s"] for w in windows),
        "latency_p50_us": statistics.median(
            layers.percentile(w["latencies_us"], 50) for w in windows),
        "latency_p99_us": statistics.median(
            layers.percentile(w["latencies_us"], 99) for w in windows),
    }


def references(pool, extra=(), capabilities_threads=None):
    """Serial (--threads 1) reference responses of every pool template,
    split around the echoed id.  Capabilities answers report the thread
    count, so that line is answered at the served thread count."""
    lines = wl.with_ids(pool)
    out, _, _ = batch(lines, 1, extra)
    if len(out) != len(lines):
        raise BenchError("reference batch lost lines")
    if capabilities_threads is not None:
        for i, template in enumerate(pool):
            if template == wl.CAPABILITIES:
                out[i] = batch([lines[i]], capabilities_threads, extra)[0][0]
    for i, response in enumerate(out):
        if '"ok":true' not in response:
            raise BenchError("reference request failed: " + response[:300])
    return [wl.response_template(r, f"R{i}") for i, r in enumerate(out)]


def more_runs(done, start, seconds, trace, minimum):
    """Whether to start another batch invocation or pass: until `seconds`
    have passed and at least `minimum` ran.  Trace mode needs only one,
    for the registry counts."""
    if trace:
        return done < 1
    return done < minimum or time.perf_counter() - start < seconds


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# --------------------------------------------------------------------------
# Workloads.  Each returns (attempted, failed, end-to-end values, samples,
# registry counters, extra per-layer inputs).


def run_study_batch(seed, seconds, trace, smoke):
    lines, fixture = wl.study_batch(seed, smoke=smoke)
    golden = wl.FIXTURE_GOLDEN.read_text().splitlines()
    reference, _, _ = batch(lines, 1)
    setups = [batch_setup(NPROC) for _ in range(3 if smoke else 25)]
    attempted = failed = 0
    walls, rss = [], []
    registry = {}
    start = time.perf_counter()
    while more_runs(len(walls), start, seconds, trace, minimum=2):
        metrics = RUN / "batch_metrics.json"
        out, wall, peak = batch(lines, NPROC,
                                metrics=metrics if trace else None)
        walls.append(wall)
        rss.append(peak)
        # The fixture's copy must match the golden byte for byte; every
        # other line must match the serial reference.
        expected = golden + reference[fixture:]
        attempted += len(lines)
        failed += sum(1 for a, b in zip(out, expected) if a != b)
        failed += abs(len(lines) - len(out))
        if trace:
            registry = json.loads(metrics.read_text())["counters"]
    walls_us = sorted(w * 1e6 for w in walls)
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": statistics.median(len(lines) / w for w in walls),
        "latency_p50_us": statistics.median(walls_us),
        "latency_p99_us": layers.percentile(walls_us, 99),
        "peak_rss_mb": statistics.median(rss) / 1024.0,
    }
    samples = {"setups": len(setups), "batch_invocations": len(walls),
               "latency_samples": len(walls), "lines": len(lines)}
    return attempted, failed, values, samples, registry, {
        "trace_lines": lines, "warm": 0}


def run_serve_hot(seed, seconds, trace, smoke):
    pool, schedules = wl.serve_hot(
        seed, keys=200 if smoke else 3000, connections=CLIENTS,
        draws=2000 if smoke else 20000)
    refs = references(pool, capabilities_threads=NPROC)
    pool_path, warm_path = write_load_files(
        "hot", pool, refs, wl.warm_schedules(len(pool), CLIENTS))
    zipf_path = RUN / "hot_zipf.txt"
    zipf_path.write_text(
        "".join(" ".join(map(str, s)) + "\n" for s in schedules))
    setups = []
    for _ in range(2 if smoke else 10):
        server = Server(NPROC)
        setups.append(server.setup_s)
        server.stop()
    # Closed-loop windows of HOT_WINDOW_S each, spread over several server
    # processes: throughput depends on where a process's threads land, so
    # one process per run would make the run the unit of noise.  Trace mode
    # needs only the registry counts of one window.
    count = 1 if trace else max(1, round(seconds / HOT_WINDOW_S))
    servers = 1 if trace else max(1, count // HOT_WINDOWS_PER_SERVER)
    warms, windows, rss = [], [], []
    registry = {}
    for s in range(servers):
        server = Server(NPROC)
        setups.append(server.setup_s)
        warms.append(load(server, pool_path, warm_path, id_prefix=f"s{s}warm"))
        for i in range(s * count // servers, (s + 1) * count // servers):
            windows.append(load(server, pool_path, zipf_path,
                                seconds=min(seconds, HOT_WINDOW_S),
                                id_prefix=f"w{i}"))
        if trace:
            registry = server.registry()
        rss.append(server.stop())
    runs = warms + windows
    attempted = sum(r["sent"] for r in runs)
    failed = sum(r["mismatched"] + r["sent"] - r["answered"] for r in runs)
    values = {
        "setup_s": statistics.median(setups),
        **window_values(windows),
        "peak_rss_mb": statistics.median(rss) / 1024.0,
    }
    samples = {"setups": len(setups), "servers": servers,
               "window_rates": [round(w["answered"] / w["wall_s"])
                                for w in windows],
               "latency_samples": sum(len(w["latencies_us"])
                                      for w in windows),
               "warm_requests": sum(w["sent"] for w in warms),
               "pool_keys": len(pool)}
    trace_lines = wl.with_ids(pool, "W") + [
        line for group in zip(*wl.materialize(
            pool, schedules, limit=500 if smoke else 2500))
        for line in group]
    return attempted, failed, values, samples, registry, {
        "trace_lines": trace_lines, "warm": len(pool)}


def run_serve_tiered(seed, seconds, trace, smoke):
    tables = RUN / "tables"
    precompute = []
    for i in range(1 if smoke else 3):
        out_dir = tables if i == 0 else RUN / f"tables{i}"
        start = time.perf_counter()
        proc = _spawn([CLI, "precompute", "--out", out_dir],
                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if _reap(proc)[0] != 0:
            raise BenchError("precompute failed")
        precompute.append(time.perf_counter() - start)
    tier_flags = ["--surrogate-dir", tables]
    pool, schedules = wl.serve_tiered(
        seed, lines=400 if smoke else 6000, connections=CLIENTS)
    refs = references(pool, extra=tier_flags)
    pool_path, schedule_path = write_load_files("tiered", pool, refs,
                                                schedules)
    attempted = failed = 0
    setups, passes, rss = [], [], []
    registry = {}
    segment_bytes = 0
    start = time.perf_counter()
    while more_runs(len(passes), start, seconds, trace, minimum=3):
        cache = RUN / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        server = Server(NPROC, [*tier_flags, "--cache-dir", cache])
        setups.append(server.setup_s)
        summary = load(server, pool_path, schedule_path)
        if trace:
            registry = server.registry()
        rss.append(server.stop())
        segment_bytes = dir_bytes(cache)
        attempted += len(pool)
        failed += summary["mismatched"] + len(pool) - summary["answered"]
        passes.append(summary)
    values = {
        "setup_s": statistics.median(setups),
        **window_values(passes),
        "peak_rss_mb": statistics.median(rss) / 1024.0,
    }
    samples = {"setups": len(setups), "passes": len(passes),
               "latency_samples": sum(len(p["latencies_us"]) for p in passes),
               "lines_per_pass": len(pool)}
    trace_lines = [line for group in zip(*wl.materialize(pool, schedules))
                   for line in group]
    return attempted, failed, values, samples, registry, {
        "trace_lines": trace_lines, "warm": 0, "surrogate_dir": tables,
        "precompute_s": statistics.median(precompute),
        "segment_bytes": segment_bytes}


WORKLOADS = {
    "study_batch": run_study_batch,
    "serve_hot": run_serve_hot,
    "serve_tiered": run_serve_tiered,
}


def traced_replay(extra):
    """Run nc_trace over the workload's lines; returns (summary, spans)."""
    lines_path = RUN / "trace_lines.jsonl"
    lines_path.write_text("\n".join(extra["trace_lines"]) + "\n")
    spans_path = RUN / "spans.tsv"
    args = [TRACER, "--lines", lines_path, "--spans", spans_path,
            "--warm", extra["warm"], "--threads", NPROC]
    if "surrogate_dir" in extra:
        args += ["--surrogate-dir", extra["surrogate_dir"],
                 "--cache-root", RUN / "trace_cache"]
    if extra["warm"] or "surrogate_dir" in extra:
        args += ["--socket", socket_path()]
    proc = _spawn(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                  text=True)
    out, err = proc.communicate()
    _children.remove(proc)
    if proc.returncode != 0:
        raise BenchError("nc_trace failed: " + err[-500:])
    return json.loads(out), layers.read_spans(spans_path)


def check_against_spec(result, trace):
    """Smoke check: every metric BENCHMARK.json names, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    problems = []
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: {got}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    problems += [f"unexpected metric {name}" for name in sorted(extra)]
    if result["failed"] or not result["correct"]:
        problems.append(f"{result['failed']} failed request(s)")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; check the output against "
                             "BENCHMARK.json")
    args = parser.parse_args()
    seconds = min(args.seconds, 1.0) if args.smoke else args.seconds

    def on_alarm(signum, frame):
        raise BenchError("time limit exceeded")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(BUILD_DEADLINE_S)
    try:
        build()
        signal.alarm(DEADLINE_S)
        shutil.rmtree(RUN, ignore_errors=True)
        RUN.mkdir()
        attempted, failed, values, samples, registry, extra = \
            WORKLOADS[args.workload](args.seed, seconds, args.trace,
                                     args.smoke)
        if args.trace:
            summary, spans = traced_replay(extra)
            attempted += summary["lines"] - summary["warm"]
            failed += summary["mismatched"]
            metrics = layers.per_layer(summary, spans, registry, extra)
        else:
            metrics = layers.end_to_end(values, attempted, failed)
        info = {"provenance": provenance(args.seed), "samples": samples}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        _stop_children()
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(info))
    print(json.dumps(result))
    if args.smoke:
        problems = check_against_spec(result, args.trace)
        for problem in problems:
            print("smoke: " + problem, file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
