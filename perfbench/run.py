#!/usr/bin/env python3
"""End-to-end benchmark of the tpdbt figure pipeline and sweep daemon.

Usage (from the repository root):

  python3 perfbench/run.py --workload cold-suite|warm-suite|sweepd-mix \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --make-expected   # regenerate perfbench/expected

Builds perfbench/ (the repository's libraries, tpdbt-sweepd and the
tpdbt-perfbench driver) into .bench_build/, runs the workload in a fresh
directory under .bench_runs/, checks every output, and prints one JSON
result as the last line of stdout: the end-to-end metrics with --trace 0,
the per-layer metrics of a separate traced run with --trace 1. The line
before it is the context block. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
RUNS_DIR = ROOT / ".bench_runs"
EXPECTED_DIR = BENCH_DIR / "expected"
SPEC_PATH = ROOT / "BENCHMARK.json"

SUITE_SCALE = 0.2
# Share of a traced run's wall by which the layers' counter durations may
# exceed the spans timed around them (the counters round to microseconds).
CLIP_TOLERANCE = 0.01
MIX_SCALE = 0.05
JOBS = 4
MIX_CLIENTS = 4
MIX_EXTRA_STARTS = 5  # daemon starts measured for setup_s beyond one per round
RUN_LIMIT = 170.0  # seconds a run may take once the build is done
DEADLINE = [time.monotonic() + RUN_LIMIT]
# A run makes round(--seconds / ITERATION_SECONDS) iterations, clamped to
# [MIN_ITERATIONS, MAX_ITERATIONS]: the same number on every run with the
# same --seconds, however fast the box or the commit. The figures are the
# measured length of one iteration with its set-up and checks on the 4-core
# reference box, except warm-suite's, which is shorter than its 7.5 s so
# that it makes four: with three, its p90 spread 0.30 over ten seeds. A box
# too slow to finish the iterations within RUN_LIMIT fails the run instead
# of measuring less.
ITERATION_SECONDS = {"cold-suite": 12.0, "warm-suite": 6.0, "sweepd-mix": 6.0}
MIN_ITERATIONS = 2
MAX_ITERATIONS = 8

# Resource guard per workload: (free disk bytes, available memory bytes).
NEEDS = {
    "cold-suite": (4.5e9, 6.5e9),
    "warm-suite": (4.5e9, 6.5e9),
    "sweepd-mix": (1.5e9, 2.5e9),
}


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def binary(name):
    return BUILD_DIR / name


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "tools" / "CMakeLists.txt"
    ).is_file():
        raise BenchError("tpdbt sources (src/, tools/) not found next to perfbench/")
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", str(JOBS), "--target",
         "tpdbt-perfbench", "tpdbt-sweepd"],
    ):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError(f"build failed: {' '.join(cmd)}")


def time_left():
    """Seconds until the run must have ended (RUN_LIMIT after the build)."""
    return DEADLINE[0] - time.monotonic()


def child_env(**settings):
    """The environment of a process under test: this one without any
    TPDBT_* knob (a leftover one would change what is measured), plus
    `settings`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TPDBT_")}
    env.update(settings)
    return env


def run_child(cmd, cwd, env=None, timeout=None):
    """Runs cmd to completion; returns its last stdout line, parsed as JSON."""
    timeout = timeout or max(1.0, time_left())
    proc = subprocess.Popen([str(c) for c in cmd], cwd=cwd, env=env or child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as err:  # timeout, or SIGTERM turned into SystemExit
        proc.kill()
        proc.wait()
        if isinstance(err, subprocess.TimeoutExpired):
            raise BenchError(f"timed out: {' '.join(str(c) for c in cmd)}")
        raise
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(str(c) for c in cmd)}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"no report from {cmd[0]}")
    return json.loads(lines[-1])


def git_revision():
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True).stdout.split()
    except OSError:
        return None
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        return out[1]
    return None


def context_block(workload, seed, scale, info, loadavg, prepare_s):
    return {
        "context": {
            "workload": workload,
            "nproc": os.cpu_count(),
            "loadavg": list(loadavg),
            "build_type": info["build_type"],
            "git_revision": git_revision() or "unknown (not a git checkout)",
            "scale": scale,
            "jobs": JOBS,
            "seed": seed,
            # Knobs found in this environment and kept from the processes
            # under test.
            "tpdbt_env_dropped": sorted(k for k in os.environ if k.startswith("TPDBT_")),
            # The cold pass that made a trace-warm cache (not in setup_s).
            "prepare_s": prepare_s,
        }
    }


def mem_available():
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    return 0


def guard_resources(workload):
    disk, mem = NEEDS[workload]
    free = shutil.disk_usage(ROOT).free
    if free < disk:
        raise BenchError(f"{free / 1e9:.1f} GB free disk, {workload} needs {disk / 1e9:.1f}")
    avail = mem_available()
    if avail < mem:
        raise BenchError(f"{avail / 1e9:.1f} GB available memory, {workload} needs {mem / 1e9:.1f}")


def remove_stale_runs():
    """Deletes run directories left by runs that were killed (their pid,
    the name's suffix, is gone): each can hold gigabytes of cache."""
    for entry in RUNS_DIR.iterdir():
        pid = entry.name.rsplit("-", 1)[-1]
        if pid.isdigit() and not Path(f"/proc/{pid}").exists():
            shutil.rmtree(entry, ignore_errors=True)


def delete_profiles(cache):
    for name in os.listdir(cache):
        if name.endswith(".prof"):
            os.unlink(os.path.join(cache, name))


# --------------------------------------------------------------------------
# Figure suites
# --------------------------------------------------------------------------


def suite_cmd(cache, seed, trace, prepare=False, scale=SUITE_SCALE, order=0):
    cmd = [binary("tpdbt-perfbench"), "suite", "--cache", cache, "--scale", scale,
           "--jobs", JOBS, "--seed", seed, "--order", order, "--trace", trace]
    if prepare:
        cmd.append("--prepare")
    else:
        cmd += ["--expected", EXPECTED_DIR / f"scale{scale}"]
    return cmd


def prepare_trace_warm(run_dir, seed, scale, trace=0):
    """A trace-warm cache: a cold run's .trace/.trace.idx, no .prof files.
    Returns (cache, report of the preparing run, seconds it took)."""
    cache = run_dir / "cache"
    t0 = time.monotonic()
    report = run_child(suite_cmd(cache, seed, trace, prepare=True, scale=scale), run_dir)
    delete_profiles(cache)
    prep_s = time.monotonic() - t0
    os.sync()
    return cache, report, prep_s


def suite_iteration(run_dir, label, seed, order, trace, warm_cache=None):
    """One suite process on a fresh (or the prepared warm) cache."""
    t0 = time.monotonic()
    if warm_cache is None:
        cache = run_dir / f"cold-{label}"
    else:
        cache = warm_cache
        delete_profiles(cache)
    prep = time.monotonic() - t0
    before = benchlib.dir_bytes(cache)
    os.sync()  # isolation, not set-up: earlier writes must not land in the timing
    report = run_child(suite_cmd(cache, seed, trace, order=order), run_dir)
    # The cache state must be what the workload claims: a cold run records
    # every trace, a warm one none.
    if not trace and (report["trace_misses"] == 0) != (warm_cache is not None):
        log(f"{report['trace_misses']} trace recordings on a "
            f"{'warm' if warm_cache else 'cold'} cache")
        report["failed"] += 1
    after = benchlib.dir_bytes(cache)
    report["disk_written_mb"] = benchlib.written_mb(before, after)
    # Set-up: resetting the cache state, generating the programs (the
    # median of the suite process's repeated generation passes) and
    # building the contexts.
    report["setup_total_s"] = prep + report["generate_s"] + report["context_s"]
    report["trace_bytes"] = benchlib.bytes_by_suffix(cache, ".trace")
    report["index_bytes"] = benchlib.bytes_by_suffix(cache, ".trace.idx")
    if warm_cache is None:
        shutil.rmtree(cache)
    report["iteration_s"] = time.monotonic() - t0
    return report


def iteration_count(workload, seconds):
    """Iterations that fill about `seconds` of measuring on the reference box."""
    return max(MIN_ITERATIONS,
               min(MAX_ITERATIONS, round(seconds / ITERATION_SECONDS[workload])))


def iterate(count, step):
    """Runs step(i, reports so far) count times; returns the reports.
    Fails, rather than measuring fewer iterations, when the rest would
    likely not end within the run's time limit."""
    reports = []
    t0 = time.monotonic()
    for i in range(count):
        used = time.monotonic() - t0
        if i and (count - i) * used / i > time_left():
            raise BenchError(f"too slow: {count - i} of {count} iterations left "
                             f"after {used:.0f}s, {time_left():.0f}s to go")
        reports.append(step(i, reports))
        r = reports[-1]
        log(f"  iteration {i + 1}/{count}: wall {r['wall_s']:.3f}s cpu "
            f"{r.get('cpu_s', 0):.2f}s rss {r.get('peak_rss_mb', 0):.0f}MB "
            f"({r['iteration_s']:.1f}s with set-up and checks)")
    return reports


def suite_workload(workload, run_dir, seed, seconds, trace):
    prep_s = None
    warm = None
    if workload == "warm-suite":
        warm, _, prep_s = prepare_trace_warm(run_dir, seed, SUITE_SCALE)

    # Iteration i submits the benchmarks in the seed's i-th order.
    def step(i, _=None, traced=0):
        return suite_iteration(run_dir, f"{i}-{traced}", seed, i, traced, warm)

    if trace:
        plain = step(0)
        traced = step(0, traced=1)
        return suite_layers(plain, traced) + (prep_s,)

    reports = iterate(iteration_count(workload, seconds), step)
    for r in reports:
        if r["mismatched"]:
            log(f"figure tables differ from the oracle: {r['mismatched']}")
    metrics, attempted, failed = suite_metrics(reports)
    log(f"{workload}: {len(reports)} iteration(s), req samples "
        f"{sum(len(r['latency_s']) for r in reports)}, "
        f"failed_frac {failed / max(1, attempted):.4f}")
    return metrics, attempted, failed, prep_s


def suite_metrics(reports):
    """End-to-end metrics of a suite run from its iteration reports."""
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    walls = [r["wall_s"] for r in reports]
    # A suite's requests are its benchmarks: latency is the time a worker
    # spends computing one benchmark's profiles. (Timed from the start of
    # the run instead, it would mostly measure the seed's submission order.)
    latency_ms = [1e3 * t for r in reports for t in r["latency_s"]]
    metrics = {
        "wall_s": benchlib.median(walls),
        "cpu_s": benchlib.median([r["cpu_s"] for r in reports]),
        "setup_s": benchlib.median([r["setup_total_s"] for r in reports]),
        # The largest peak of the run's processes; their number is fixed.
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "disk_written_mb": benchlib.median([r["disk_written_mb"] for r in reports]),
        "req_per_s": benchlib.median([len(r["latency_s"]) / r["wall_s"] for r in reports]),
        "req_p50_ms": benchlib.reportable_percentile(latency_ms, 0.5),
        # Fewer than the 100 samples the tail rule asks for: p90 of a suite
        # is reported for comparison across commits, not as a tail latency.
        "req_p90_ms": benchlib.percentile(latency_ms, 0.9),
    }
    return metrics, attempted, failed


def suite_layers(plain, traced):
    layers = dict(traced["layers"])
    events = layers["vm.block_events"]
    layers.update({
        "workloads.generate_s": traced["generate_s"],
        "jit.deopt_ratio": layers["jit.deopts"] / layers["jit.native_blocks"]
        if layers["jit.native_blocks"] else 0.0,
        "core.trace.bytes": traced["trace_bytes"],
        "core.index.bytes": traced["index_bytes"],
        "core.trace.bytes_per_event": traced["trace_bytes"] / events if events else 0.0,
        "sample.decoded_frac": 0.0,
        "service.queue_ms_p50": 0.0,
        "service.compute_ms_p50": 0.0,
        "service.served": 0,
        "service.coalesced": 0,
        "service.rejected": 0,
        "service.coalesce_ratio": 0.0,
        "service.trace_mem_hit_ratio": 0.0,
        "traced.overhead_s": traced["wall_s"] - plain["wall_s"],
    })
    return finish_layers(layers, [plain, traced])


def finish_layers(layers, reports):
    """Adds the traced totals and checks the attribution: the durations
    the layers' counters report must fit in the spans timed around the
    calls (at most CLIP_TOLERANCE of the wall cut off), and the printed
    self times plus the unattributed rest must be the whole wall."""
    wall = layers.pop("traced.wall_s")
    unattributed = layers.pop("traced.unattributed_s")
    clipped = layers.pop("traced.clipped_s")
    self_times = [v for k, v in layers.items() if k in benchlib.SELF_TIME_METRICS]
    complete = abs(sum(self_times) + unattributed - wall) <= 1e-6 * max(1.0, wall)
    fits = clipped <= CLIP_TOLERANCE * wall
    layers["traced.wall_s"] = wall
    layers["traced.unattributed_frac"] = unattributed / wall
    attempted = sum(r["attempted"] for r in reports) + 2
    failed = sum(r["failed"] for r in reports) + (not complete) + (not fits)
    log(f"  layer durations cut to fit their spans: {clipped:.6f}s of {wall:.3f}s")
    if not complete:
        log("layer self times plus unattributed do not add up to traced.wall_s")
    if not fits:
        log("layer counters report more time than the spans around them")
    return layers, attempted, failed


# --------------------------------------------------------------------------
# Sweep daemon mix
# --------------------------------------------------------------------------


def wait_for_socket(path, proc, timeout=30.0):
    t0 = time.monotonic()
    while not path.exists():
        if proc.poll() is not None:
            raise BenchError("tpdbt-sweepd exited during start-up")
        if time.monotonic() - t0 > timeout:
            raise BenchError("tpdbt-sweepd did not bind its socket")
        time.sleep(0.002)


def start_daemon(run_dir):
    """Starts tpdbt-sweepd on run_dir/s.sock; returns the process and the
    seconds until its socket was bound."""
    sock = run_dir / "s.sock"
    if sock.exists():
        sock.unlink()
    t0 = time.monotonic()
    daemon = subprocess.Popen([str(binary("tpdbt-sweepd")), "--socket", "s.sock",
                               "--quiet"], cwd=run_dir,
                              env=child_env(TPDBT_CACHE_DIR="cache", TPDBT_JOBS=str(JOBS)),
                              stderr=subprocess.DEVNULL)
    try:
        wait_for_socket(sock, daemon)
    except BaseException:
        daemon.kill()
        daemon.wait()
        raise
    return daemon, time.monotonic() - t0


def extra_starts(run_dir):
    """Start-up seconds of MIX_EXTRA_STARTS daemons stopped (SIGTERM) as
    soon as they are up, so set-up is a median over more starts than the
    rounds give."""
    out = []
    for _ in range(MIX_EXTRA_STARTS):
        daemon, start_s = start_daemon(run_dir)
        daemon.terminate()
        if daemon.wait() != 0:
            raise BenchError(f"tpdbt-sweepd exited {daemon.returncode} on SIGTERM")
        out.append(start_s)
    return out


def mix_cmd(requests, trace, oracle):
    return [binary("tpdbt-perfbench"), "mix", "--socket", "s.sock", "--cache",
            "cache", "--work", "work", "--requests", requests, "--scale", MIX_SCALE,
            "--jobs", JOBS, "--clients", MIX_CLIENTS, "--trace", trace,
            "--oracle", int(oracle)]


def approx_covered(report, run_dir):
    """Every approximate figure's 95% intervals contain the exact value,
    checked the way tools/check_sample_coverage.py checks it."""
    sys.path.insert(0, str(ROOT / "tools"))
    import check_sample_coverage  # noqa: E402

    failures = 0
    for stem in report["approx_outputs"]:
        approx_dir, fig = os.path.split(run_dir / stem)
        try:
            bad = check_sample_coverage.check_figure(
                fig, str(EXPECTED_DIR / f"scale{MIX_SCALE}"), approx_dir)
        except SystemExit as err:  # malformed CSV
            bad = [str(err)]
        if bad:
            failures += 1
            log(f"interval coverage failed for {fig}: {bad[:3]}")
    return failures


def mix_round(run_dir, lines, trace, checked=None):
    """One daemon lifetime serving the request queue `lines`. Without a
    `checked` round, the replies are checked against the oracles; with
    one, every reply must equal its reply to the same request byte for
    byte (by digest)."""
    requests = run_dir / "requests.txt"
    requests.write_text("\n".join(lines) + "\n")
    t0 = time.monotonic()
    cache = run_dir / "cache"
    delete_profiles(cache)
    shutil.rmtree(run_dir / "work", ignore_errors=True)
    (run_dir / "work").mkdir()
    reset_s = time.monotonic() - t0
    before = benchlib.dir_bytes(cache)
    os.sync()
    t0 = time.monotonic()
    if trace:
        sock = run_dir / "s.sock"
        if sock.exists():
            sock.unlink()
        report = run_child(mix_cmd(requests, 1, checked is None), run_dir)
        start_s = report["startup_s"]
        rusage = None
    else:
        daemon, start_s = start_daemon(run_dir)
        try:
            report = run_child(mix_cmd(requests, 0, checked is None), run_dir)
            _, status, rusage = os.wait4(daemon.pid, 0)
            daemon.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if daemon.returncode is None and daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        if daemon.returncode != 0:
            raise BenchError(f"tpdbt-sweepd exited {daemon.returncode}")
    report["disk_written_mb"] = benchlib.written_mb(before, benchlib.dir_bytes(cache))
    report["reset_s"] = reset_s
    report["start_s"] = start_s
    if checked is None:
        report["failed"] += approx_covered(report, run_dir)
    else:
        report["failed"] += sum(checked["digest_of"][line] != digest
                                for line, digest in zip(lines, report["digests"]))
    report["digest_of"] = dict(zip(lines, report["digests"]))
    if not report["stats_ok"]:
        report["failed"] += 1
    if rusage is not None:
        report["cpu_s"] = rusage.ru_utime + rusage.ru_stime
        report["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
    report["iteration_s"] = time.monotonic() - t0
    for err in report["errors"][:5]:
        log(f"request error: {err}")
    return report


def mix_workload(run_dir, seed, seconds, trace, info):
    def queue(order):
        return benchlib.mix_lines(benchlib.make_mix(
            seed, info["benchmarks"], info["figures"], order)).splitlines()

    lines = queue(0)
    _, prep, prep_s = prepare_trace_warm(run_dir, seed, MIX_SCALE, trace)

    if trace:
        plain = mix_round(run_dir, lines, 0)
        traced = mix_round(run_dir, lines, 1, checked=plain)
        return mix_layers(plain, traced, prep, run_dir / "cache") + (prep_s,)

    # Round i serves the same requests in its own order: which requests
    # run together, and so the daemon's peak memory and the tail of the
    # round, then depend less on one drawn order.
    starts = extra_starts(run_dir)
    reports = iterate(iteration_count("sweepd-mix", seconds),
                      lambda i, done: mix_round(run_dir, queue(i), 0,
                                                done[0] if done else None))
    metrics, attempted, failed = mix_metrics(reports, starts)
    log(f"sweepd-mix: {len(reports)} round(s) of {len(lines)} requests, req samples "
        f"{sum(len(r['latency_ms']) for r in reports)}, "
        f"failed_frac {failed / max(1, attempted):.4f}")
    return metrics, attempted, failed, prep_s


def mix_metrics(reports, starts=()):
    """End-to-end metrics of a sweepd-mix run from its round reports."""
    latencies = [x for r in reports for x in r["latency_ms"]]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {
        "wall_s": benchlib.median([r["wall_s"] for r in reports]),
        "cpu_s": benchlib.median([r["cpu_s"] for r in reports]),
        # Resetting the cache state plus starting the daemon.
        "setup_s": benchlib.median([r["reset_s"] for r in reports]) + benchlib.median(
            [r["start_s"] for r in reports] + list(starts)),
        # The largest peak of the run's processes; their number is fixed.
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "disk_written_mb": benchlib.median([r["disk_written_mb"] for r in reports]),
        "req_per_s": benchlib.median(
            [len(r["latency_ms"]) / r["wall_s"] for r in reports]),
        "req_p50_ms": benchlib.reportable_percentile(latencies, 0.5),
        "req_p90_ms": benchlib.reportable_percentile(latencies, 0.9),
    }
    return metrics, attempted, failed


def mix_layers(plain, traced, prep, cache):
    layers = dict(traced["layers"])
    stats = traced["stats"]
    served = stats.get("served", 0)
    mem, disk = stats.get("trace_mem_hits", 0), stats.get("trace_disk_hits", 0)
    decoded = layers["sample.segments_decoded"]
    skipped = layers["sample.segments_skipped"]
    events = prep["layers"]["vm.block_events"] if "layers" in prep else 0
    trace_bytes = benchlib.bytes_by_suffix(cache, ".trace")
    layers.update({
        "workloads.generate_s": prep.get("generate_s", 0.0),
        "jit.deopt_ratio": 0.0,
        "core.trace.bytes": trace_bytes,
        "core.index.bytes": benchlib.bytes_by_suffix(cache, ".trace.idx"),
        "core.trace.bytes_per_event": trace_bytes / events if events else 0.0,
        "core.cache.prof_hits": 0,
        "core.cache.prof_misses": 0,
        "core.replay.sweeps": 0,
        "sample.decoded_frac": decoded / (decoded + skipped) if decoded + skipped else 0.0,
        "service.queue_ms_p50": benchlib.percentile(traced["queue_ms"], 0.5),
        "service.compute_ms_p50": benchlib.percentile(traced["compute_ms"], 0.5),
        "service.served": served,
        "service.coalesced": stats.get("coalesced", 0),
        "service.rejected": stats.get("rejected", 0),
        "service.coalesce_ratio": stats.get("coalesced", 0) / served if served else 0.0,
        "service.trace_mem_hit_ratio": mem / (mem + disk) if mem + disk else 0.0,
        "traced.overhead_s": traced["wall_s"] - plain["wall_s"],
    })
    log(f"  estimated split; repeats not found clean: {traced['dirty_repeats']}")
    return finish_layers(layers, [plain, traced])


# --------------------------------------------------------------------------


def make_expected():
    build()
    for scale in (SUITE_SCALE, MIX_SCALE):
        work = RUNS_DIR / f"oracle-{os.getpid()}"
        try:
            run_child([binary("tpdbt-perfbench"), "oracle", "--scale", scale,
                       "--jobs", JOBS, "--work", work, "--out",
                       EXPECTED_DIR / f"scale{scale}"], ROOT, timeout=900.0)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    log(f"expected tables written under {EXPECTED_DIR}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(NEEDS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-expected", action="store_true")
    args = ap.parse_args()
    # Terminate as an exception, so every child is stopped and the run
    # directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        if args.make_expected:
            make_expected()
            return 0
        if not args.workload:
            ap.error("--workload is required")
        spec = benchlib.benchmark_spec(SPEC_PATH)
        build()
        DEADLINE[0] = time.monotonic() + RUN_LIMIT
        info = run_child([binary("tpdbt-perfbench"), "context"], ROOT)
        if not info["release"]:
            raise BenchError(f"refusing to measure a {info['build_type']} build")
        guard_resources(args.workload)
        loadavg = os.getloadavg()  # before the run adds its own load
        scale = MIX_SCALE if args.workload == "sweepd-mix" else SUITE_SCALE
        RUNS_DIR.mkdir(exist_ok=True)
        remove_stale_runs()
        run_dir = RUNS_DIR / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        try:
            if args.workload == "sweepd-mix":
                metrics, attempted, failed, prep_s = mix_workload(
                    run_dir, args.seed, args.seconds, args.trace, info)
            else:
                metrics, attempted, failed, prep_s = suite_workload(
                    args.workload, run_dir, args.seed, args.seconds, args.trace)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        for name, value in sorted(metrics.items()):
            log(f"  {name} = {value:.6g}")
        print(json.dumps(context_block(args.workload, args.seed, scale, info, loadavg,
                                       prep_s)))
        print(benchlib.result_line(failed == 0, attempted, failed, metrics, spec,
                                   bool(args.trace)), flush=True)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as err:
        log(f"perfbench: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
