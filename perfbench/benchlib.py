"""Pure helpers of the end-to-end benchmark (perfbench/run.py).

Kept free of process and file-system side effects where possible so the
unit tests in perfbench/tests exercise exactly the code run.py uses:
percentile and sample-count rules, the sweep-daemon request mix, cache
directory byte accounting, and the metric names BENCHMARK.json declares.
"""

import json
import math
import os
import random
import statistics

# Every percentile reported must have at least this many samples beyond it
# (so p90 needs 100 samples, p50 needs 20).
MIN_TAIL_SAMPLES = 10

# The per-layer metrics that are wall-share self times of a traced run;
# with the unattributed remainder they add up to traced.wall_s.
SELF_TIME_METRICS = (
    "vm.record_s",
    "jit.compile_s",
    "core.trace.pipeline_s",
    "core.trace.flush_s",
    "core.index.build_s",
    "core.cache.write_s",
    "core.cache.read_s",
    "core.cache.prof_s",
    "core.replay.s",
    "sample.s",
    "analysis.figures_s",
    "service.self_s",
)

# Request shapes of the sweepd-mix workload, taken from what the
# repository's own daemon callers send (README.md, .github/workflows/ci.yml):
# `tpdbt-sweep --sweep NAME` with no list (the daemon then sweeps the 13
# paper thresholds), `--sweep NAME --thresholds 100,2000`, and
# `--figure NAME --approx 0.25`. An empty tuple stands for "no list".
MIX_THRESHOLD_SETS = ((), (100, 2000))
MIX_BUDGET_PPM = 250000  # --approx 0.25
MIX_APPROX_PER_FIGURE = 2  # sampled requests per figure, each with its own seed
# Of the new exact sweeps, this share is also queued a second time right
# behind itself (in-flight twins), and as many again are repeats of a
# sweep queued earlier (memo hits).
MIX_TWIN_SHARE = 1 / 6
MIX_REPEAT_SHARE = 1 / 6


def percentile(values, q):
    """Nearest-rank percentile: the ceil(q * n)-th smallest value."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile rank {q} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def min_samples(q):
    """Fewest samples for which percentile q has MIN_TAIL_SAMPLES beyond it."""
    return math.ceil(MIN_TAIL_SAMPLES / (1.0 - q) - 1e-9)


def reportable_percentile(values, q):
    """percentile(values, q), refusing when the sample-count rule fails."""
    if len(values) < min_samples(q):
        raise ValueError(
            f"p{round(q * 100)} needs {min_samples(q)} samples, have {len(values)}"
        )
    return percentile(values, q)


def median(values):
    return statistics.median(values)


def spread(values):
    """Inter-quartile distance as a share of the median (the acceptance rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def make_mix(seed, benchmarks, figures, order=0):
    """Deterministic request queue for the closed-loop clients.

    Each client takes the next request off the queue once its previous
    reply has arrived. Returns the queue as a list of request tuples:
      ("sweep", benchmark, (thresholds...))     exact sweep, () = default set
      ("approx", figure, budget_ppm, seed)      sampled figure
    Every (benchmark, threshold set) pair of MIX_THRESHOLD_SETS is asked
    once as a new exact sweep (about 57% of the queue); a sixth of them are
    queued twice back to back, so two clients send them together and the
    daemon can coalesce them, and as many repeats re-send a sweep queued
    earlier (together about 20%); every figure is asked
    MIX_APPROX_PER_FIGURE times at MIX_BUDGET_PPM with a drawn sampling
    seed (about 24%).

    The seed draws which sweeps are twins and the sampling seeds; the seed
    and `order` draw the order and which sweeps are repeated. Queues of
    one seed hold the same distinct requests for every `order`, and the
    composition is the same for every seed, so runs with different seeds
    do comparable work.
    """
    rng = random.Random(seed)
    new = [("sweep", bench, tuple(ths)) for bench in benchmarks
           for ths in MIX_THRESHOLD_SETS]
    rng.shuffle(new)
    n_twins = round(len(new) * MIX_TWIN_SHARE)
    n_repeat = round(len(new) * MIX_REPEAT_SHARE)
    approx = [("approx", fig, MIX_BUDGET_PPM, rng.randrange(1, 2**31))
              for fig in figures for _ in range(MIX_APPROX_PER_FIGURE)]

    units = [[req, req] for req in new[:n_twins]]
    units += [[req] for req in new[n_twins:] + approx] + [["repeat"]] * n_repeat
    rng = random.Random(f"{seed}:{order}")
    rng.shuffle(units)
    queue = []
    for unit in units:
        if unit == ["repeat"]:
            # A repeat re-sends a sweep queued earlier (or, first in the
            # queue, one queued later: then that one is the repeat).
            earlier = [r for r in queue if r[0] == "sweep"]
            unit = [rng.choice(earlier or new)]
        queue.extend(unit)
    return queue


def mix_lines(queue):
    """The request file tpdbt-perfbench mix reads: one request per line,
    "-" for a sweep without a threshold list."""
    lines = []
    for req in queue:
        if req[0] == "sweep":
            lines.append(f"sweep {req[1]} {','.join(str(t) for t in req[2]) or '-'}")
        else:
            lines.append(f"approx {req[1]} {req[2]} {req[3]}")
    return "\n".join(lines) + "\n"


def dir_bytes(path):
    """Apparent bytes of every regular file under path (0 if missing)."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                st = os.lstat(os.path.join(root, name))
            except FileNotFoundError:
                continue  # removed while walking (an in-flight temporary)
            if not os.path.islink(os.path.join(root, name)):
                total += st.st_size
    return total


def bytes_by_suffix(path, suffix):
    """Bytes of the files directly in path whose name ends with suffix."""
    total = 0
    if not os.path.isdir(path):
        return 0
    for name in os.listdir(path):
        if name.endswith(suffix):
            total += os.lstat(os.path.join(path, name)).st_size
    return total


def written_mb(before, after):
    """Bytes a run added to its cache directory, in MB (1e6 bytes)."""
    return max(0, after - before) / 1e6


def benchmark_spec(path):
    with open(path) as f:
        return json.load(f)


def declared_metrics(spec, traced):
    """{name: unit} of the metrics a run must print for its trace mode."""
    group = spec["per_layer"] if traced else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def result_line(correct, attempted, failed, metrics, spec, traced):
    """The final JSON line; refuses metrics that do not match the spec."""
    declared = declared_metrics(spec, traced)
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise ValueError(f"metric names differ: missing {missing}, extra {extra}")
    out = {
        name: {"value": float(metrics[name]), "unit": declared[name]}
        for name in declared
    }
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": out,
        }
    )
