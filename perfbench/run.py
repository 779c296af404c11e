"""Benchmark of geomhuffman's three pipelines.

    python3 perfbench/run.py --workload block-code --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One process runs one workload: it sets
up (several times, reporting the median), then repeats whole passes over
the workload's operations until ``--seconds`` have gone by, checking
every output.  The last line of stdout is one JSON object with the counts
of operations attempted and failed and the metrics: the end-to-end ones
with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in every subprocess
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mib": "MiB",
    "coded_symbols_per_s": "symbols/s",
    "dmc_channel_p50_ms": "ms",
    "dmc_channel_p90_ms": "ms",
    "dnc_channel_p50_ms": "ms",
    "matched_symbols_per_s": "symbols/s",
    "dematched_symbols_per_s": "symbols/s",
    "cli_small_p50_ms": "ms",
}


def _rate(samples) -> float:
    """Median over passes of the work done per second in each pass."""
    work, secs = defaultdict(float), defaultdict(float)
    for pass_index, s, w in samples:
        work[pass_index] += w
        secs[pass_index] += s
    return statistics.median(work[i] / secs[i] for i in secs)


def _sample_rate(samples) -> float:
    """Median over samples of each sample's work per second."""
    return statistics.median(w / s for _, s, w in samples)


def _quantile_ms(samples, q: int) -> float:
    secs = sorted(s for _, s, _ in samples)
    if len(secs) == 1:
        return 1e3 * secs[0]
    return 1e3 * statistics.quantiles(secs, n=100, method="inclusive")[q - 1]


def end_to_end(rec, setup_times, pass_times, peak_mib) -> dict:
    s = rec.samples
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(pass_times),
        "peak_rss_mib": peak_mib,
        "coded_symbols_per_s": _rate(s["code"]),
        "dmc_channel_p50_ms": _quantile_ms(s["dmc"], 50),
        "dmc_channel_p90_ms": _quantile_ms(s["dmc"], 90),
        "dnc_channel_p50_ms": _quantile_ms(s["dnc"], 50),
        "matched_symbols_per_s": _sample_rate(s["match"]),
        "dematched_symbols_per_s": _sample_rate(s["dematch"]),
        "cli_small_p50_ms": _quantile_ms(s["cli_small"], 50),
    }


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "geomhuffman", "__init__.py")):
        print(f"error: no geomhuffman package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import layers
    from workloads import WORKLOADS, Recorder

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = layers.pinned_env(ROOT)
    work = os.path.join(OUT, f"{args.workload}-{args.seed}")

    # set-up: a fresh interpreter's import of the package, input generation
    # and a warm-up call, repeated; the median is reported
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import geomhuffman.cli"], env=env, cwd=ROOT, check=True)
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.prepare()
        workload.warm_up(layers.Lib(ROOT, env))
        setup_times.append(time.perf_counter() - t0)

    trace = layers.Trace() if args.trace else None
    rec = Recorder()
    lib = layers.Lib(ROOT, env, trace)
    plain = layers.Lib(ROOT, env)
    pass_times, plain_times = [], []
    start = time.perf_counter()
    while True:
        if trace is not None:
            # an untraced pass before each traced one, to measure what tracing costs
            before = plain.busy
            rec.trace = None
            workload.round(plain, rec)
            plain_times.append(plain.busy - before)
            rec.passes += 1
            trace.add("cli.start_s", lib.cli_start())
        before = lib.busy
        rec.trace = trace
        workload.round(lib, rec)
        pass_times.append(lib.busy - before)
        rec.passes += 1
        if time.perf_counter() - start >= args.seconds:
            break

    for line in rec.wrong[:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    if trace is not None:
        values = trace.per_pass(len(pass_times))
        values["trace.overhead_pct"] = 100.0 * (statistics.median(pass_times) / statistics.median(plain_times) - 1.0)
        units = layers.LAYER_METRICS
        trace.write_spans(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        peak = peak_rss_mib(children=workload.in_subprocesses)
        values = end_to_end(rec, setup_times, pass_times, peak)
        units = END_TO_END
    result = {
        "correct": not rec.wrong,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
