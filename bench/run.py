"""The hyplobe benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from ./src,
never from an installed copy. The load is one client with one request in
flight (a closed loop), so at most two processes compute at once: the
workload's client and, for cli-cold, the CLI process it waits for.
--seconds sizes a fixed amount of work (inputs.work) that takes about that
long, so the same seed always attempts the same requests.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, from an
untraced run. --trace 1 prints the per-layer metrics from a traced run of the
same workload, which also measures the tracing overhead. The lines before the
last give the run record, the failure breakdown, the input-property shares
and the tail percentile; the last line is the JSON result. In it, `failed`
counts every request that raised, exited nonzero, was refused on in-domain
input or failed its output check, and `correct` is false if any request
crashed outside hyplobe's documented errors. Spans and run records are
written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from time import perf_counter, perf_counter_ns

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

OUT = ".bench_out"
# setup_s is the median of this many set-ups before the timed loop and as
# many after it, so that it covers the host's speed at both ends of the run.
SETUP_SAMPLES_EACH_SIDE = 3
IMPORT_REPEATS = 3
# A run must end within 180 s: every wait is cut at RUN_LIMIT_S after start.
RUN_LIMIT_S = 170.0
_START = perf_counter()
# latency_tail_s is the highest percentile with at least ten passing requests
# beyond it. It is fixed per workload, at the percentile that leaves ten
# beyond it at the fewest passing requests any seed gives a 40 s run.
TAIL_PERCENTILE = {"triangle-batch": 96.0, "cli-cold": 76.0}
SINGLE_THREADED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SELF_LAYERS = ("harness", "python", "import", "cli", "triangle")
REFUSALS = ("DomainError", "DegenerateInputError", "NonConvexError")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in SINGLE_THREADED:
        env[var] = "1"
    return env


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def remaining_s() -> float:
    return max(1.0, RUN_LIMIT_S - (perf_counter() - _START))


def run_process(cmd, env):
    """Run to completion; return (completed process, start ns, end ns)."""
    t0 = perf_counter_ns()
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=remaining_s())
    return proc, t0, perf_counter_ns()


def wall_s(cmd, env) -> float:
    proc, t0, t1 = run_process(cmd, env)
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return (t1 - t0) * 1e-9


def warm_up(root: str, env: dict) -> None:
    """Import once untimed (this also writes the bytecode cache) and check the source."""
    proc, _, _ = run_process(python("-c", "import hyplobe; print(hyplobe.__file__)"), env)
    if proc.returncode != 0:
        raise BenchError("cannot import hyplobe from ./src: " + proc.stderr.decode()[-500:])
    found = os.path.realpath(proc.stdout.decode().strip())
    if not found.startswith(os.path.realpath(os.path.join(root, "src")) + os.sep):
        raise BenchError(f"hyplobe was imported from {found}, not from ./src")


def run_record(root: str, args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=root)
        commit = proc.stdout.decode().strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
        "threads_per_process": 1,
    }


# ---------------------------------------------------------------- in-process


def start_child(args, mode: str, env: dict, seconds: float = 0.0):
    """Start bench/child.py; return (process, seconds from start to READY, output path)."""
    out = os.path.join(OUT, f"{args.workload}-{mode}.json")
    cmd = python(os.path.join(BENCH, "child.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode,
                 "--out", out)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line != b"READY\n":
        finish_child(proc)
        raise BenchError(f"workload child ({mode}) ended before it was ready")
    return proc, ready, out


def finish_child(proc, out: str | None = None):
    """Wait for the child; return its result and spans (if it wrote any)."""
    try:
        code = proc.wait(timeout=remaining_s())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"workload child exited {code}")
    if out is None:
        return None, None
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, tracing.read_spans(out + ".spans.jsonl")


def check_record(inp, out) -> str | None:
    try:
        return checks.check_triangle(inp, out)
    except (TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def classify(records) -> list[str | None]:
    """Failure reason of each triangle-batch record (None for a pass): exception or check."""
    return [err if err is not None else check_record(inp, out) for inp, _, err, out in records]


# ------------------------------------------------------------------ cli-cold


def run_cli(env, argv, importtime: bool) -> dict:
    csv_path = os.path.join(OUT, "cli_trace.csv")
    if argv[0] == "steiner":
        argv = argv + ["--trace-csv", csv_path]
    flags = ("-X", "importtime") if importtime else ()
    proc, t0, t1 = run_process(python(*flags, "-m", "hyplobe", *argv), env)
    trace_csv = None
    if argv[0] == "steiner" and os.path.exists(csv_path):
        with open(csv_path, "rb") as fh:
            trace_csv = fh.read()
        os.remove(csv_path)
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "csv": trace_csv, "start_ns": t0, "end_ns": t1}


def cli_loop(seed: int, env: dict, seconds: float, traced: bool = False):
    """Closed loop of fresh CLI processes; returns (records, untraced latencies).

    Sends the run's fixed requests (inputs.work) in order, each cycle of
    kinds pinned to the next allowed CPU. When ``traced``, each request runs
    twice in a row, plainly and then under -X importtime: the records hold
    the traced runs, which must repeat the plain runs' bytes, and the plain
    latencies pair with them.
    """
    cpus = inputs.allowed_cpus()
    count, _ = inputs.work("cli-cold", seconds)
    records, plain_latencies = [], []
    for i, (kind, argv) in enumerate(inputs.cli_requests(seed, count)):
        if i % len(inputs.CLI_KINDS) == 0:
            inputs.pin_to_cpu_for_round(i // len(inputs.CLI_KINDS), cpus)
        rec = run_cli(env, argv, importtime=False)
        if traced:
            plain_latencies.append((rec["end_ns"] - rec["start_ns"]) * 1e-9)
            rec = dict(run_cli(env, argv, importtime=True), first=rec)
        rec.update(kind=kind, argv=argv)
        records.append(rec)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, set(cpus))
    return records, plain_latencies


def cli_reasons(records) -> list[str | None]:
    """Failure reason of every CLI request; a signal or a traceback counts as a crash."""
    return ["crash:exit" if r["returncode"] < 0 or b"Traceback" in r["stderr"]
            else checks.check_cli(r, r.get("first")) for r in records]


def cli_as_records(records) -> list:
    """cli-cold requests in the [input, latency, error, output] layout of the other workloads."""
    return [(r["argv"], (r["end_ns"] - r["start_ns"]) * 1e-9, None, None) for r in records]


# ----------------------------------------------------------------- metrics


def property_shares(workload: str, records) -> dict[str, float]:
    """Share of requests with the input properties solver behaviour depends on."""
    bc9 = thin = 0
    for inp, *_ in records:
        sides = None
        if workload == "triangle-batch":
            sides = inp[0], inp[1]
        elif workload == "cli-cold" and inp[0] in ("triangle", "optimize"):
            sides = float(inp[inp.index("--b") + 1]), float(inp[inp.index("--c") + 1])
        if sides is not None:
            bc9 += sum(sides) >= 9.0
            thin += min(sides) < 1e-3
    n = max(1, len(records))
    return {"inputs.bc_ge_9_share": bc9 / n, "inputs.thin_share": thin / n}


def percentile(values: list[float], pct: float) -> float:
    """Linearly interpolated percentile, so that p50 is the median."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload, records, reasons, setups, peak_rss_mb, info) -> dict[str, float]:
    """The end-to-end metrics of an untraced run.

    A record's latency is the least of its request's repeats (one for
    cli-cold). requests_per_s is passing requests over the summed latency of
    every request, passing or not: the closed loop's wall time with each
    request at its best.
    """
    passing = [r[1] for r, why in zip(records, reasons) if why is None]
    if not passing:
        raise BenchError("no request passed its check; latency is undefined")
    pct = TAIL_PERCENTILE[workload]
    tail = percentile(passing, pct)
    info.append(f"{len(passing)} of {len(records)} requests passed; latency_tail_s is "
                f"p{pct:g}, with {sum(x > tail for x in passing)} passing requests beyond it")
    info.append("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    return {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(passing) / sum(r[1] for r in records),
        "latency_p50_s": statistics.median(passing),
        "latency_tail_s": tail,
        "passed_share": len(passing) / len(records),
        "peak_rss_mb": peak_rss_mb,
    }


def latency_by_kind(workload: str, records) -> dict[str, float]:
    """Median latency per CLI subcommand (every request, passing or not)."""
    by_kind: dict[str, list[float]] = {}
    for inp, latency, *_ in records:
        key = "all"
        if workload == "cli-cold":
            key = "triangle_svg" if "svg" in inp else inp[0]
        by_kind.setdefault(key, []).append(latency)
    return {k: round(statistics.median(v), 6) for k, v in sorted(by_kind.items())}


def failure_counts(reasons) -> dict[str, int]:
    counts: dict[str, int] = {}
    for why in reasons:
        if why is not None:
            counts[why] = counts.get(why, 0) + 1
    return counts


def _importtime_lines(stderr: str):
    """(name, self seconds, top level?) of each line of -X importtime output."""
    for line in stderr.splitlines():
        if line.startswith("import time:") and "imported package" not in line:
            self_us, _, name = line[len("import time:"):].split("|")
            yield name.strip(), int(self_us) * 1e-6, not name.startswith("  ")


def parse_importtime(stderr: str, startup: set[str]) -> dict[str, float]:
    """Import seconds of everything imported after interpreter start-up.

    ``startup`` holds the top-level modules a bare interpreter imports itself.
    Each package's figure sums the self time of its modules.
    """
    totals = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "hyplobe": 0.0}
    block: list[tuple[str, float]] = []
    for name, own, top in _importtime_lines(stderr):
        block.append((name, own))
        if not top:
            continue
        if name not in startup:
            for mod, s in block:
                totals["total"] += s
                for pkg in ("scipy", "numpy", "hyplobe"):
                    if mod == pkg or mod.startswith(pkg + "."):
                        totals[pkg] += s
        block = []
    return totals


def import_layers(env) -> tuple[dict[str, float], set[str]]:
    proc, _, _ = run_process(python("-X", "importtime", "-c", "pass"), env)
    startup = {name for name, _, top in _importtime_lines(proc.stderr.decode()) if top}
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc, _, _ = run_process(python("-X", "importtime", "-c", "import hyplobe"), env)
        runs.append(parse_importtime(proc.stderr.decode(), startup))
    metrics = {f"import.{k}_s": statistics.median(r[k] for r in runs) for k in runs[0]}
    metrics["cli.bare_python_s"] = statistics.median(
        wall_s(python("-c", "pass"), env) for _ in range(IMPORT_REPEATS))
    return metrics, startup


def self_shares(spans) -> dict[str, float]:
    """Share of request time spent in each layer's own code (its children excluded)."""
    root = []
    for i, span in enumerate(spans):
        root.append(i if span[tracing.PARENT] < 0 else root[span[tracing.PARENT]])
    in_request = [spans[r][tracing.NAME] == "request" for r in root]
    total = sum(tracing.duration_s(s) for s in spans if s[tracing.NAME] == "request")
    shares = {"selfshare." + name: 0.0 for name in SELF_LAYERS}
    for span, own, inside in zip(spans, tracing.self_times(spans), in_request):
        if inside:
            shares["selfshare." + tracing.layer(span[tracing.NAME])] += own / total
    return shares


def layer_counts(workload: str, reasons, records, spans, steiner_runs) -> dict[str, float]:
    """Failure counts of the traced triangle requests and counts of the probe's polygons."""
    counts = {
        "triangle.solver_errors": 0, "triangle.refusals": 0, "triangle.inaccurate": 0,
        "polygon.generator_failures": sum(
            1 for s in spans if s[tracing.NAME] == "polygon.random_convex_polygon"
            and s[tracing.ERROR] is not None),
        "polygon.unconverged": sum(not converged for _, converged, _, _ in steiner_runs),
        "polygon.sweeps": sum(sweeps for _, _, sweeps, _ in steiner_runs),
        "polygon.moves_tried": sum(sweeps * n for n, _, sweeps, _ in steiner_runs),
        "polygon.moves_accepted": sum(accepted for *_, accepted in steiner_runs),
    }
    if workload == "triangle-batch":
        for (_, _, err, _), why in zip(records, reasons):
            if err == "SolverError":
                counts["triangle.solver_errors"] += 1
            elif err in REFUSALS:
                counts["triangle.refusals"] += 1
            elif err is None and why is not None:
                counts["triangle.inaccurate"] += 1
    tried = counts["polygon.moves_tried"]
    counts["polygon.accept_ratio"] = counts["polygon.moves_accepted"] / tried if tried else 0.0
    return counts


# ------------------------------------------------------------------- runs


def setup_samples(sample) -> list[float]:
    """SETUP_SAMPLES_EACH_SIDE set-up times from ``sample()``, alternating over the CPUs."""
    cpus = inputs.allowed_cpus()
    times = []
    for k in range(SETUP_SAMPLES_EACH_SIDE):
        inputs.pin_to_cpu_for_round(k, cpus)
        times.append(sample())
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, set(cpus))
    return times


def measure(args, env, info):
    """Untraced run: the end-to-end metrics."""
    if args.workload == "cli-cold":
        def sample():
            return wall_s(python("-c", "import hyplobe"), env)

        setups = setup_samples(sample)
        cli_records, _ = cli_loop(args.seed, env, args.seconds)
        setups += setup_samples(sample)
        reasons = cli_reasons(cli_records)
        records = cli_as_records(cli_records)
        # the largest CLI process; start-up and import children are smaller
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        def sample():
            proc, ready, _ = start_child(args, "setup", env)
            finish_child(proc)
            return ready

        setups = setup_samples(sample)
        proc, ready, out = start_child(args, "run", env, args.seconds)
        result, _ = finish_child(proc, out)
        setups += [ready] + setup_samples(sample)
        peak_rss_mb = result["peak_rss_kb"] / 1024.0
        records = result["records"]
        reasons = classify(records)
    metrics = end_to_end(args.workload, records, reasons, setups, peak_rss_mb, info)
    info.append("median latency by kind: " + json.dumps(latency_by_kind(args.workload, records)))
    info.append("failures: " + json.dumps(failure_counts(reasons), sort_keys=True))
    info.append("input shares: " + json.dumps(property_shares(args.workload, records)))
    return metrics, records, reasons


def cli_spans(traced, startup, bare_s) -> tracing.Tracer:
    """Spans of traced CLI processes: python start-up, imports (from -X importtime), subcommand."""
    tr = tracing.Tracer()
    for i, r in enumerate(traced):
        imported = parse_importtime(r["stderr"].decode(errors="replace"), startup)["total"]
        t_import = r["start_ns"] + int(bare_s * 1e9)
        t_cli = t_import + int(imported * 1e9)
        tr.request = i
        req = tr.add("request", r["start_ns"], r["end_ns"],
                     error=None if r["returncode"] == 0 else f"exit {r['returncode']}")
        tr.add("python.start", r["start_ns"], t_import, parent=req)
        tr.add("import.all", t_import, t_cli, parent=req)
        tr.add("cli." + r["kind"], t_cli, r["end_ns"], parent=req)
    return tr


def measure_traced(args, env, info):
    """Traced run: the per-layer metrics and the tracing overhead."""
    metrics, startup = import_layers(env)
    if args.workload == "cli-cold":
        traced, plain_lat = cli_loop(args.seed, env, args.seconds, traced=True)
        spans = cli_spans(traced, startup, metrics["cli.bare_python_s"]).spans
        reasons = cli_reasons(traced)
        records = cli_as_records(traced)
        proc, _, out = start_child(args, "probe", env)
        result, probe_spans = finish_child(proc, out)
        tracing.extend(spans, probe_spans)
    else:
        proc, _, out = start_child(args, "trace", env, args.seconds)
        result, spans = finish_child(proc, out)
        records, plain_lat = result["records"], result["plain_latencies"]
        reasons = classify(records)
    traced_lat = [r[1] for r in records]
    for name, value in tracing.per_call_medians(spans).items():
        metrics.setdefault(name + "_s", value)
    metrics.update(self_shares(spans))
    metrics["trace.overhead_share"] = sum(traced_lat) / sum(plain_lat) - 1.0
    metrics["trace.overhead_p50_s"] = statistics.median(traced_lat) - statistics.median(plain_lat)
    metrics.update(layer_counts(args.workload, reasons, records, spans, result["steiner_runs"]))
    metrics.update(property_shares(args.workload, records))
    info.append(f"tracing overhead: {100 * metrics['trace.overhead_share']:.2f}% of request "
                f"time over {len(records)} requests")
    info.append("self time shares: " + json.dumps(
        {k: round(v, 4) for k, v in metrics.items() if k.startswith("selfshare.")}))
    info.append("failures: " + json.dumps(failure_counts(reasons), sort_keys=True))
    path = os.path.join(OUT, f"spans-{args.workload}.jsonl")
    tracing.write_spans(spans, path)
    info.append(f"{len(spans)} spans written to {path}")
    return metrics, records, reasons


def declared_metrics(root: str, trace: int) -> list[dict]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "hyplobe", "__init__.py")):
            raise BenchError("run from the root of a hyplobe checkout: ./src/hyplobe is missing")
        declared = declared_metrics(root, args.trace)
        os.makedirs(OUT, exist_ok=True)
        env = child_env(root)
        warm_up(root, env)
        record = run_record(root, args)
        info = ["run record: " + json.dumps(record, sort_keys=True)]
        run = measure_traced if args.trace else measure
        values, records, reasons = run(args, env, info)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise BenchError("metrics not measured: " + ", ".join(missing))
        result = {
            "correct": not any(why and why.startswith("crash:") for why in reasons),
            "attempted": len(records),
            "failed": sum(why is not None for why in reasons),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }
        with open(os.path.join(OUT, f"record-{args.workload}-trace{args.trace}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"record": record, "info": info, "result": result}, fh, indent=1)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        traceback.print_exc()
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in info:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
