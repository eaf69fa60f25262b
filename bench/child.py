"""One in-process workload, run in a fresh interpreter started by run.py.

    python bench/child.py --workload W --seed S --seconds T --mode M --out PATH

Modes:
  setup  import hyplobe, generate the inputs, print READY and exit;
  run    after READY, run the closed timed loop over the run's fixed set of
         requests (inputs.work sizes it from T), untraced, and record the peak
         resident memory at the end of its first round;
  trace  after READY, send every request of that set once untraced and once
         traced, then make one probe pass over every layer;
  probe  after READY, only the probe pass (the layers behind cli-cold).

Requests are sent one at a time by this single client. Per-request records
(inputs, latency, outputs or the exception) go to PATH as JSON; run.py checks
them against independent references outside the timed section. Spans go to
PATH with the suffix .spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter_ns

import numpy as np

import inputs
from tracing import Tracer, duration_s, write_spans

from hyplobe import cli, disk, oracle, polygon, svgfig, triangle, verify
from hyplobe.errors import HyplobeError


class TriangleBatch:
    """solve_sas, build_figure1, optimal_alpha, build_figure1 at alpha*, certificate.

    ``points`` collects disk points of the traced requests for the probe.
    """

    name = "triangle-batch"

    def __init__(self, seed: int, count: int) -> None:
        self.inputs = inputs.triangle_inputs(seed, count)
        self.points: list = []

    @staticmethod
    def run(inp):
        b, c, alpha = inp
        sol = triangle.solve_sas(b, c, alpha)
        triangle.build_figure1(b, c, alpha)
        opt = triangle.optimal_alpha(b, c)
        cert = triangle.optimality_certificate(triangle.build_figure1(b, c, opt.alpha_star))
        return (sol.area, opt.alpha_star, cert.acb_angle, cert.tangency_gap, cert.residual)

    def run_traced(self, inp, tr: Tracer):
        b, c, alpha = inp
        sol = tr.call("triangle.solve_sas", triangle.solve_sas, b, c, alpha)
        fig = tr.call("triangle.build_figure1", triangle.build_figure1, b, c, alpha)
        opt = tr.call("triangle.optimal_alpha", triangle.optimal_alpha, b, c)
        fig_star = tr.call("triangle.build_figure1", triangle.build_figure1, b, c, opt.alpha_star)
        cert = tr.call("triangle.optimality_certificate", triangle.optimality_certificate, fig_star)
        if len(self.points) < 2000:
            self.points += [fig.B, fig.C]
        return (sol.area, opt.alpha_star, cert.acb_angle, cert.tangency_gap, cert.residual)


@contextlib.contextmanager
def traced_verify(tr: Tracer):
    """Wrap verify's check_* functions and the oracle searches they call in spans.

    verify.run_all looks these names up on their modules at call time, so the
    wrappers see every call; the originals are restored on exit.
    """
    saved = []

    def wrap_check(fn):
        def traced(*args, **kwargs):
            sid = tr.open("verify." + fn.__name__)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr.close(sid, type(exc).__name__)
                raise
            tr.close(sid)
            tr.spans[sid][0] = "verify." + result.name.replace("-", "_")
            return result
        return traced

    def wrap(name, fn):
        return lambda *args, **kwargs: tr.call(name, fn, *args, **kwargs)

    for attr in dir(verify):
        fn = getattr(verify, attr)
        if attr.startswith("check_") and callable(fn):
            saved.append((verify, attr, fn))
            setattr(verify, attr, wrap_check(fn))
    for attr in ("grid_search_max_area", "geodesic_length_by_sampling"):
        fn = getattr(oracle, attr)
        saved.append((oracle, attr, fn))
        setattr(oracle, attr, wrap("oracle." + attr, fn))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def error_name(exc: Exception) -> str:
    """The exception type; 'crash:' marks one outside hyplobe's documented errors."""
    name = type(exc).__name__
    return name if isinstance(exc, HyplobeError) else "crash:" + name


def _plain(w, inp):
    err = out = None
    t0 = perf_counter_ns()
    try:
        out = w.run(inp)
    except Exception as exc:  # every failure is counted, never dropped
        err = error_name(exc)
    return out, err, (perf_counter_ns() - t0) * 1e-9


def _traced(w, inp, tr: Tracer, i: int):
    err = out = None
    tr.request = i
    sid = tr.open("request")
    try:
        out = w.run_traced(inp, tr)
    except Exception as exc:
        err = error_name(exc)
    tr.close(sid, err)
    return out, err, duration_s(tr.spans[sid])


def timed_loop(w, distinct: int, repeats: int, tr: Tracer | None = None):
    """Closed loop, one request in flight, over requests 0..distinct-1.

    Returns (records, untraced latencies, peak resident kB after the first
    round). A record is (input, latency, exception name or None, output).

    The requests are sent ``repeats`` times over, one round after another,
    each round pinned to the next allowed CPU. A request's latency is the
    least of its repeats: other tenants of a shared host only ever add time,
    and repeats a round apart meet the host in different states. Its outcome
    is that of the first round; a later round that gives another outcome
    makes it fail as nondeterministic. With a tracer (one round) every
    request is sent twice in a row, untraced and traced in alternating order:
    the records hold the traced outcome, and the untraced latencies pair with
    them to give the tracing overhead.
    """
    cpus = inputs.allowed_cpus()
    records, plain_latencies = [], []
    first_round_rss_kb = 0
    for r in range(repeats):
        inputs.pin_to_cpu_for_round(r, cpus)
        for i in range(distinct):
            inp = w.inputs[i]
            if tr is None:
                out, err, latency = _plain(w, inp)
            elif i % 2:  # alternate the order so neither pass gains from running second
                out, err, latency = _traced(w, inp, tr, i)
                plain_latencies.append(_plain(w, inp)[2])
            else:
                plain_latencies.append(_plain(w, inp)[2])
                out, err, latency = _traced(w, inp, tr, i)
            if r == 0:
                records.append([inp, latency, err, out])
                continue
            rec = records[i]
            rec[1] = min(rec[1], latency)
            if (err, repr(out)) != (rec[2], repr(rec[3])):
                rec[2] = "nondeterministic outcome"
        if r == 0:
            first_round_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, set(cpus))
    return [tuple(rec) for rec in records], plain_latencies, first_round_rss_kb


def _batch(tr: Tracer, name: str, fn, argsets, repeats: int = 5) -> None:
    """Time fn over every argument tuple as one span per repeat (per-call = span / calls)."""
    for _ in range(repeats):
        sid = tr.open(name, calls=len(argsets))
        for args in argsets:
            try:
                fn(*args)
            except HyplobeError:
                pass
        tr.close(sid)


def probe(tr: Tracer, seed: int, points: list, cli_in_process: bool) -> list:
    """Call every layer at least once on inputs drawn from this workload's seed.

    Gives the per-layer timings of layers the workload's requests do not
    call directly. Returns (n, converged, sweeps, accepted moves) of each
    polygon that passed the generator, for the polygon counts.
    """
    tr.request = "probe"
    rng = np.random.default_rng([seed, 9])
    figs = []
    # a well-conditioned triangle first, so every triangle and svgfig layer is timed
    triples = [(1.0, 1.2, 0.9)] + list(zip(*(v.tolist() for v in inputs.sides_angles(rng, 20))))
    for b, c, alpha in triples:
        try:
            tr.call("triangle.solve_sas", triangle.solve_sas, b, c, alpha)
            figs.append(tr.call("triangle.build_figure1", triangle.build_figure1, b, c, alpha))
            opt = tr.call("triangle.optimal_alpha", triangle.optimal_alpha, b, c)
            fig = tr.call("triangle.build_figure1", triangle.build_figure1, b, c, opt.alpha_star)
            tr.call("triangle.optimality_certificate", triangle.optimality_certificate, fig)
        except HyplobeError:
            pass
    for fig in figs[:5]:
        tr.call("svgfig.figure1_svg", svgfig.figure1_svg, fig)

    # one polygon of each size: random_convex_polygon, then steiner_optimize,
    # then the layers that run inside it, once on the initial and final polygon
    steiner_runs, final_vertices = [], []
    for n, polygon_seed in inputs.steiner_cycle(seed):
        try:
            poly = tr.call("polygon.random_convex_polygon", polygon.random_convex_polygon,
                           n, polygon_seed)
            res = tr.call("polygon.steiner_optimize", polygon.steiner_optimize, poly)
        except HyplobeError:
            continue
        steiner_runs.append((n, res.converged, res.sweeps, len(res.trace)))
        final_vertices += list(res.polygon.vertices)
        for p in (poly, res.polygon):
            tr.call("polygon.from_vertices", polygon.HyperbolicPolygon.from_vertices, p.vertices)
            tr.call("polygon.steiner_move", polygon.steiner_move, p, 0)
            tr.call("polygon.circumcircle_fit", polygon.circumcircle_fit, p)
        tr.call("polygon.regular_polygon_for_perimeter", polygon.regular_polygon_for_perimeter,
                n, polygon.polygon_perimeter(res.polygon))

    disk_points = []
    while len(disk_points) < 8:
        x, y = rng.uniform(-0.9, 0.9, 2).tolist()
        if x * x + y * y <= 0.81:
            disk_points.append(disk.DiskPoint(x, y))
    for _ in range(3):
        tr.call("oracle.grid_search_max_area", oracle.grid_search_max_area,
                float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0)), 100_000)
    for p, q in zip(disk_points[::2], disk_points[1::2]):
        tr.call("oracle.geodesic_length_by_sampling", oracle.geodesic_length_by_sampling,
                p, q, 10_000)
    with traced_verify(tr):
        tr.call("verify.run_all", verify.run_all, samples=50, seed=seed)

    pts = points + final_vertices + disk_points
    pts = [p for p, q in zip(pts, pts[1:] + pts[:1]) if abs(p.z - q.z) > 1e-6]
    pairs = list(zip(pts, pts[1:]))
    _batch(tr, "disk.hyp_distance", disk.hyp_distance, pairs)
    _batch(tr, "disk.geodesic_through", disk.geodesic_through, pairs)
    _batch(tr, "disk.angle_at_vertex", disk.angle_at_vertex, list(zip(pts[1:], pts, pts[2:])))
    polar = list(zip(rng.uniform(0.0, 9.0, len(pts)).tolist(),
                     rng.uniform(0.0, 6.283185307179586, len(pts)).tolist()))
    _batch(tr, "disk.point_from_polar", disk.point_from_polar, polar)

    if cli_in_process:
        os.makedirs(".bench_out", exist_ok=True)
        for kind, argv in inputs.cli_requests(seed, len(inputs.CLI_KINDS)):
            if kind == "steiner":
                argv = argv + ["--trace-csv", os.path.join(".bench_out", "probe_trace.csv")]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                tr.call("cli." + kind, cli.main, argv)
    return steiner_runs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="sizes the work: see inputs.work")
    ap.add_argument("--mode", choices=["setup", "run", "trace", "probe"], required=True)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    distinct, repeats = inputs.work(args.workload, args.seconds)
    w = TriangleBatch(args.seed, distinct) if args.workload == TriangleBatch.name else None
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.mode == "setup":
        return 0

    result: dict = {}
    tr = Tracer()
    if args.mode == "run":
        result["records"], _, result["peak_rss_kb"] = timed_loop(w, distinct, repeats)
    elif args.mode == "trace":
        _plain(w, w.inputs[0])  # lazy imports inside the package would bias the first pair
        result["records"], result["plain_latencies"], _ = timed_loop(w, distinct, 1, tr)
        result["steiner_runs"] = probe(tr, args.seed, w.points, cli_in_process=True)
    else:
        result["steiner_runs"] = probe(tr, args.seed, [], cli_in_process=False)
    write_spans(tr.spans, args.out + ".spans.jsonl")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
