"""Seeded inputs of every workload, and the rounds they are sent in.

Imports numpy only, never hyplobe.

The same seed always gives the same inputs, each set drawn from its own
PCG64 stream.
"""

from __future__ import annotations

import math
import os

import numpy as np

WORKLOADS = ("cli-cold", "triangle-batch")

# The documented domain: sides up to D_MAX = 20, tiny and thin triangles
# included; apex angles well inside (ALPHA_EPS, pi - ALPHA_EPS).
SIDE_MIN, SIDE_MAX = 1e-6, 20.0
ALPHA_MIN, ALPHA_MAX = 0.01, math.pi - 0.01
# n >= 14 exposes the rejection-sampling generator and the spread floor.
STEINER_NS = (6, 8, 10, 12, 16, 24)
# Polygon seeds for n >= 14, fixed so that every traced run shows both defects
# at the same cost: at n = 16 the polygon passes the generator and then stops
# unconverged at the spread floor after about 200 sweeps (5-6 s); at n = 24
# the generator fails.
DEFECT_POLYGON_SEEDS = {16: 279396865, 24: 2582517476}

# cli-cold cycles through these kinds in this order.
CLI_KINDS = ("triangle", "triangle_svg", "optimize", "isoperimetric", "steiner", "verify")


# The work of a run is fixed by --seconds, never by how fast the host happens
# to be, so the same seed always attempts the same requests. The seconds are
# what a cli-cold cycle and a triangle-batch round took on a 2-vCPU Xeon host.
CLI_CYCLE_S = 5.3
TRIANGLE_REQUESTS = 1024
TRIANGLE_ROUND_S = 1.2


def work(workload: str, seconds: float) -> tuple[int, int]:
    """(distinct requests, rounds) of a run meant to take about ``seconds``.

    cli-cold sends whole cycles of its kinds once each. triangle-batch sends
    its TRIANGLE_REQUESTS requests in as many rounds as fit; a request's
    rounds, a second apart, meet the host in different states.
    """
    if workload == "cli-cold":
        return len(CLI_KINDS) * max(1, round(seconds / CLI_CYCLE_S)), 1
    return TRIANGLE_REQUESTS, max(1, round(seconds / TRIANGLE_ROUND_S))


def pin_to_cpu_for_round(k: int, cpus: list[int]) -> None:
    """Pin this process (and the processes it starts) to one CPU for round k.

    Rounds (a cycle of cli-cold, a pass of triangle-batch over its requests)
    alternate over the allowed CPUs. On a shared machine each core's
    speed can change within seconds, independently of the others', so a run
    spread evenly over all of them varies less than one left on any one.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def allowed_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]


def sides_angles(rng: np.random.Generator, count: int):
    """b and c log-uniform over [SIDE_MIN, SIDE_MAX], alpha uniform.

    (log b, log c) is drawn on a jittered grid: the square is cut into g x g
    cells, g = ceil(sqrt(count)), and ``count`` distinct cells, in random
    order, hold one draw each; alpha is stratified the same way in one
    dimension. Whether a request passes depends on its sides, so this keeps
    the pass share of a run close to that of the whole domain, whatever the
    seed.
    """
    g = math.isqrt(count - 1) + 1
    cells = rng.choice(g * g, count, replace=False)
    u = (np.stack([cells // g, cells % g]) + rng.uniform(size=(2, count))) / g
    lo, hi = math.log(SIDE_MIN), math.log(SIDE_MAX)
    b, c = np.clip(np.exp(lo + (hi - lo) * u), SIDE_MIN, SIDE_MAX)
    v = (rng.permutation(count) + rng.uniform(size=count)) / count
    return b, c, ALPHA_MIN + (ALPHA_MAX - ALPHA_MIN) * v


def triangle_inputs(seed: int, count: int) -> list[tuple[float, float, float]]:
    """(b, c, alpha) of each triangle-batch request."""
    b, c, alpha = sides_angles(np.random.default_rng([seed, 1]), count)
    return list(zip(b.tolist(), c.tolist(), alpha.tolist()))


def steiner_cycle(seed: int) -> list[tuple[int, int]]:
    """(n, polygon seed) for each n of STEINER_NS, as the traced run's probe sends them.

    Polygons with n <= 12 come from the seed, the others from DEFECT_POLYGON_SEEDS.
    """
    seeds = np.random.default_rng([seed, 2]).integers(0, 2**32, len(STEINER_NS)).tolist()
    return [(n, DEFECT_POLYGON_SEEDS.get(n, s)) for n, s in zip(STEINER_NS, seeds)]


def cli_requests(seed: int, count: int) -> list[tuple[str, list[str]]]:
    """(kind, argv after `python -m hyplobe`) of cli-cold requests 0..count-1.

    Cycles through CLI_KINDS; the sides of the triangle and optimize
    requests of all cycles are drawn together, and steiner alternates
    between n = 6 and n = 8, so every run has the same mix.
    """
    cycles = -(-count // len(CLI_KINDS))
    rng = np.random.default_rng([seed, 3])
    b, c, alpha = (v.tolist() for v in sides_angles(rng, 3 * cycles))
    requests = []
    for k in range(cycles):
        t0, t1, t2 = 3 * k, 3 * k + 1, 3 * k + 2
        argvs = [
            ["triangle", "--b", repr(b[t0]), "--c", repr(c[t0]), "--alpha", repr(alpha[t0])],
            ["triangle", "--b", repr(b[t1]), "--c", repr(c[t1]), "--alpha", repr(alpha[t1]),
             "--format", "svg"],
            ["optimize", "--b", repr(b[t2]), "--c", repr(c[t2])],
            ["isoperimetric", "--n-max", "96",
             "--perimeter", repr(float(rng.uniform(0.5, 20.0)))],
            ["steiner", "--n", str(6 + 2 * (k % 2)), "--seed", str(int(rng.integers(2**32)))],
            ["verify", "--samples", "50", "--seed", str(int(rng.integers(2**32)))],
        ]
        requests += zip(CLI_KINDS, argvs)
    return requests[:count]
