"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Run from the root of a checkout. It shows that
  * a tiny run of every workload, untraced and traced, emits every metric
    named in BENCHMARK.json with its unit, and
  * the checkers count a known-wrong answer as a failure: `verify
    --inject-fault tau-sign` in cli-cold, and a perturbed area fed to the
    triangle-batch checker, while the unperturbed outputs pass.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import inputs  # noqa: E402
import run  # noqa: E402

TINY_SECONDS = "2"


def emitted_metrics() -> list[str]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in inputs.WORKLOADS:
        for trace in (0, 1):
            declared = spec["per_layer" if trace else "end_to_end"]
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", TINY_SECONDS, "--trace", str(trace)],
                capture_output=True, timeout=180)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
                continue
            result = json.loads(proc.stdout.decode().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
            if not result["attempted"] >= 1 or not result["correct"]:
                problems.append(f"{where}: attempted {result['attempted']}, "
                                f"correct {result['correct']}")
    return problems


def wrong_answers_fail() -> list[str]:
    import child

    problems = []

    def expect(label, reason, should_fail):
        if (reason is not None) != should_fail:
            problems.append(f"{label}: checker returned {reason!r}")

    env = run.child_env(os.getcwd())
    os.makedirs(run.OUT, exist_ok=True)
    for argv, should_fail in ((["verify", "--samples", "50", "--seed", "0"], False),
                              (["verify", "--samples", "50", "--seed", "0",
                                "--inject-fault", "tau-sign"], True)):
        rec = run.run_cli(env, argv, importtime=False)
        rec.update(kind="verify", argv=argv)
        expect(" ".join(argv), run.cli_reasons([rec])[0], should_fail)

    tri_in = (1.0, 1.2, 0.9)
    tri_out = child.TriangleBatch.run(tri_in)
    expect("triangle-batch output", run.check_record(tri_in, tri_out), False)
    wrong = (tri_out[0] * (1.0 + 1e-8),) + tri_out[1:]
    expect("triangle-batch area * (1 + 1e-8)", run.check_record(tri_in, wrong), True)
    return problems


def main() -> int:
    problems = wrong_answers_fail() + emitted_metrics()
    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("all checks passed" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
