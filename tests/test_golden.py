"""Golden artifacts: CLI outputs byte for byte, triangle and polygon kernels
repr for repr.

The files under tests/golden/ were written by tests/golden/regen.py. A
change that alters an artifact by design reruns that script, and the diff
shows in review; any other change must reproduce every byte.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_golden_files_match_the_cases():
    expected = set(regen.CLI_CASES)
    expected |= {
        name.rsplit(".", 1)[0] + ".trace.csv"
        for name, argv in regen.CLI_CASES.items() if regen.writes_trace(argv)
    }
    assert {p.name for p in regen.CLI_DIR.iterdir()} == expected


@pytest.mark.parametrize("name", sorted(regen.CLI_CASES))
def test_cli_output_is_byte_identical(name, tmp_path):
    """Each command's stdout (and steiner's trace CSV) equals the golden bytes.

    The README claims these artifacts are byte-identical on any platform with
    IEEE-754 doubles; this test checks that claim on the host it runs on only.
    """
    for fname, data in regen.run_cli_case(name, tmp_path).items():
        golden = (regen.CLI_DIR / fname).read_bytes()
        if data != golden:
            got, want = data.decode().splitlines(), golden.decode().splitlines()
            first = next(
                (i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want))
            )
            pytest.fail(
                f"{fname} differs at line {first + 1}:\n"
                f"  got:  {got[first] if first < len(got) else '<end>'}\n"
                f"  want: {want[first] if first < len(want) else '<end>'}"
            )


@pytest.mark.parametrize(
    "name", sorted(name for name, argv in regen.CLI_CASES.items() if regen.writes_trace(argv))
)
def test_steiner_goldens_end_at_the_regular_area(name):
    """final.area_gap_to_regular is A_reg - A for the regular polygon of the
    final perimeter, within min(2 n, 10) ulps of A_reg, a bound that does not
    grow with n (2 and 3 ulps measured at n = 8 and 12; 8 at most on every
    run of tests/test_polygon.py and at most 5 from n = 8 to 2,048)."""
    from hyplobe.polygon import regular_polygon_for_perimeter

    report = json.loads((regen.CLI_DIR / name).read_text(encoding="utf-8"))
    final, n = report["final"], report["n"]
    regular = regular_polygon_for_perimeter(n, final["perimeter"]).area
    assert final["area_gap_to_regular"] == regular - final["area"]
    assert abs(final["area_gap_to_regular"]) <= min(2 * n, 10) * math.ulp(regular)


class _KernelGolden:
    """Compares a kernel golden written by regen.py with a fresh generation."""

    path: Path
    generate: staticmethod

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(self.path.read_text(encoding="utf-8"))

    @pytest.fixture(scope="class")
    def current(self):
        return self.generate()

    def test_inputs_are_the_golden_inputs(self, current, golden):
        def inputs(g):
            return {k: v for k, v in g.items() if k not in ("sha256", "first", "refusals")}

        assert inputs(current) == inputs(golden)

    def test_first_records_match(self, current, golden):
        for got, want in zip(current["first"], golden["first"]):
            assert got == want

    def test_refusals_match_with_their_messages(self, current, golden):
        assert len(current["refusals"]) == len(golden["refusals"])
        for got, want in zip(current["refusals"], golden["refusals"]):
            assert got == want

    def test_digest_of_every_record_matches(self, current, golden):
        assert current["sha256"] == golden["sha256"]


class TestTriangleKernels(_KernelGolden):
    path = regen.KERNELS
    generate = staticmethod(regen.kernel_golden)

    def test_figure_is_built_wherever_sas_solves(self):
        from hyplobe.errors import DomainError
        from hyplobe.triangle import build_figure1, solve_sas

        refused = []
        for inp in regen.kernel_inputs():
            try:
                solve_sas(*inp)
            except DomainError:
                continue
            try:
                build_figure1(*inp)
            except DomainError as exc:
                refused.append((inp, exc))
        assert refused == []


class TestPolygonKernels(_KernelGolden):
    path = regen.POLYGON_KERNELS
    generate = staticmethod(regen.polygon_golden)
