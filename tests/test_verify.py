"""The verify suite's random streams, one random.Random per check, and the
faults its lines catch."""

from random import Random

import pytest

from hyplobe import DomainError, disk, polygon, triangle, verify


def _checks(samples):
    return [
        lambda r: verify.check_area_equivalence(r, samples),
        lambda r: verify.check_theorem1_grid(r, samples),
        lambda r: verify.check_certificates(r, samples),
        lambda r: verify.check_euclidean_limit(r, samples),
        lambda r: verify.check_inversion_identity(r, samples),
        lambda r: verify.check_metric_oracle(r, samples),
        lambda r: verify.check_isometry_invariance(r, samples),
        lambda r: verify.check_deficit_nonnegative(r, samples),
        lambda r: verify.check_polar_round_trip(r, samples),
    ]


class TestChecksOnEitherStream:
    def test_run_all_runs_each_check_on_its_own_stream(self):
        # every check_* is listed, and run_all's results are the checks' own
        # on Random((seed << 8) | k), each passing
        assert len(_checks(0)) == sum(n.startswith("check_") for n in dir(verify))
        for seed in (0, 7, 2**33 + 1):
            results = verify.run_all(samples=40, seed=seed)
            for k, check in enumerate(_checks(40)):
                direct = check(Random(seed << 8 | k))
                assert results[k] == direct, (seed, k)
                assert direct.passed, (seed, k)

    def test_run_all_refuses_negative_seed(self):
        with pytest.raises(DomainError):
            verify.run_all(samples=10, seed=-1)

    def test_run_all_refuses_non_integer_seed(self):
        # random.Random would hash a float seed rather than refuse it
        for seed in (1.0, 0.5):
            with pytest.raises(TypeError):
                verify.run_all(samples=10, seed=seed)

    def test_run_all_refuses_fewer_than_one_sample(self):
        # with no samples, three checks would pass having checked nothing
        for samples in (0, -1):
            with pytest.raises(DomainError, match="samples"):
                verify.run_all(samples=samples, seed=0)

    def test_run_all_refuses_a_non_integer_sample_count_before_any_check(self, monkeypatch):
        # range(1.5) would raise only in a later check, after the first ran
        def check(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in dir(verify):
            if name.startswith("check_"):
                monkeypatch.setattr(verify, name, check)
        for samples in (1.5, 1.0, "2"):
            with pytest.raises(TypeError):
                verify.run_all(samples=samples, seed=0)

    def test_every_seed_passes_at_the_benchmark_size(self, monkeypatch):
        # bench/inputs.py's cli-cold requests run verify with 50 samples at
        # a random seed, and a seed that tips one check over its bound reads
        # as a failed request: seeds 0-99 all pass (0-1999 measured). Each
        # "<" term's worst over them stays within half its bound, so a line
        # that drifts toward its bound fails here before a request does
        worst = {}
        judge = verify._judge

        def capture(name, *terms):
            for label, value, side, bound in terms:
                if side == "<":
                    worst[name, label, bound] = max(worst.get((name, label, bound), 0.0), value)
            return judge(name, *terms)

        monkeypatch.setattr(verify, "_judge", capture)
        for seed in range(100):
            failed = [r for r in verify.run_all(samples=50, seed=seed) if not r.passed]
            assert not failed, (seed, failed)
        assert len(worst) == 12  # every "<" term of the nine lines was seen
        assert {key: value for key, value in worst.items() if not value <= key[2] / 2} == {}


# The fault table: one library quantity scaled by 1 + eps, on a grid of eps,
# and the smallest eps that verify.run_all(samples=200, seed=0) catches, with
# the lines that catch it. Each row is (module, the function patched, the
# field of its result that is scaled, or None for a float result, the
# smallest eps caught, the failing lines there). A bound loosened, or a line
# dropped, raises a row's eps or empties its lines; a new line may only lower
# a row.
FAULTS = {
    "side-a": (triangle, "_sas", "a", 1e-14, ["euclidean-limit", "isometry-invariance"]),
    "beta": (
        triangle, "_sas", "beta", 1e-14, ["theorem1-grid-cross-check", "isometry-invariance"],
    ),
    "gamma": (
        triangle, "_sas", "gamma", 1e-14, ["theorem1-grid-cross-check", "isometry-invariance"],
    ),
    "area": (triangle, "_sas", "area", 1e-14, ["area-equivalence"]),
    "alpha-star": (
        triangle, "optimal_alpha", "alpha_star", 1e-14,
        ["theorem1-grid-cross-check", "optimality-certificates"],
    ),
    "figure1-tau": (triangle, "build_figure1", "tau", 1e-14, ["area-equivalence"]),
    "figure1-omega": (triangle, "build_figure1", "omega", 1e-14, ["inversion-identity"]),
    "figure1-b-prime": (
        triangle, "build_figure1", "b_prime", 1e-14,
        ["optimality-certificates", "inversion-identity"],
    ),
    "hyp-distance": (
        disk, "hyp_distance", None, 1e-14,
        ["euclidean-limit", "metric-oracle", "polar-round-trip"],
    ),
    "polygon-area": (polygon, "random_convex_polygon", "area", 0.5, ["deficit-nonnegativity"]),
    "measure-sides": (polygon, "_measure", "side_lengths", 1e-14, ["isometry-invariance"]),
    "measure-angles": (polygon, "_measure", "interior_angles", 1e-14, ["isometry-invariance"]),
    "measure-area": (polygon, "_measure", "area", 1e-13, ["isometry-invariance"]),
}
FAULT_EPSILONS = [10.0**e for e in range(-15, -4)] + [1e-3, 1e-1, 0.5]


@pytest.mark.parametrize("quantity", FAULTS)
def test_fault_table(monkeypatch, quantity):
    # the grid is walked upward to the first eps that fails, so every grid
    # point below the pinned one passes every line
    module, attr, field, pinned, lines = FAULTS[quantity]
    original = getattr(module, attr)

    def scaled(value):
        # a tuple field, such as omega or b_prime, element by element
        return tuple(map(scaled, value)) if isinstance(value, tuple) else value * (1.0 + eps)

    def faulty(*args):
        out = original(*args)
        return scaled(out) if field is None else out._replace(**{field: scaled(getattr(out, field))})

    monkeypatch.setattr(module, attr, faulty)
    for eps in FAULT_EPSILONS:
        failed = [r.name for r in verify.run_all(samples=200, seed=0) if not r.passed]
        if failed:
            break
    assert (eps, failed) == (pinned, lines)
