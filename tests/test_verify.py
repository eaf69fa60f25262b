"""The verify suite's random streams: a pure-Python replay of numpy's."""

import numpy as np
import pytest

from hyplobe import DomainError, verify
from hyplobe._pcg64 import DefaultRng


class TestDefaultRngStream:
    """DefaultRng([seed, k]) draws what numpy.random.default_rng([seed, k]) draws."""

    def test_interleaved_draws_match_default_rng(self):
        meta = np.random.default_rng(2027)
        seeds = (
            list(range(300))
            + meta.integers(0, 2**32, 150, dtype=np.uint64).tolist()
            + meta.integers(2**32, 2**64 - 1, 100, dtype=np.uint64, endpoint=True).tolist()
            + [2**32 - 1, 2**32, 2**64 + 5, 2**160 + 9]
        )
        for seed in seeds:
            for k in range(9):
                ours, theirs = DefaultRng([seed, k]), np.random.default_rng([seed, k])
                # a uniform draw between two integer draws leaves numpy's
                # buffered half word in place, so mix all three kinds
                for kind in meta.integers(0, 3, 12):
                    if kind == 0:
                        got, want = ours.uniform(0.1, 3.0), theirs.uniform(0.1, 3.0)
                        assert got.hex() == want.hex(), (seed, k)
                    elif kind == 1:
                        assert ours.integers(4, 10) == theirs.integers(4, 10), (seed, k)
                    else:
                        assert ours.integers(0, 2**32) == theirs.integers(0, 2**32), (seed, k)

    def test_lemire_rejection_and_single_value_ranges(self):
        # spans just above 2^31 reject almost half of all words; a single
        # value draws nothing in numpy, so the stream must not advance
        for seed in range(40):
            ours, theirs = DefaultRng([seed, 3]), np.random.default_rng([seed, 3])
            for low, high in [(0, 2**31 + 1), (-7, -6), (5, 2**32 - 1), (-(2**31), 2**31)]:
                for _ in range(5):
                    assert ours.integers(low, high) == theirs.integers(low, high), seed

    def test_refusals(self):
        rng = DefaultRng([1, 2])
        with pytest.raises(ValueError):
            rng.integers(0, 2**32 + 1)
        with pytest.raises(ValueError):
            rng.integers(3, 3)
        with pytest.raises(ValueError):
            DefaultRng([5, -1])
        with pytest.raises(ValueError):
            DefaultRng([-5, 0])
        with pytest.raises(TypeError):
            DefaultRng([1, 2.0])


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
    def test_numpy_generator_gives_equal_results(self):
        assert len(_checks(0)) == sum(n.startswith("check_") for n in dir(verify))
        for seed in (0, 7, 2**33 + 1):
            for k, check in enumerate(_checks(40)):
                pure = check(DefaultRng([seed, k]))
                numpy = check(np.random.default_rng([seed, k]))
                assert pure == numpy, (seed, k)
                assert pure.passed

    def test_run_all_refuses_negative_seed(self):
        with pytest.raises(DomainError):
            verify.run_all(samples=10, seed=-1)

    def test_run_all_refuses_fewer_than_one_sample(self):
        # with no samples, three checks would pass having checked nothing
        for samples in (0, -1):
            with pytest.raises(DomainError, match="samples"):
                verify.run_all(samples=samples, seed=0)
