import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from patchcc.errors import InvalidIlluminantError, ParameterError
from patchcc.evaluation import angular_error, angular_error_many, summarize
from patchcc.image import normalize

from oracles import sort_oracle_stats


class TestAngularError:
    def test_identical_exact_zero(self):
        for v in ((1, 0, 0), (3, 4, 0), (0, 2, 0)):
            assert angular_error(v, v) == 0.0

    def test_orthogonal_exact(self):
        assert angular_error((1, 0, 0), (0, 1, 0)) == pytest.approx(90.0, abs=1e-9)

    def test_45_degrees(self):
        assert angular_error((1, 1, 0), (1, 0, 0)) == pytest.approx(45.0, abs=1e-9)

    def test_symmetric(self):
        a, b = (0.2, 0.5, 0.9), (0.8, 0.3, 0.1)
        assert angular_error(a, b) == angular_error(b, a)

    def test_scale_invariance_exact_for_powers_of_two(self):
        a, b = np.array([0.3, 0.7, 0.2]), np.array([0.5, 0.4, 0.8])
        assert angular_error(2 * a, 0.25 * b) == angular_error(a, b)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    @example(seed=8175, alpha=5.0, beta=1.0)  # arccos of the cosine missed by 1.4e-11
    def test_scale_invariance_property(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.05, 1.0, 3)
        b = rng.uniform(0.05, 1.0, 3)
        assert abs(angular_error(alpha * a, beta * b) - angular_error(a, b)) < 1e-12

    def test_accepts_illuminant_objects(self):
        assert angular_error(normalize((1, 1, 1)), (1, 1, 1)) == pytest.approx(0.0, abs=1e-6)

    def test_rejects_zero_vector(self):
        with pytest.raises(InvalidIlluminantError):
            angular_error((0, 0, 0), (1, 0, 0))
        with pytest.raises(InvalidIlluminantError):
            angular_error_many([[0.2, 0.5, 0.9], [0.0, 0.0, 0.0]], (1.0, 1.0, 1.0))

    def test_vectorized_matches_scalar(self):
        # the scalar error is one row of the array form, bit for bit, on
        # random and on near-equal pairs; an add-reduce norm or dot in either
        # form would differ on about 20% of them
        rng = np.random.default_rng(1)
        a = rng.uniform(0.1, 1.0, (2000, 3))
        for b in (rng.uniform(0.1, 1.0, a.shape), a + rng.normal(0.0, 1e-6, a.shape)):
            batch = angular_error_many(a, b)
            assert batch.tolist() == [angular_error(x, y) for x, y in zip(a, b)]
            assert angular_error_many(a, b[0]).tolist() == [angular_error(x, b[0]) for x in a]


class TestSummarize:
    def test_single_value(self):
        stats = summarize([5.0])
        assert stats.as_row() == (5.0, 5.0, 5.0, 5.0, 5.0, 5.0)

    def test_hand_evaluated_interpolation(self):
        stats = summarize([1, 2, 3, 4, 5])
        assert stats.median == 3.0
        assert stats.mean == 3.0
        assert stats.prc10 == pytest.approx(1.4)
        assert stats.prc90 == pytest.approx(4.6)

    def test_two_values(self):
        stats = summarize([0.0, 90.0])
        assert stats.min == 0.0 and stats.max == 90.0
        assert stats.median == 45.0 and stats.mean == 45.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            summarize([])

    def test_ordering_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            stats = summarize(rng.uniform(0, 40, size=rng.integers(1, 60)))
            assert stats.min <= stats.prc10 <= stats.median <= stats.prc90 <= stats.max
            assert stats.min <= stats.mean <= stats.max

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 30, size=37)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        assert summarize(values) == summarize(shuffled)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            values = rng.uniform(0, 50, size=int(rng.integers(1, 80)))
            got = summarize(values).as_row()
            want = sort_oracle_stats(values.tolist())
            assert np.allclose(got, want, atol=1e-12)

    def test_count_recorded(self):
        assert summarize([1, 2, 3]).count == 3

    def test_str_two_decimals(self):
        text = str(summarize([1.234, 5.678]))
        assert "1.23" in text and "5.68" in text
