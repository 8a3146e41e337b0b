"""Unit tests for Jain's fairness index."""

import numpy as np
import pytest

from repro.metrics.fairness import jain_index, per_group_means


class TestJainIndex:
    def test_uniform_is_perfect(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_value_is_perfect(self):
        assert jain_index([3.0]) == pytest.approx(1.0)

    def test_empty_is_perfect(self):
        assert jain_index([]) == 1.0

    def test_all_zero_is_perfect(self):
        assert jain_index([0.0, 0.0, 0.0]) == 1.0

    def test_one_hot_is_one_over_n(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_known_value(self):
        # J([1, 2, 3]) = 36 / (3 * 14) = 6/7
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(6.0 / 7.0)

    def test_scale_invariant(self):
        values = [1.0, 4.0, 2.0]
        assert jain_index(values) == pytest.approx(
            jain_index([v * 1000 for v in values])
        )

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            values = rng.exponential(10.0, size=rng.integers(1, 30))
            j = jain_index(values)
            assert 1.0 / len(values) - 1e-12 <= j <= 1.0 + 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            jain_index([-1.0, 2.0])

    def test_accepts_numpy_array(self):
        assert jain_index(np.array([2.0, 2.0])) == pytest.approx(1.0)


class TestPerGroupMeans:
    def test_means_per_label(self):
        values = np.array([10.0, 20.0, 30.0])
        labels = np.array(["a", "b", "a"], dtype=object)
        labs, means = per_group_means(values, labels)
        assert list(labs) == ["a", "b"]
        np.testing.assert_allclose(means, [20.0, 20.0])

    def test_first_seen_order(self):
        values = np.array([1.0, 2.0, 3.0])
        labels = np.array(["z", "a", "z"], dtype=object)
        labs, _ = per_group_means(values, labels)
        assert list(labs) == ["z", "a"]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal shape"):
            per_group_means(np.array([1.0]), np.array(["a", "b"], dtype=object))

    def test_single_group(self):
        labs, means = per_group_means(
            np.array([4.0, 6.0]), np.array(["u", "u"], dtype=object)
        )
        assert list(labs) == ["u"]
        assert means[0] == pytest.approx(5.0)


def per_group_means_reference(values, labels):
    """``per_group_means`` as per-label numpy accumulators, one record
    at a time: the additions the plain-float sums must reproduce."""
    seen: dict[object, int] = {}
    order: list[object] = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(order)
            order.append(lab)
    sums = np.zeros(len(order))
    counts = np.zeros(len(order))
    for val, lab in zip(values, labels):
        sums[seen[lab]] += val
        counts[seen[lab]] += 1
    return order, sums / counts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_group_means_bits_equal_the_record_order_sums(seed):
    rng = np.random.default_rng(seed)
    # Waits spanning magnitudes, so a different summation order would
    # round differently.
    values = rng.exponential(1.0, 400) * 10.0 ** rng.integers(-3, 6, 400)
    labels = np.array(
        [f"user_{k}" for k in rng.integers(0, 7, 400)], dtype=object
    )
    labs, means = per_group_means(values, labels)
    want_labs, want_means = per_group_means_reference(values, labels)
    assert labs.dtype == object
    assert labs.tolist() == want_labs
    assert means.dtype == np.float64
    assert means.tobytes() == want_means.tobytes()


def test_per_group_means_of_nothing():
    labs, means = per_group_means(np.array([]), np.array([], dtype=object))
    assert labs.shape == means.shape == (0,)
