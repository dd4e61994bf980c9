import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssda_lab.coremath import (
    cross_entropy,
    entropy,
    finite_diff_grad,
    l1_distance,
    seeded_rng,
    softmax,
)

from conftest import max_rel_err

finite_logits = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-12)

    def test_closed_form(self):
        np.testing.assert_allclose(softmax(np.array([math.log(2.0), 0.0])), [2 / 3, 1 / 3], atol=1e-12)

    def test_large_logit_stability(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert abs(p[0] - 1.0) < 1e-12
        assert p[1] < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty logits"):
            softmax(np.array([]))

    @given(finite_logits)
    def test_matches_textbook_expression_bit_for_bit(self, logits):
        z = np.array(logits)
        e = np.exp(z - np.max(z))
        np.testing.assert_array_equal(softmax(z), e / np.sum(e))
        # a batch gives each row the bits of that row alone
        batch = np.vstack([z, -z])
        np.testing.assert_array_equal(softmax(batch), [softmax(z), softmax(-z)])

    @given(finite_logits)
    def test_output_is_probability_vector(self, logits):
        p = softmax(np.array(logits))
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert abs(float(np.sum(p)) - 1.0) <= 1e-9

    @given(finite_logits)
    # Logit gaps below the resolution of exp: both entries come out as 0.5.
    @example([-1.0074210093308705e-21, 0.0])
    @example([0.0, 1.6e-146])
    def test_argmax_preserved(self, logits):
        x = np.array(logits)
        p = softmax(x)
        # The largest logit's probability is always a maximum of the output.
        assert p[int(np.argmax(x))] == np.max(p)
        # Where float64 resolves a unique maximum, it sits at the logit argmax.
        if np.sum(p == np.max(p)) == 1:
            assert int(np.argmax(p)) == int(np.argmax(x))
        # A larger logit never gets a smaller probability.
        assert np.all(np.diff(p[np.argsort(x, kind="stable")]) >= 0)


class TestCrossEntropy:
    def test_uniform_vs_onehot(self):
        assert cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_prediction_is_zero(self):
        assert cross_entropy(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_closed_form_soft_target(self):
        got = cross_entropy(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
        assert got == pytest.approx(-0.5 * (math.log(0.25) + math.log(0.75)), abs=1e-9)
        assert got == pytest.approx(0.836988, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cross_entropy(np.array([1.0]), np.array([0.5, 0.5]))

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8))
    def test_self_cross_entropy_equals_entropy(self, raw):
        p = np.array(raw) / np.sum(raw)
        assert abs(cross_entropy(p, p) - entropy(p)) < 1e-9


class TestEntropy:
    def test_degenerate_is_zero(self):
        assert entropy(np.array([1.0, 0.0])) == 0.0

    def test_uniform_two(self):
        assert entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-12)

    def test_uniform_five(self):
        assert entropy(np.full(5, 0.2)) == pytest.approx(math.log(5), abs=1e-12)
        assert entropy(np.full(5, 0.2)) == pytest.approx(1.609438, abs=1e-6)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10))
    def test_bounds(self, raw):
        total = sum(raw)
        if total <= 0:
            return
        p = np.array(raw) / total
        h = entropy(p)
        assert -1e-12 <= h <= math.log(len(p)) + 1e-9


class TestL1Distance:
    def test_identity(self):
        v = np.array([3.0, -2.0, 0.5])
        assert l1_distance(v, v) == 0.0

    def test_hand_sums(self):
        assert l1_distance(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 3.0
        assert l1_distance(np.array([-1.0, 1.0]), np.array([1.0, -1.0])) == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            l1_distance(np.array([1.0]), np.array([1.0, 2.0]))

    def test_broadcast_table_matches_pairs(self, rng):
        rows, anchors = rng.standard_normal((7, 5)), rng.standard_normal((3, 5))
        table = l1_distance(rows[:, None, :], anchors)
        assert table.shape == (7, 3)
        expected = [[l1_distance(r, a) for a in anchors] for r in rows]
        assert table.tolist() == expected  # bit for bit

    def test_broadcast_last_axis_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            l1_distance(rng.standard_normal((7, 1, 5)), rng.standard_normal((3, 4)))

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=6),
        st.data(),
    )
    def test_triangle_inequality(self, a, data):
        dim = len(a)
        coords = st.floats(min_value=-1e3, max_value=1e3)
        b = data.draw(st.lists(coords, min_size=dim, max_size=dim))
        c = data.draw(st.lists(coords, min_size=dim, max_size=dim))
        a, b, c = np.array(a), np.array(b), np.array(c)
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-9

    def test_symmetry(self, rng):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        assert l1_distance(a, b) == l1_distance(b, a)


class TestFiniteDiffGrad:
    def test_sum_of_squares(self):
        grad = finite_diff_grad(lambda v: float(np.sum(v**2)), np.array([1.0, 2.0]), eps=1e-5)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda v: 7.25, np.array([0.3, -1.0, 2.0]), eps=1e-5)
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_softmax_cross_entropy_matches_analytic(self, rng):
        # d/dz CE(softmax(z), onehot) = softmax(z) - onehot
        for _ in range(5):
            z = rng.standard_normal(6)
            y = np.zeros(6)
            y[rng.integers(0, 6)] = 1.0
            fd = finite_diff_grad(lambda v: cross_entropy(softmax(v), y), z, eps=1e-5)
            assert max_rel_err(fd, softmax(z) - y) < 1e-6

    def test_entropy_of_softmax_matches_analytic(self, rng):
        # d/dz H(softmax(z)) = -p (log p + H(p))
        z = rng.standard_normal(5)
        p = softmax(z)
        analytic = -p * (np.log(p) + entropy(p))
        fd = finite_diff_grad(lambda v: entropy(softmax(v)), z, eps=1e-5)
        assert max_rel_err(fd, analytic) < 1e-4

    def test_l1_matches_sign_gradient(self, rng):
        b = rng.standard_normal(4)
        a = b + rng.standard_normal(4)  # generic point, no equal coordinates
        fd = finite_diff_grad(lambda v: l1_distance(v, b), a, eps=1e-7)
        assert max_rel_err(fd, np.sign(a - b)) < 1e-4

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: 0.0, np.zeros(2), eps=0.0)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(42).standard_normal(100)
        b = seeded_rng(42).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = seeded_rng(42).standard_normal(100)
        b = seeded_rng(43).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_substream_isolation(self):
        before = seeded_rng(7, "data").standard_normal(50)
        init = seeded_rng(7, "init")
        init.standard_normal(1000)  # consume heavily on a sibling stream
        after = seeded_rng(7, "data").standard_normal(50)
        np.testing.assert_array_equal(before, after)

    def test_substreams_differ_from_root_and_each_other(self):
        root = seeded_rng(7).standard_normal(10)
        data = seeded_rng(7, "data").standard_normal(10)
        init = seeded_rng(7, "init").standard_normal(10)
        assert not np.array_equal(root, data)
        assert not np.array_equal(data, init)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**62))
    def test_any_seed_is_deterministic(self, seed):
        assert seeded_rng(seed).integers(0, 1 << 30) == seeded_rng(seed).integers(0, 1 << 30)
