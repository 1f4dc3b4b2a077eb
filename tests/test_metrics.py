import numpy as np
import pytest

from litedepth.metrics import DepthMetrics, METRIC_COLUMNS, depth_metrics


def metrics_oracle(pred, gt, cap=80.0, median_scale=False):
    """Independent per-pixel evaluation of the seven definitions, written
    with explicit loops against the vectorized implementation."""
    ps, gs = [], []
    for p, g in zip(pred.reshape(-1), gt.reshape(-1)):
        if g > 0:
            ps.append(p)
            gs.append(g)
    ps, gs = np.array(ps), np.array(gs)
    if median_scale:
        ps = ps * np.median(gs) / np.median(ps)
    ps = np.minimum(np.maximum(ps, 1e-3), cap)
    gs = np.minimum(np.maximum(gs, 1e-3), cap)
    n = len(ps)
    abs_rel = sum(abs(p - g) / g for p, g in zip(ps, gs)) / n
    sq_rel = sum((p - g) ** 2 / g for p, g in zip(ps, gs)) / n
    rmse = (sum((p - g) ** 2 for p, g in zip(ps, gs)) / n) ** 0.5
    rmse_log = (sum((np.log(p) - np.log(g)) ** 2 for p, g in zip(ps, gs)) / n) ** 0.5
    d1 = sum(max(p / g, g / p) < 1.25 for p, g in zip(ps, gs)) / n
    d2 = sum(max(p / g, g / p) < 1.25 ** 2 for p, g in zip(ps, gs)) / n
    d3 = sum(max(p / g, g / p) < 1.25 ** 3 for p, g in zip(ps, gs)) / n
    return (abs_rel, sq_rel, rmse, rmse_log, d1, d2, d3)


class TestDepthMetrics:
    def test_perfect_prediction(self, rng):
        gt = rng.uniform(1.0, 50.0, size=(10, 12))
        m = depth_metrics(gt.copy(), gt, median_scale=False)
        assert (m.abs_rel, m.sq_rel, m.rmse, m.rmse_log) == (0, 0, 0, 0)
        assert (m.delta1, m.delta2, m.delta3) == (1, 1, 1)

    def test_scaled_by_1p3_without_median_scaling(self, rng):
        gt = rng.uniform(1.0, 40.0, size=(8, 8))
        m = depth_metrics(1.3 * gt, gt, median_scale=False)
        assert abs(m.abs_rel - 0.3) < 1e-12
        assert m.delta1 == 0.0      # 1.3 > 1.25
        assert m.delta2 == 1.0      # 1.3 < 1.5625
        assert m.delta3 == 1.0

    def test_scaled_by_1p3_with_median_scaling(self, rng):
        gt = rng.uniform(1.0, 40.0, size=(8, 8))
        m = depth_metrics(1.3 * gt, gt, median_scale=True)
        assert m.abs_rel < 1e-12 and m.rmse < 1e-10
        assert m.delta1 == 1.0

    def test_matches_independent_oracle_on_random_pairs(self, rng):
        for _ in range(100):
            gt = rng.uniform(0.5, 90.0, size=(6, 7))
            gt[rng.random((6, 7)) < 0.2] = 0.0    # invalid pixels
            pred = rng.uniform(0.5, 90.0, size=(6, 7))
            ours = depth_metrics(pred, gt, median_scale=False)
            ref = metrics_oracle(pred, gt, median_scale=False)
            for got, want in zip([getattr(ours, c) for c in METRIC_COLUMNS], ref):
                assert abs(got - want) < 1e-9

    def test_median_scaling_matches_oracle(self, rng):
        for _ in range(20):
            gt = rng.uniform(0.5, 60.0, size=(5, 5))
            pred = rng.uniform(0.5, 60.0, size=(5, 5))
            ours = depth_metrics(pred, gt, median_scale=True)
            ref = metrics_oracle(pred, gt, median_scale=True)
            for got, want in zip([getattr(ours, c) for c in METRIC_COLUMNS], ref):
                assert abs(got - want) < 1e-9

    def test_scale_invariance_under_median_scaling(self, rng):
        gt = rng.uniform(1.0, 50.0, size=(9, 9))
        pred = rng.uniform(1.0, 50.0, size=(9, 9))
        base = depth_metrics(pred, gt, median_scale=True)
        scaled = depth_metrics(3.7 * pred, gt, median_scale=True)
        for c in METRIC_COLUMNS:
            assert abs(getattr(base, c) - getattr(scaled, c)) < 1e-9

    def test_delta_ordering(self, rng):
        for _ in range(10):
            gt = rng.uniform(0.5, 70.0, size=(6, 6))
            pred = rng.uniform(0.5, 70.0, size=(6, 6))
            m = depth_metrics(pred, gt, median_scale=False)
            assert m.delta1 <= m.delta2 <= m.delta3

    def test_cap_applies(self, rng):
        gt = np.full((4, 4), 100.0)
        pred = np.full((4, 4), 100.0)
        m = depth_metrics(pred, gt, cap=80.0, median_scale=False)
        assert m.abs_rel == 0.0     # both capped to 80

    @pytest.mark.parametrize("cap", [1e-3, 0.0, -5.0, float("nan")])
    def test_cap_at_or_below_the_floor_rejected(self, cap):
        # a cap under the 1e-3 clamp floor scored every prediction perfect
        with pytest.raises(ValueError, match="cap"):
            depth_metrics(np.full((2, 2), 3.0), np.full((2, 2), 9.0), cap=cap)

    def test_no_valid_pixels_rejected(self):
        with pytest.raises(ValueError, match="valid"):
            depth_metrics(np.ones((3, 3)), np.zeros((3, 3)))

    def test_nonpositive_prediction_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            depth_metrics(np.zeros((2, 2)), np.ones((2, 2)))

    def test_row_formatting(self, rng):
        gt = rng.uniform(1.0, 50.0, size=(5, 5))
        m = depth_metrics(gt, gt, median_scale=False)
        assert len(m.as_row().split()) == 7
        assert DepthMetrics.header().split() == list(METRIC_COLUMNS)
        assert m.as_key_values().splitlines()[0] == "abs_rel=0.000000"
