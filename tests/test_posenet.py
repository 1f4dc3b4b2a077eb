import numpy as np
import pytest

from litedepth.engine import Tensor, grad_check, no_grad
from litedepth.posenet import (
    Pose, PoseNet, pose_to_matrix, relative_transform, rotation_from_axis_angle,
)


def rodrigues_oracle(v):
    """Classic normalized-axis Rodrigues formula, independent of the
    unnormalized form used by the implementation."""
    theta = np.linalg.norm(v)
    if theta < 1e-12:
        return np.eye(3)
    n = v / theta
    nx = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) * np.cos(theta) + np.sin(theta) * nx + \
        (1 - np.cos(theta)) * np.outer(n, n)


class TestRotation:
    def test_zero_angle_is_identity(self):
        r = rotation_from_axis_angle(Tensor(np.zeros((1, 3)))).data[0]
        np.testing.assert_array_equal(r, np.eye(3))

    def test_quarter_turn_about_z(self):
        r = rotation_from_axis_angle(
            Tensor(np.array([[0.0, 0.0, np.pi / 2]]))).data[0]
        np.testing.assert_allclose(
            r, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)

    def test_matches_oracle_on_random_vectors(self, rng):
        vs = rng.standard_normal((50, 3))
        rs = rotation_from_axis_angle(Tensor(vs)).data
        for v, r in zip(vs, rs):
            np.testing.assert_allclose(r, rodrigues_oracle(v), atol=1e-12)

    def test_orthonormal_over_thousand_poses(self, rng):
        vs = rng.standard_normal((1000, 3)) * 2.0
        rs = rotation_from_axis_angle(Tensor(vs)).data
        err_orth = np.abs(rs @ np.swapaxes(rs, 1, 2) - np.eye(3)).max()
        dets = np.linalg.det(rs)
        assert err_orth < 1e-6
        assert np.abs(dets - 1.0).max() < 1e-6

    def test_small_angle_series_continuous(self):
        tiny = rotation_from_axis_angle(Tensor(np.array([[1e-5, 0, 0]]))).data[0]
        np.testing.assert_allclose(tiny, rodrigues_oracle(np.array([1e-5, 0, 0])),
                                   atol=1e-14)

    def test_grad_check_including_near_zero(self, rng):
        wts = Tensor(rng.standard_normal((2, 3, 3)))

        def f(v):
            return (rotation_from_axis_angle(v) * wts).sum()

        v = Tensor(rng.standard_normal((2, 3)))
        assert grad_check(f, [v]) < 1e-4
        v0 = Tensor(np.full((2, 3), 1e-4))
        assert grad_check(f, [v0]) < 1e-4


class TestPoseMatrix:
    def test_identity_pose(self):
        pose = Pose(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))
        np.testing.assert_array_equal(pose_to_matrix(pose).data[0], np.eye(4))

    def test_inverse_composes_to_identity(self, rng):
        pose = Pose(Tensor(rng.standard_normal((4, 3))),
                    Tensor(rng.standard_normal((4, 3))))
        m = pose_to_matrix(pose).data
        mi = pose_to_matrix(pose, invert=True).data
        np.testing.assert_allclose(m @ mi, np.broadcast_to(np.eye(4), (4, 4, 4)),
                                   atol=1e-6)

    def test_translation_row(self, rng):
        t = rng.standard_normal((1, 3))
        pose = Pose(Tensor(np.zeros((1, 3))), Tensor(t))
        m = pose_to_matrix(pose).data[0]
        np.testing.assert_allclose(m[:3, 3], t[0], atol=1e-12)
        np.testing.assert_array_equal(m[3], [0, 0, 0, 1])

    def test_grad_check_through_matrix(self, rng):
        wts = Tensor(rng.standard_normal((1, 4, 4)))

        def f(aa, tr):
            return (pose_to_matrix(Pose(aa, tr)) * wts).sum()

        aa = Tensor(rng.standard_normal((1, 3)) * 0.5)
        tr = Tensor(rng.standard_normal((1, 3)))
        assert grad_check(f, [aa, tr]) < 1e-4

    def test_relative_transform_roundtrip(self, rng):
        def rand_pose():
            m = np.eye(4)
            m[:3, :3] = rodrigues_oracle(rng.standard_normal(3))
            m[:3, 3] = rng.standard_normal(3)
            return m

        a, b = rand_pose(), rand_pose()
        rel = relative_transform(a, b)       # b_cam <- a_cam
        np.testing.assert_allclose(b @ rel, a, atol=1e-12)


class TestPoseNet:
    def test_zero_head_gives_identity_pose(self, rng):
        net = PoseNet(seed=0)
        net.head.weight.data[...] = 0.0
        net.head.bias.data[...] = 0.0
        with no_grad():
            pose = net(Tensor(rng.random((2, 6, 32, 32))))
        np.testing.assert_array_equal(pose.axis_angle.data, np.zeros((2, 3)))
        np.testing.assert_array_equal(pose.translation.data, np.zeros((2, 3)))

    @pytest.mark.parametrize("hw", [(32, 32), (32, 64), (64, 96)])
    def test_six_outputs_for_any_divisible_size(self, hw, rng):
        net = PoseNet(seed=0)
        with no_grad():
            pose = net(Tensor(rng.random((3, 6, *hw))))
        assert pose.axis_angle.shape == (3, 3)
        assert pose.translation.shape == (3, 3)

    def test_output_scale_applied_to_head(self, rng):
        net = PoseNet(seed=0)
        net.head.weight.data[...] = 0.0
        net.head.bias.data[...] = np.arange(1.0, 7.0)
        with no_grad():
            pose = net(Tensor(rng.random((1, 6, 32, 32))))
        np.testing.assert_allclose(pose.axis_angle.data[0], 0.01 * np.array([1, 2, 3]),
                                   atol=1e-7)
        np.testing.assert_allclose(pose.translation.data[0], 0.01 * np.array([4, 5, 6]),
                                   atol=1e-7)

    def test_wrong_channel_count_rejected(self, rng):
        net = PoseNet(seed=0)
        with pytest.raises(ValueError, match="6"):
            net(Tensor(rng.random((1, 3, 32, 32))))

    def test_pose_between_inverts_for_previous_frame(self, rng):
        net = PoseNet(seed=0)
        tgt = Tensor(rng.random((1, 3, 32, 32)))
        src = Tensor(rng.random((1, 3, 32, 32)))
        with no_grad():
            as_next = net.pose_between(tgt, src, source_is_previous=False).data
            as_prev = net.pose_between(src, tgt, source_is_previous=True).data
        # same frame pair in time order, so the two calls see identical input
        # and the second returns the inverse transform of the first
        np.testing.assert_allclose(as_next @ as_prev,
                                   np.eye(4)[None], atol=1e-6)
