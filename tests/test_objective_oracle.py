"""The objective ranks the truth first.

The renderer knows each frame's exact depth and pose, so `total_loss` can
be checked against them: on every triplet of the README scene, with and
without a mover, the true depth with the true transforms scores lower than
a constant median depth with the same transforms. A pose-convention error,
swapped sources or intrinsics at the wrong scale keep the gradient suite
and the pins green; each of them breaks this ranking, which the second test
plants and checks. All in f64, with no augmentation.
"""

import dataclasses

import numpy as np
import pytest

from litedepth import losses
from litedepth.data import generate_synthetic_sequence, resize_depth
from litedepth.engine import Tensor, no_grad
from litedepth.losses import LossConfig

CONFIG = LossConfig()
# below the smallest per-triplet lead of the truth over the constant depth,
# 0.0050 on the static scene and 0.0025 with the mover (truth 0.0150
# against 0.0258 on average, static)
MARGIN = {False: 0.004, True: 0.002}


@pytest.fixture(scope="module", params=[False, True], ids=["static", "mover"])
def scene(request):
    return request.param, generate_synthetic_sequence(0, 16, (64, 32), mover=request.param)


def _disparities(depth):
    # the decoder's three scales, whose `disp_to_depth` gives back the depth
    h, w = depth.shape
    lo, hi = 1.0 / CONFIG.max_depth, 1.0 / CONFIG.min_depth
    return [Tensor(((1.0 / resize_depth(depth, (h >> s, w >> s)) - lo) / (hi - lo))[None, None])
            for s in range(3)]


def _triplet_losses(seq, depth_of, translation_scale=1.0):
    """`total_loss` on each triplet (i-1, i, i+1) at the true transforms
    inv(poses[j]) @ poses[i], with depth_of(i) as the target's depth."""
    out = []
    with no_grad():
        for i in range(1, len(seq) - 1):
            transforms = []
            for j in (i - 1, i + 1):
                tf = np.linalg.inv(seq.poses[j]) @ seq.poses[i]
                tf[:3, 3] *= translation_scale
                transforms.append(Tensor(tf[None]))
            loss, _ = losses.total_loss(
                _disparities(depth_of(i)), Tensor(seq.frames[i][None]),
                [Tensor(seq.frames[j][None]) for j in (i - 1, i + 1)],
                transforms, seq.intrinsics, CONFIG)
            out.append(float(loss.data))
    return np.array(out)


def _truth_and_constant(seq):
    truth = _triplet_losses(seq, lambda i: seq.depths[i])
    constant = _triplet_losses(
        seq, lambda i: np.full_like(seq.depths[i], np.median(seq.depths[i])))
    return truth, constant


def test_truth_beats_constant_depth_on_every_triplet(scene):
    mover, seq = scene
    truth, constant = _truth_and_constant(seq)
    assert len(truth) == 14
    assert (constant - truth > MARGIN[mover]).all(), constant - truth
    # the photometric terms see only the geometry, which depth and
    # translation scaled together keep; the smoothness term's disparity
    # offset moves the loss by ~6e-6
    scaled = _triplet_losses(seq, lambda i: 0.1 * seq.depths[i], translation_scale=0.1)
    assert np.abs(scaled - truth).max() < 1e-5


def _inverted(synthesize):
    return lambda source, depth, tf, intr: synthesize(
        source, depth, Tensor(np.linalg.inv(tf.data)), intr)


def _doubled_focal_lengths(synthesize):
    return lambda source, depth, tf, intr: synthesize(
        source, depth, tf, dataclasses.replace(intr, fx=2 * intr.fx, fy=2 * intr.fy))


def _swapped_sources(total_loss):
    return lambda disps, target, sources, transforms, intr, config: total_loss(
        disps, target, sources[::-1], transforms, intr, config)


@pytest.mark.parametrize("name,plant", [
    ("synthesize", _inverted),
    ("synthesize", _doubled_focal_lengths),
    ("total_loss", _swapped_sources),
], ids=["inverted-transforms", "doubled-focal-lengths", "swapped-sources"])
def test_each_planted_defect_breaks_the_ranking(scene, name, plant, monkeypatch):
    # at HEAD the defects rank 5 and 2 triplets outright wrong (static,
    # mover) for inverted transforms, 13 and 13 for doubled focal lengths
    # and 1 and 5 for swapped sources
    mover, seq = scene
    monkeypatch.setattr(losses, name, plant(getattr(losses, name)))
    truth, constant = _truth_and_constant(seq)
    assert not (constant - truth > MARGIN[mover]).all()
    assert (truth >= constant).any()
