"""Pinned data digests of reduced-size experiment runs.

Each pin is ``obs.digest_json(result.data)`` of one experiment at small
parameters, so tier-1 notices any change to what an experiment computes,
not only to its headline numbers.  They cover the exact curve algebra
(A2 folds arrival curves with the pointwise maximum, A4 clips ᾱ with the
pointwise minimum, A6 builds ᾱ on the 12-frame context) and the Lehoczky
scan (A5).  The clip pins cover the generator's own output: every
:class:`~repro.mpeg.bitstream.ClipData` array of the 14 standard clips,
and of one clip under A2's heaviest stall model.  Optimizations of those
layers must leave every pin as it is; a change that alters results on
purpose re-pins here and says why.
"""

from dataclasses import fields

import pytest

from repro import obs
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.ablation_variability import _model_with_stalls
from repro.mpeg.bitstream import ClipData, SyntheticClip
from repro.mpeg.clips import CLIP_PROFILES, standard_clips
from repro.perf.cache import digest_of

PINS = [
    (
        "A2",
        {"frames": 12, "stall_levels": (0.0, 1.4), "n_clips": 3},
        "e732121549251d848dd705725c370c71",
    ),
    ("A4", {"frames": 12}, "7b7d50a3c957b7643dd454dca28dfc88"),
    ("A6", {"frames": 12}, "3e49b5366e5f527019a9cd5b614e8382"),
    ("A5", {"sets_per_point": 10}, "f17a9b7198d18fe9c12da36e96b0738d"),
]


@pytest.mark.parametrize("experiment_id, params, digest", PINS, ids=[p[0] for p in PINS])
def test_data_digest_is_pinned(experiment_id, params, digest):
    result = ALL_EXPERIMENTS[experiment_id](**params)
    assert obs.digest_json(result.data) == digest
    assert result.manifest["data_digest"] == digest


def _clip_digest(clips):
    parts = []
    for clip in clips:
        data = clip.generate()
        parts += [clip.profile.name] + [getattr(data, f.name) for f in fields(ClipData)]
    return digest_of(*parts).hex()


def test_standard_clip_data_is_pinned():
    """All 11 per-macroblock arrays of the 14 standard clips at 12 frames."""
    assert _clip_digest(standard_clips(frames=12)) == "0f6d24bc8e75ae47f2177b6ec4a697e4"


def test_stall_clip_data_is_pinned():
    """One clip under A2's ``stall_extra = 1.4`` PE2 model."""
    clip = SyntheticClip(CLIP_PROFILES[-1], frames=12, pe2_model=_model_with_stalls(1.4))
    assert _clip_digest([clip]) == "183de21f6445175f75c010139f1eca20"
