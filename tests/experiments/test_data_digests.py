"""Pinned data digests of reduced-size experiment runs.

Each pin is ``obs.digest_json(result.data)`` of one experiment at small
parameters, so tier-1 notices any change to what an experiment computes,
not only to its headline numbers.  They cover the exact curve algebra
(A2 folds arrival curves with the pointwise maximum, A4 clips ᾱ with the
pointwise minimum, A6 builds ᾱ on the 12-frame context) and the Lehoczky
scan (A5).  Optimizations of those layers must leave every pin as it is;
a change that alters results on purpose re-pins here and says why.
"""

import pytest

from repro import obs
from repro.experiments import ALL_EXPERIMENTS

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
