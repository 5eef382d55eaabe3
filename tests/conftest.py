from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings

from padeval import Polarity, PresentationLabel, ScoreSet

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_score_set(
    scores,
    label=PresentationLabel.BONA_FIDE,
    polarity=Polarity.HIGHER_IS_BONA_FIDE,
    prefix="s",
):
    """ScoreSet with generated ids and one label for every sample."""
    return ScoreSet(
        sample_ids=[f"{prefix}{k:05d}" for k in range(len(scores))],
        labels=[label] * len(scores),
        values=[float(s) for s in scores],
        polarity=polarity,
    )


def score_columns(score_set):
    """A ScoreSet's ids, labels and the exact bits of its scores (-0.0 differs from 0.0)."""
    return score_set.sample_ids, score_set.labels, score_set.values.view(np.int64).tolist()
