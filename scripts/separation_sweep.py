"""How anomaly-detection D-EER responds to cluster separation.

Sweeps the synthetic feature generator's ``mean_separation`` over a seeded
grid, trains the one-class SVM on held-out bona fide rows for each draw,
and prints the detection error trend: chance at zero separation, near
zero once the clusters are several within-cluster deviations apart.

Run from the repository root:

    python3 scripts/separation_sweep.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from padeval import (
    OcsvmConfig,
    PresentationLabel,
    SynthFeatureSpec,
    d_eer,
    fit,
    gen_features,
    score_matrix,
)

SEPARATIONS = [0.0, 1.0, 2.0, 4.0, 8.0]
SEEDS = range(1000, 1010)
N_TRAIN = 200


def chain_d_eer(separation: float, seed: int) -> float:
    """Synthetic draw -> train -> score held-out rows -> D-EER."""
    feats, labels = gen_features(
        SynthFeatureSpec(
            n_bonafide=600, n_attack=400, d=16, mean_separation=separation, seed=seed
        )
    )
    train = feats.rows(range(N_TRAIN))  # bona fide rows come first
    model = fit(train, OcsvmConfig(nu=0.5, standardize=False))
    held_out = feats.rows(range(N_TRAIN, feats.n))
    scored = score_matrix(model, held_out, dict(zip(feats.sample_ids, labels)))
    bona = scored.with_label(PresentationLabel.BONA_FIDE)
    attack = scored.with_label(PresentationLabel.ATTACK)
    rate, _ = d_eer(bona.scores(), attack.scores())
    return rate


def main() -> None:
    print(f"separation sweep: {len(list(SEEDS))} seeds per point, nu=0.5")
    print(f"{'separation':>10}  {'mean D-EER':>10}  {'min':>7}  {'max':>7}")
    for separation in SEPARATIONS:
        rates = [chain_d_eer(separation, seed) for seed in SEEDS]
        mean = sum(rates) / len(rates)
        print(f"{separation:>10.1f}  {mean:>10.4f}  {min(rates):>7.4f}  {max(rates):>7.4f}")


if __name__ == "__main__":
    main()
