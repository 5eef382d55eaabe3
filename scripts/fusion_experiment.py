"""Two-detector fusion on a pinned synthetic scenario (seed 42).

Builds 500 bona fide and 500 attack samples with two independent error
sources — depth-variance scores from per-sample synthetic captures and
one-class-SVM scores from a feature cluster pair — then fuses the two
score sets 50/50 after per-detector min-max normalization.  Because the
two detectors fail on different samples, the fused D-EER comes out below
the better single detector.

Run:

    python3 scripts/fusion_experiment.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from padeval import (
    DepthKind,
    OcsvmConfig,
    Polarity,
    PresentationLabel,
    ScoreSet,
    SynthDepthSpec,
    SynthFeatureSpec,
    d_eer,
    dv_score,
    fit,
    fuse,
    gen_depth,
    gen_features,
    score_matrix,
)

SCENARIO_SEED = 42
N_EVAL = 500  # per class
N_TRAIN = 250  # bona fide rows used to fit the one-class model


def build_scenario():
    """Return (dv_scores, ad_scores, fused_scores) for the pinned scenario."""
    # anomaly-detection channel: one cluster pair; the first rows train the
    # model, the rest are scored (train and eval share the cluster geometry)
    feats, labels = gen_features(
        SynthFeatureSpec(
            n_bonafide=N_TRAIN + N_EVAL,
            n_attack=N_EVAL,
            d=16,
            mean_separation=1.6,
            seed=4242,
        )
    )
    model = fit(feats.rows(range(N_TRAIN)), OcsvmConfig(nu=0.5, standardize=False))
    eval_rows = feats.rows(range(N_TRAIN, feats.n))
    ad_scores = score_matrix(model, eval_rows, dict(zip(feats.sample_ids, labels)))

    # depth-variance channel: strongly curved faces vs faintly wrinkled
    # shirts, with per-sample surface amplitudes drawn at the scenario level
    rng = np.random.default_rng(SCENARIO_SEED)
    bona_amp = np.clip(rng.normal(10.0, 3.0, N_EVAL), 1.0, None)
    attack_amp = np.clip(rng.normal(1.0, 0.5, N_EVAL), 0.0, None)

    dv_labels, dv_values = [], []
    for k, sid in enumerate(eval_rows.sample_ids):
        is_bona = sid.startswith("bf_")
        i = k if is_bona else k - N_EVAL
        if is_bona:
            spec = SynthDepthSpec(
                kind=DepthKind.CURVED_FACE,
                width=64,
                height=64,
                curvature_amp_mm=float(bona_amp[i]),
                noise_sigma_mm=1.0,
                seed=42_000_000 + i,
            )
        else:
            spec = SynthDepthSpec(
                kind=DepthKind.WRINKLED_SHIRT,
                width=64,
                height=64,
                wrinkle_amp_mm=float(attack_amp[i]),
                noise_sigma_mm=1.0,
                seed=43_000_000 + i,
            )
        depth, marks = gen_depth(spec)
        dv_labels.append(PresentationLabel.BONA_FIDE if is_bona else PresentationLabel.ATTACK)
        dv_values.append(dv_score(depth, marks).value)
    dv_scores = ScoreSet(
        sample_ids=eval_rows.sample_ids,
        labels=dv_labels,
        values=dv_values,
        polarity=Polarity.HIGHER_IS_BONA_FIDE,
    )

    fused = fuse(dv_scores, ad_scores, w_a=0.5, w_b=0.5)
    return dv_scores, ad_scores, fused


def scenario_d_eer(scores: ScoreSet) -> float:
    bona = scores.with_label(PresentationLabel.BONA_FIDE).values
    attack = scores.with_label(PresentationLabel.ATTACK).values
    return d_eer(bona, attack)[0]


def main() -> None:
    dv_scores, ad_scores, fused = build_scenario()
    dv = scenario_d_eer(dv_scores)
    ad = scenario_d_eer(ad_scores)
    fu = scenario_d_eer(fused)
    print(f"depth-variance D-EER : {dv:.4f}")
    print(f"one-class-SVM D-EER  : {ad:.4f}")
    print(f"fused D-EER          : {fu:.4f}")
    if fu <= min(dv, ad):
        print("fusion beats the best single detector")
    else:
        print("fusion does NOT beat the best single detector")


if __name__ == "__main__":
    main()
