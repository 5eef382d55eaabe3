"""Command-line interface.

Subcommands cover the full pipeline: synthetic data generation, depth
scoring (single and batch), one-class model training and scoring, score
fusion, and PAD/vulnerability evaluation.  Every command is deterministic:
identical invocations on identical inputs produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Iterable, Sequence

from . import ingest
from .core import (
    LABEL_BY_NAME,
    PadevalError,
    Polarity,
    PresentationLabel,
    ScoreSet,
    TrialLabel,
)
from .depth_variance import DEFAULT_MIN_VALID, dv_score
from .fusion import DEFAULT_WEIGHTS, fuse
from .metrics import APCER_TARGETS, _pad, _vuln
from .ocsvm import NotConvergedError, OcsvmConfig, fit, score_matrix
from .synth import DepthKind, SynthDepthSpec, SynthFeatureSpec, gen_depth, gen_features

__all__ = ["run", "main"]

_POLARITY_BY_FLAG = {
    "bonafide": Polarity.HIGHER_IS_BONA_FIDE,
    "match": Polarity.HIGHER_IS_MATCH,
}

#: The FMR operating points eval-vuln reports when no --fmr is given.
_DEFAULT_FMR_TARGETS = (0.001, 0.01)


class _UsageError(Exception):
    pass


class _Formatter(argparse.ArgumentDefaultsHelpFormatter):
    """Help 96 columns wide that shows an option's default only if it has one."""

    def __init__(self, prog: str):
        super().__init__(prog, width=96)

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this CLI uses 1."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, **kwargs)

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(f"{self.prog}: {message}")


def _parse_file(parser, path: str, *args):
    """Parse one input file, prefixing structured errors with the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parser(data, *args)
    except PadevalError as exc:
        raise PadevalError(f"{path}: {exc}") from exc


def _write_text(path: str, blocks: Iterable[str]) -> None:
    """Write the blocks of text to ``path``, each as soon as it is made, so
    that a write holds one block beside the file buffer."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(blocks)


def _out_path(args, name: str) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_dv_score(args) -> None:
    depth = _parse_file(ingest.parse_depth_pgm, args.depth)
    landmarks = _parse_file(ingest.parse_landmarks, args.landmarks)
    score = dv_score(depth, landmarks, min_valid=args.min_valid)
    print(f"{ingest.fmt_float(score.value)}\t{score.n_valid}")


def _cmd_dv_batch(args) -> None:
    manifest_dir = os.path.dirname(os.path.abspath(args.manifest))
    rows = _parse_file(ingest.parse_manifest, args.manifest)
    scores = []
    for row in rows:
        # os.path.join keeps an absolute path as it is
        depth = _parse_file(ingest.parse_depth_pgm, os.path.join(manifest_dir, row.depth_path))
        landmarks = _parse_file(ingest.parse_landmarks, os.path.join(manifest_dir, row.landmarks_path))
        try:
            score = dv_score(depth, landmarks, min_valid=args.min_valid)
        except PadevalError as exc:
            raise PadevalError(f"sample {row.sample_id!r}: {exc}") from exc
        scores.append(score.value)
    ids, labels = [row.sample_id for row in rows], [row.label for row in rows]
    out = ScoreSet(ids, labels, scores, Polarity.HIGHER_IS_BONA_FIDE)
    _write_text(args.out, ingest._scores_blocks(out))


def _cmd_ocsvm_train(args) -> None:
    features = _parse_file(ingest.parse_features, args.features)
    config = OcsvmConfig(
        nu=args.nu,
        tol=args.tol,
        max_iter=args.max_iter,
        standardize=not args.no_standardize,
    )
    model = fit(features, config)
    _write_text(args.model, [ingest.write_model(model)])
    diag = model.diagnostics
    print(
        f"trained on {features.n} x {features.d}: iterations {diag.iterations}, "
        f"kkt_residual {ingest.fmt_float(diag.kkt_residual)}, n_support {diag.n_support}, "
        f"n_margin_errors {diag.n_margin_errors}"
    )


def _cmd_ocsvm_score(args) -> None:
    model = _parse_file(ingest.parse_model, args.model)
    features = _parse_file(ingest.parse_features, args.features)
    if args.labels is not None:
        labels = _parse_file(ingest.parse_labels, args.labels)
        scored = score_matrix(model, features, labels)
    else:
        scored = score_matrix(model, features, LABEL_BY_NAME[args.label])
    _write_text(args.out, ingest._scores_blocks(scored))


def _cmd_fuse(args) -> None:
    polarity = _POLARITY_BY_FLAG[args.polarity]
    set_a = _parse_file(ingest.parse_scores, args.a, polarity)
    set_b = _parse_file(ingest.parse_scores, args.b, polarity)
    fused = fuse(set_a, set_b, w_a=args.wa, w_b=args.wb)
    _write_text(args.out, ingest._scores_blocks(fused))
    print(
        "note: min-max ranges were fitted on the evaluation scores being fused "
        "(test-time statistics)"
    )


def _write_evaluation(args, report, curve, config, report_name) -> None:
    """Write the report JSON, then the DET exports from ``curve()``, then print the summary."""
    formats = set(args.format) if args.format else {"csv", "json", "svg"}
    if "json" in formats:
        _write_text(_out_path(args, report_name), [ingest.write_report(report, config=config)])
    if formats & {"csv", "svg"}:
        det = curve()
    if "csv" in formats:
        _write_text(_out_path(args, "det.csv"), ingest._det_blocks(det))
    if "svg" in formats:
        _write_text(_out_path(args, "det.svg"), ingest._det_svg_blocks(det))
    for line in ingest._summary(report):
        print(line)


def _cmd_eval_pad(args) -> None:
    # a file named by both roles is parsed once (a failed parse is not cached)
    scores = functools.cache(lambda path: _parse_file(ingest.parse_scores, path, Polarity.HIGHER_IS_BONA_FIDE))
    full_bona = scores(args.bonafide)
    full_attack = scores(args.attack)
    bona = full_bona.with_label(PresentationLabel.BONA_FIDE)
    attack = full_attack.with_label(PresentationLabel.ATTACK)
    config = {
        "bonafide": args.bonafide,
        "attack": args.attack,
        "polarity": Polarity.HIGHER_IS_BONA_FIDE.value,
        "apcer_targets": list(APCER_TARGETS),
    }
    _write_evaluation(args, *_pad(bona, attack), config, "pad_report.json")


def _cmd_eval_vuln(args) -> None:
    scores = functools.cache(lambda path: _parse_file(ingest.parse_scores, path, Polarity.HIGHER_IS_MATCH))
    mated = scores(args.mated).with_label(TrialLabel.MATED)
    nonmated = scores(args.nonmated).with_label(TrialLabel.NONMATED)
    attack = scores(args.attack).with_label(TrialLabel.ATTACK_MATED)
    targets = args.fmr if args.fmr else list(_DEFAULT_FMR_TARGETS)
    config = {
        "mated": args.mated,
        "nonmated": args.nonmated,
        "attack": args.attack,
        "polarity": Polarity.HIGHER_IS_MATCH.value,
        "fmr_targets": targets,
    }
    _write_evaluation(args, *_vuln(mated, nonmated, attack, targets), config, "vuln_report.json")


def _cmd_synth_depth(args) -> None:
    spec = SynthDepthSpec(
        kind=DepthKind(args.kind),
        width=args.width,
        height=args.height,
        base_depth_mm=args.base_depth_mm,
        curvature_amp_mm=args.curvature_amp_mm,
        wrinkle_amp_mm=args.wrinkle_amp_mm,
        wrinkle_wavelength_px=args.wrinkle_wavelength_px,
        noise_sigma_mm=args.noise_sigma_mm,
        invalid_fraction=args.invalid_fraction,
        seed=args.seed,
    )
    depth, landmarks = gen_depth(spec)
    with open(_out_path(args, "depth.pgm"), "wb") as fh:
        fh.write(ingest.write_depth_pgm(depth))
    _write_text(_out_path(args, "landmarks.csv"), [ingest.write_landmarks(landmarks)])


def _cmd_synth_features(args) -> None:
    spec = SynthFeatureSpec(
        n_bonafide=args.n_bonafide,
        n_attack=args.n_attack,
        d=args.d,
        mean_separation=args.separation,
        center_norm=args.center_norm,
        seed=args.seed,
    )
    features, labels = gen_features(spec)
    _write_text(_out_path(args, "features.csv"), ingest._features_blocks(features))
    _write_text(
        _out_path(args, "labels.csv"),
        [ingest.write_labels(dict(zip(features.sample_ids, labels)))],
    )


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> _Parser:
    # each one-option parent is shared by the subcommands that read its option
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for generated data")
    output_dir = _Parser(add_help=False)
    output_dir.add_argument("--output-dir", default=".", help="directory for multi-file outputs")
    formats = _Parser(add_help=False)
    formats.add_argument(
        "--format",
        action="append",
        choices=["csv", "json", "svg"],
        help="restrict which evaluation outputs are written (repeatable; default: all)",
    )

    parser = _Parser(
        prog="padeval",
        description="Presentation-attack-detection scoring, fusion, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser(
        "dv-score",
        help="depth-variance score of one depth map",
        description="Print the depth-variance PAD score of one depth map as 'score<TAB>n_valid'.",
    )
    p.add_argument("--depth", required=True, help="16-bit PGM depth map")
    p.add_argument("--landmarks", required=True, help="landmarks CSV (index,x,y)")
    p.add_argument(
        "--min-valid", type=int, default=DEFAULT_MIN_VALID, help="minimum measurable landmarks"
    )
    p.set_defaults(func=_cmd_dv_score)

    p = sub.add_parser(
        "dv-batch",
        help="depth-variance scores for a manifest of depth maps",
        description="Score every sample of a manifest (sample_id,depth,landmarks,label) "
        "into one scores CSV; relative paths resolve against the manifest location.",
    )
    p.add_argument("--manifest", required=True, help="batch manifest CSV")
    p.add_argument("--out", required=True, help="output scores CSV")
    p.add_argument(
        "--min-valid", type=int, default=DEFAULT_MIN_VALID, help="minimum measurable landmarks"
    )
    p.set_defaults(func=_cmd_dv_batch)

    p = sub.add_parser(
        "ocsvm-train",
        help="train the linear one-class SVM on bona fide features",
        description="Train the linear one-class SVM on a features CSV (bona fide rows only) "
        "and write the model JSON.",
    )
    p.add_argument("--features", required=True, help="training features CSV")
    p.add_argument("--model", required=True, help="output model JSON")
    p.add_argument("--nu", type=float, default=OcsvmConfig.nu, help="margin-error budget in (0, 1]")
    p.add_argument("--tol", type=float, default=OcsvmConfig.tol, help="KKT residual stopping tolerance")
    p.add_argument("--max-iter", type=int, help="pair-update budget (default 100*n)")
    p.add_argument(
        "--no-standardize",
        action="store_true",
        help="skip per-dimension standardization of the training rows",
    )
    p.set_defaults(func=_cmd_ocsvm_train)

    p = sub.add_parser(
        "ocsvm-score",
        help="score features with a trained model",
        description="Apply a trained model to a features CSV and write a scores CSV; "
        "ground-truth labels come from --labels (per sample) or --label (uniform).",
    )
    p.add_argument("--model", required=True, help="model JSON from ocsvm-train")
    p.add_argument("--features", required=True, help="features CSV to score")
    p.add_argument("--out", required=True, help="output scores CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--labels", help="labels CSV (sample_id,label)")
    group.add_argument("--label", choices=sorted(LABEL_BY_NAME), help="one label for every row")
    p.set_defaults(func=_cmd_ocsvm_score)

    p = sub.add_parser(
        "fuse",
        help="min-max normalize two score files and fuse them",
        description="Min-max normalize two scores CSVs (each on its own range) and write "
        "their weighted sum, matched by sample_id.",
    )
    p.add_argument("--a", required=True, help="first scores CSV")
    p.add_argument("--b", required=True, help="second scores CSV")
    p.add_argument("--out", required=True, help="output scores CSV")
    p.add_argument("--wa", type=float, default=DEFAULT_WEIGHTS[0], help="weight of the first file")
    p.add_argument("--wb", type=float, default=DEFAULT_WEIGHTS[1], help="weight of the second file")
    p.add_argument(
        "--polarity",
        choices=sorted(_POLARITY_BY_FLAG),
        default="bonafide",
        help="score orientation of both inputs",
    )
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser(
        "eval-pad",
        parents=[output_dir, formats],
        help="PAD evaluation: D-EER, BPCER10/20, DET outputs",
        description="Evaluate a PAD detector from bona fide and attack scores CSVs; writes "
        "pad_report.json, det.csv, and det.svg into --output-dir.",
    )
    p.add_argument("--bonafide", required=True, help="scores CSV holding bonafide rows")
    p.add_argument("--attack", required=True, help="scores CSV holding attack rows")
    p.set_defaults(func=_cmd_eval_pad)

    p = sub.add_parser(
        "eval-vuln",
        parents=[output_dir, formats],
        help="recognition vulnerability: thresholds at target FMR, IAPMR",
        description="Evaluate recognition vulnerability from mated, non-mated, and "
        "attack-mated scores CSVs; writes vuln_report.json, det.csv, det.svg.",
    )
    p.add_argument("--mated", required=True, help="scores CSV holding mated rows")
    p.add_argument("--nonmated", required=True, help="scores CSV holding nonmated rows")
    p.add_argument("--attack", required=True, help="scores CSV holding attackmated rows")
    p.add_argument(
        "--fmr",
        action="append",
        type=float,
        help=f"target FMR operating point (repeatable; default: {' and '.join(map(str, _DEFAULT_FMR_TARGETS))})",
    )
    p.set_defaults(func=_cmd_eval_vuln)

    p = sub.add_parser(
        "synth-gen",
        help="generate deterministic synthetic data",
        description="Generate synthetic depth maps or feature clusters, deterministic in --seed.",
    )
    synth_sub = p.add_subparsers(dest="what", metavar="what")
    synth_sub.required = True

    q = synth_sub.add_parser(
        "depth",
        parents=[seed, output_dir],
        help="one synthetic depth capture (depth.pgm + landmarks.csv)",
        description="Render one synthetic depth surface and its 468-point landmark template "
        "into --output-dir as depth.pgm and landmarks.csv.",
    )
    q.add_argument(
        "--kind",
        required=True,
        choices=[k.value for k in DepthKind],
        help="surface model",
    )
    q.add_argument("--width", type=int, default=128, help="map width in pixels")
    q.add_argument("--height", type=int, default=128, help="map height in pixels")
    q.add_argument("--base-depth-mm", type=float, default=1000.0, help="background distance")
    q.add_argument(
        "--curvature-amp-mm", type=float, default=20.0, help="face cap height (curved-face)"
    )
    q.add_argument(
        "--wrinkle-amp-mm", type=float, default=3.0, help="fold amplitude (wrinkled-shirt)"
    )
    q.add_argument(
        "--wrinkle-wavelength-px", type=float, default=24.0, help="fold wavelength (wrinkled-shirt)"
    )
    q.add_argument("--noise-sigma-mm", type=float, default=1.0, help="sensor noise sigma")
    q.add_argument(
        "--invalid-fraction", type=float, default=0.0, help="fraction of dropped pixels in [0, 1)"
    )
    q.set_defaults(func=_cmd_synth_depth)

    q = synth_sub.add_parser(
        "features",
        parents=[seed, output_dir],
        help="two-cluster synthetic features (features.csv + labels.csv)",
        description="Draw bona fide and attack feature clusters into --output-dir as "
        "features.csv and labels.csv.",
    )
    q.add_argument("--n-bonafide", type=int, required=True, help="bona fide row count")
    q.add_argument("--n-attack", type=int, required=True, help="attack row count")
    q.add_argument("--d", type=int, default=16, help="feature dimension")
    q.add_argument(
        "--separation", type=float, default=4.0, help="cluster mean distance in within-cluster sigmas"
    )
    q.add_argument(
        "--center-norm", type=float, default=10.0, help="distance of the bona fide mean from the origin"
    )
    q.set_defaults(func=_cmd_synth_features)

    return parser


def run(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        args.func(args)
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PadevalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
