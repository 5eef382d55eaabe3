"""Command-line interface.

Subcommands cover the full pipeline: synthetic data generation, depth
scoring (single and batch), one-class model training and scoring, score
fusion, and PAD/vulnerability evaluation.  Every command is deterministic:
for one numpy build and OpenBLAS kernel, identical invocations on identical
inputs produce byte-identical outputs.  Across kernels, ocsvm-train and
ocsvm-score may differ in their last bits (docs/formats.md).

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import concurrent.futures  # ProcessPoolExecutor loads its process module on first use: only a pool pays
import dataclasses
import functools
import multiprocessing
import os
import signal
import sys
from typing import Iterable, Sequence

from . import ingest
from .core import (
    LABEL_BY_NAME,
    EmptySetError,
    PadevalError,
    Polarity,
    PresentationLabel,
    ScoreSet,
    TrialLabel,
)
from .depth_variance import DEFAULT_MIN_VALID, dv_score
from .fusion import DEFAULT_WEIGHTS, fuse
from .metrics import APCER_TARGETS, DetAxes, det_curve, evaluate_pad, evaluate_vuln
from .ocsvm import NotConvergedError, OcsvmConfig, fit, score_matrix
from .synth import DepthKind, SynthDepthSpec, SynthFeatureSpec, gen_depth, gen_features

__all__ = ["run", "main"]

_POLARITY_BY_FLAG = {
    "bonafide": Polarity.HIGHER_IS_BONA_FIDE,
    "match": Polarity.HIGHER_IS_MATCH,
}

#: The FMR operating points eval-vuln reports when no --fmr is given.
_DEFAULT_FMR_TARGETS = (0.001, 0.01)

#: The evaluation outputs --format picks from; all are written by default.
_FORMATS = ("csv", "json", "svg")

#: The manifest rows a dv-batch worker scores per task (16 to 250 time about the same).
_CHUNK_ROWS = 64


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


def _dv_row(manifest_dir: str, min_valid: int, sample_id: str, depth_path: str, landmarks_path: str) -> float:
    """The depth-variance score of one manifest row.

    A file or parse error is raised as ``_parse_file`` gives it (the
    ``OSError``, or a ``PadevalError`` naming the path), and a scoring error
    as a ``PadevalError`` naming the sample.  Both keep their message when
    pickled, which the scorer's own error classes need not, so a worker's
    error reaches the parent whole."""
    # os.path.join keeps an absolute path as it is
    depth = _parse_file(ingest.parse_depth_pgm, os.path.join(manifest_dir, depth_path))
    landmarks = _parse_file(ingest.parse_landmarks, os.path.join(manifest_dir, landmarks_path))
    try:
        return dv_score(depth, landmarks, min_valid=min_valid).value
    except PadevalError as exc:
        raise PadevalError(f"sample {sample_id!r}: {exc}") from exc


def _workers(n_rows: int) -> int:
    """The processes that score ``n_rows`` manifest rows: one per CPU that this
    process may run on, no more than there are chunks, and 1 without ``fork``."""
    if "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), -(-n_rows // _CHUNK_ROWS))


def _cmd_dv_batch(args) -> None:
    manifest_dir = os.path.dirname(os.path.abspath(args.manifest))
    ids, depths, landmarks, labels = _parse_file(ingest.parse_manifest, args.manifest)
    work = functools.partial(_dv_row, manifest_dir, args.min_valid)
    workers = _workers(len(ids))
    if workers > 1:
        # map raises the first error in manifest order and cancels the chunks not
        # yet started; leaving the block waits for the started ones and joins the
        # workers (Pool.terminate could kill a worker holding its result queue's
        # lock, and then hang); they ignore Ctrl-C, which stops the parent, so
        # that only it reports
        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(
            workers, context, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
        ) as pool:
            scores = list(pool.map(work, ids, depths, landmarks, chunksize=_CHUNK_ROWS))
    else:
        scores = list(map(work, ids, depths, landmarks))
    del depths, landmarks  # not held while the scores are written
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
    labels = LABEL_BY_NAME[args.label] if args.labels is None else _parse_file(ingest.parse_labels, args.labels)
    _write_text(args.out, ingest._scores_blocks(score_matrix(model, features, labels)))


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


def _role(scores, path: str, label) -> ScoreSet:
    """The rows of ``scores(path)`` that carry ``label``, or an error naming the file."""
    try:
        return scores(path).with_label(label)
    except EmptySetError as exc:
        raise PadevalError(f"{path}: no {label.value} rows") from exc


def _write_evaluation(args, report, curve, config, report_name) -> None:
    """Write the report JSON, then the DET exports from ``curve()``, then print the summary.

    ``curve`` is called only for csv or svg, after the JSON, so a failed sweep leaves the report."""
    formats = set(args.format or _FORMATS)
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
    scores(args.bonafide), scores(args.attack)  # both files are read before either role is selected
    bona = _role(scores, args.bonafide, PresentationLabel.BONA_FIDE)
    attack = _role(scores, args.attack, PresentationLabel.ATTACK)
    config = {
        "bonafide": args.bonafide,
        "attack": args.attack,
        "polarity": Polarity.HIGHER_IS_BONA_FIDE.value,
        "apcer_targets": list(APCER_TARGETS),
    }
    curve = functools.partial(det_curve, bona.values, attack.values, DetAxes.APCER_BPCER)
    _write_evaluation(args, evaluate_pad(bona, attack), curve, config, "pad_report.json")


def _cmd_eval_vuln(args) -> None:
    scores = functools.cache(lambda path: _parse_file(ingest.parse_scores, path, Polarity.HIGHER_IS_MATCH))
    mated = _role(scores, args.mated, TrialLabel.MATED)
    nonmated = _role(scores, args.nonmated, TrialLabel.NONMATED)
    attack = _role(scores, args.attack, TrialLabel.ATTACK_MATED)
    targets = args.fmr if args.fmr else list(_DEFAULT_FMR_TARGETS)
    config = {
        "mated": args.mated,
        "nonmated": args.nonmated,
        "attack": args.attack,
        "polarity": Polarity.HIGHER_IS_MATCH.value,
        "fmr_targets": targets,
    }
    curve = functools.partial(det_curve, mated.values, nonmated.values, DetAxes.FMR_FNMR)
    _write_evaluation(args, evaluate_vuln(mated, nonmated, attack, targets), curve, config, "vuln_report.json")


def _spec(cls, args, **given):
    """The generator spec ``cls`` whose fields are the options of the same name, but those ``given``."""
    return cls(**{field.name: getattr(args, field.name) for field in dataclasses.fields(cls)} | given)


def _cmd_synth_depth(args) -> None:
    depth, landmarks = gen_depth(_spec(SynthDepthSpec, args, kind=DepthKind(args.kind)))
    with open(_out_path(args, "depth.pgm"), "wb") as fh:
        fh.write(ingest.write_depth_pgm(depth))
    _write_text(_out_path(args, "landmarks.csv"), [ingest.write_landmarks(landmarks)])


def _cmd_synth_features(args) -> None:
    features, labels = gen_features(_spec(SynthFeatureSpec, args))
    _write_text(_out_path(args, "features.csv"), ingest._features_blocks(features))
    _write_text(_out_path(args, "labels.csv"), ingest._labels_blocks(features.sample_ids, labels))


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> _Parser:
    # each one-option parent is shared by the subcommands that read its option
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=SynthDepthSpec.seed, help="seed for generated data")
    output_dir = _Parser(add_help=False)
    output_dir.add_argument("--output-dir", default=".", help="directory for multi-file outputs")
    formats = _Parser(add_help=False)
    formats.add_argument(
        "--format",
        action="append",
        choices=_FORMATS,
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
    q.add_argument("--width", type=int, default=SynthDepthSpec.width, help="map width in pixels")
    q.add_argument("--height", type=int, default=SynthDepthSpec.height, help="map height in pixels")
    q.add_argument("--base-depth-mm", type=float, default=SynthDepthSpec.base_depth_mm,
                   help="background distance")
    q.add_argument("--curvature-amp-mm", type=float, default=SynthDepthSpec.curvature_amp_mm,
                   help="face cap height (curved-face)")
    q.add_argument("--wrinkle-amp-mm", type=float, default=SynthDepthSpec.wrinkle_amp_mm,
                   help="fold amplitude (wrinkled-shirt)")
    q.add_argument("--wrinkle-wavelength-px", type=float, default=SynthDepthSpec.wrinkle_wavelength_px,
                   help="fold wavelength (wrinkled-shirt)")
    q.add_argument("--noise-sigma-mm", type=float, default=SynthDepthSpec.noise_sigma_mm,
                   help="sensor noise sigma")
    q.add_argument("--invalid-fraction", type=float, default=SynthDepthSpec.invalid_fraction,
                   help="fraction of dropped pixels in [0, 1)")
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
    q.add_argument("--d", type=int, default=SynthFeatureSpec.d, help="feature dimension")
    q.add_argument("--separation", dest="mean_separation", metavar="SEPARATION", type=float,
                   default=SynthFeatureSpec.mean_separation,
                   help="cluster mean distance in within-cluster sigmas")
    q.add_argument("--center-norm", type=float, default=SynthFeatureSpec.center_norm,
                   help="distance of the bona fide mean from the origin")
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
