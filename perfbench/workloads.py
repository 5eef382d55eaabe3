"""The three benchmark workloads: seeded inputs, one pass of CLI commands, output checks.

A workload is built in two steps.  ``setup(seed, scale)`` draws every input
from the seed alone and writes it under ``inputs/`` of the current
directory; it returns a :class:`Workload` whose ``ops`` are the CLI
invocations of one pass.  Each op names the files it reads and writes (for
byte accounting and the cross-pass identity check), the input rows it
consumes (for ``rows_per_s``) and a content check that compares its
outputs with an independent recomputation from ``checks``.

Why these three (also recorded in ``BENCHMARK.json``):

* ``eval_scale`` -- few large score files.  Score parsing, ScoreSet
  validation, the metric sweeps, fusion, report/DET writing and the
  cyclic GC do the work; ``ocsvm`` and ``depth_variance`` do none.
* ``ocsvm_fit`` -- the SMO solver, its n-squared column cache and the
  feature/model codecs.  ``--no-standardize`` is the README setting; a
  standardized fit converges in a few dozen steps and bypasses the solver.
* ``detector_pipeline`` -- the paper's two-detector pipeline over thousands
  of small capture files: per-op CLI overhead, PGM/landmark parsing and
  ``depth_variance`` dominate, while ``ocsvm`` (n=500) and ``metrics`` stay
  light.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# called through the module so that the tracer's wrappers see the calls
from padeval import ingest, synth
from padeval.synth import DepthKind, SynthDepthSpec, SynthFeatureSpec

import checks

WORKLOAD_NAMES = ("eval_scale", "ocsvm_fit", "detector_pipeline")

# "full" is what the benchmark measures; "tiny" only serves the self-test.
SIZES = {
    "full": {
        "eval_scale": {"n_pad": 100_000, "n_vuln": 100_000},
        "ocsvm_fit": {"n_train": 10_000, "n_eval": 20_000, "d": 32},
        "detector_pipeline": {"n_per_class": 1000, "n_train": 500, "d": 16, "size": 64},
    },
    "tiny": {
        "eval_scale": {"n_pad": 400, "n_vuln": 300},
        "ocsvm_fit": {"n_train": 200, "n_eval": 150, "d": 8},
        "detector_pipeline": {"n_per_class": 20, "n_train": 60, "d": 16, "size": 64},
    },
}

_TAGS = {name: k + 1 for k, name in enumerate(WORKLOAD_NAMES)}
_NU = 0.5
_TOL = 1e-6


@dataclass
class Op:
    """One CLI invocation of a pass.

    ``reads`` lists every file the command opens (a file passed twice is
    read twice); ``writes`` every file it creates.  ``check`` raises
    :class:`checks.CheckError` when the outputs, read from the current
    directory, disagree with the reference.
    """

    argv: list[str]
    reads: list[str]
    writes: list[str]
    rows: int
    check: Callable[[str], None]

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    input_sizes: dict[str, int]
    inputs: list[str] = field(default_factory=list)

    @property
    def rows_per_pass(self) -> int:
        return sum(op.rows for op in self.ops)


# ---------------------------------------------------------------------------
# writers for the generated tables (same bytes as padeval's writers: ids
# need no quoting and floats are written by repr, the shortest round trip)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_scores(path: str, ids, labels, scores: np.ndarray) -> None:
    body = "".join(f"{i},{lab},{s!r}\n" for i, lab, s in zip(ids, labels, scores.tolist()))
    _write_text(path, "sample_id,label,score\n" + body)


def _write_features(path: str, ids, values: np.ndarray) -> None:
    header = "sample_id," + ",".join(f"f{k}" for k in range(values.shape[1])) + "\n"
    body = "".join(
        sid + "," + ",".join(map(repr, row)) + "\n" for sid, row in zip(ids, values.tolist())
    )
    _write_text(path, header + body)


def _write_labels(path: str, ids, labels) -> None:
    _write_text(path, "sample_id,label\n" + "".join(f"{i},{lab}\n" for i, lab in zip(ids, labels)))


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[name]])


def _synth_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


# ---------------------------------------------------------------------------
# eval_scale


def _eval_scale(seed: int, size: dict) -> Workload:
    rng = _rng(seed, "eval_scale")
    n, m = size["n_pad"], size["n_vuln"]

    # one mixed PAD file of n bona fide + n attack rows in seeded order, and a
    # second channel over the same ids (in another order) for fusion
    order = rng.permutation(2 * n)
    is_bona = order < n
    ids = [f"s{k:06d}" for k in range(2 * n)]
    labels = np.where(is_bona, "bonafide", "attack")
    score_a = np.where(is_bona, rng.normal(1.0, 1.0, 2 * n), rng.normal(-1.0, 1.0, 2 * n))
    score_b = np.where(is_bona, rng.normal(0.5, 1.0, 2 * n), rng.normal(-0.5, 1.0, 2 * n))
    perm_b = rng.permutation(2 * n)
    _write_scores("inputs/pad_a.csv", ids, labels, score_a)
    _write_scores("inputs/pad_b.csv", [ids[k] for k in perm_b], labels[perm_b], score_b[perm_b])

    # comparator scores are emitted at 1e-3 resolution, so the grids have ties
    vuln = {}
    for name, label, mu, sigma in (
        ("mated", "mated", 0.75, 0.08),
        ("nonmated", "nonmated", 0.30, 0.08),
        ("attack", "attackmated", 0.62, 0.10),
    ):
        vuln[name] = np.round(rng.normal(mu, sigma, m), 3) + 0.0  # + 0.0 folds -0.0
        _write_scores(f"inputs/{name}.csv", [f"{name[0]}{k:06d}" for k in range(m)], [label] * m, vuln[name])

    bona, attack = score_a[is_bona], score_a[~is_bona]
    ops = [
        Op(
            argv=["eval-pad", "--bonafide", "inputs/pad_a.csv", "--attack", "inputs/pad_a.csv",
                  "--output-dir", "out/pad"],
            reads=["inputs/pad_a.csv", "inputs/pad_a.csv"],
            writes=["out/pad/pad_report.json", "out/pad/det.csv", "out/pad/det.svg"],
            rows=4 * n,
            check=lambda stdout: checks.check_pad_outputs("out/pad", stdout, bona, attack),
        ),
        Op(
            argv=["eval-vuln", "--mated", "inputs/mated.csv", "--nonmated", "inputs/nonmated.csv",
                  "--attack", "inputs/attack.csv", "--output-dir", "out/vuln"],
            reads=["inputs/mated.csv", "inputs/nonmated.csv", "inputs/attack.csv"],
            writes=["out/vuln/vuln_report.json", "out/vuln/det.csv", "out/vuln/det.svg"],
            rows=3 * m,
            check=lambda stdout: checks.check_vuln_outputs(
                "out/vuln", stdout, vuln["mated"], vuln["nonmated"], vuln["attack"], (0.001, 0.01)
            ),
        ),
        Op(
            argv=["fuse", "--a", "inputs/pad_a.csv", "--b", "inputs/pad_b.csv", "--out", "out/fused.csv"],
            reads=["inputs/pad_a.csv", "inputs/pad_b.csv"],
            writes=["out/fused.csv"],
            rows=4 * n,
            check=lambda stdout: checks.check_fused("out/fused.csv", "inputs/pad_a.csv", "inputs/pad_b.csv"),
        ),
    ]
    sizes = {"pad_rows_per_class": n, "fuse_rows_per_file": 2 * n, "vuln_rows_per_file": m}
    return Workload("eval_scale", ops, sizes)


# ---------------------------------------------------------------------------
# ocsvm_fit and the feature half of detector_pipeline


def _feature_split(rng, n_train: int, n_bona_eval: int, n_attack: int, d: int, separation: float):
    """One gen_features draw split by row: the first ``n_train`` bona fide rows
    train, the rest are held out.  A second draw would have another cluster
    direction and the model would score near chance."""
    feats, labels = synth.gen_features(
        SynthFeatureSpec(
            n_bonafide=n_train + n_bona_eval,
            n_attack=n_attack,
            d=d,
            mean_separation=separation,
            seed=_synth_seed(rng),
        )
    )
    ids = feats.sample_ids
    label_names = [lab.value for lab in labels]
    _write_features("inputs/train.csv", ids[:n_train], feats.values[:n_train])
    _write_features("inputs/eval.csv", ids[n_train:], feats.values[n_train:])
    _write_labels("inputs/labels.csv", ids[n_train:], label_names[n_train:])
    return feats, label_names


def _ocsvm_ops(feats, label_names, n_train: int) -> list[Op]:
    train = feats.values[:n_train]
    eval_ids = list(feats.sample_ids[n_train:])
    n_eval = len(eval_ids)
    return [
        Op(
            argv=["ocsvm-train", "--features", "inputs/train.csv", "--no-standardize",
                  "--model", "out/model.json"],
            reads=["inputs/train.csv"],
            writes=["out/model.json"],
            rows=n_train,
            check=lambda stdout: checks.check_model("out/model.json", train, _NU, _TOL),
        ),
        Op(
            argv=["ocsvm-score", "--model", "out/model.json", "--features", "inputs/eval.csv",
                  "--labels", "inputs/labels.csv", "--out", "out/ad.csv"],
            reads=["out/model.json", "inputs/eval.csv", "inputs/labels.csv"],
            writes=["out/ad.csv"],
            rows=n_eval,
            check=lambda stdout: checks.check_decision_scores(
                "out/ad.csv", "out/model.json", eval_ids, label_names[n_train:], feats.values[n_train:]
            ),
        ),
    ]


def _eval_pad_op(scores_path: str, n_rows: int) -> Op:
    return Op(
        argv=["eval-pad", "--bonafide", scores_path, "--attack", scores_path, "--output-dir", "out/pad"],
        reads=[scores_path, scores_path],
        writes=["out/pad/pad_report.json", "out/pad/det.csv", "out/pad/det.svg"],
        rows=2 * n_rows,
        check=lambda stdout: checks.check_pad_outputs_from_file("out/pad", stdout, scores_path),
    )


def _ocsvm_fit(seed: int, size: dict) -> Workload:
    rng = _rng(seed, "ocsvm_fit")
    n_train, n_eval, d = size["n_train"], size["n_eval"], size["d"]
    feats, label_names = _feature_split(rng, n_train, n_eval, n_eval, d, separation=3.0)
    ops = _ocsvm_ops(feats, label_names, n_train) + [_eval_pad_op("out/ad.csv", 2 * n_eval)]
    sizes = {"train_rows": n_train, "eval_rows": 2 * n_eval, "d": d}
    return Workload("ocsvm_fit", ops, sizes)


# ---------------------------------------------------------------------------
# detector_pipeline


def _detector_pipeline(seed: int, size: dict) -> Workload:
    rng = _rng(seed, "detector_pipeline")
    n, n_train, d, px = size["n_per_class"], size["n_train"], size["d"], size["size"]
    feats, label_names = _feature_split(rng, n_train, n, n, d, separation=1.6)
    eval_ids = list(feats.sample_ids[n_train:])
    eval_labels = label_names[n_train:]

    # depth channel over the same sample ids: curved faces against flat or
    # faintly wrinkled shirts, each capture with a few percent dropped pixels
    os.makedirs("inputs/captures", exist_ok=True)
    landmarks_text = None
    depth_maps = []
    manifest = ["sample_id,depth,landmarks,label\n"]
    for sid, label in zip(eval_ids, eval_labels):
        dropout = float(rng.uniform(0.0, 0.04))
        if label == "bonafide":
            spec = SynthDepthSpec(
                kind=DepthKind.CURVED_FACE, width=px, height=px,
                curvature_amp_mm=float(max(rng.normal(10.0, 3.0), 1.0)),
                invalid_fraction=dropout, seed=_synth_seed(rng),
            )
        elif rng.uniform() < 0.5:
            spec = SynthDepthSpec(
                kind=DepthKind.PLANAR_SHIRT, width=px, height=px,
                invalid_fraction=dropout, seed=_synth_seed(rng),
            )
        else:
            spec = SynthDepthSpec(
                kind=DepthKind.WRINKLED_SHIRT, width=px, height=px,
                wrinkle_amp_mm=float(max(rng.normal(1.0, 0.5), 0.0)),
                invalid_fraction=dropout, seed=_synth_seed(rng),
            )
        depth, marks = synth.gen_depth(spec)
        if landmarks_text is None:
            landmarks_text = ingest.write_landmarks(marks)
            landmark_points = marks.points
        with open(f"inputs/captures/{sid}.pgm", "wb") as fh:
            fh.write(ingest.write_depth_pgm(depth))
        _write_text(f"inputs/captures/{sid}.csv", landmarks_text)
        depth_maps.append(depth.values)
        manifest.append(f"{sid},captures/{sid}.pgm,captures/{sid}.csv,{label}\n")
    _write_text("inputs/manifest.csv", "".join(manifest))

    captures = [f"inputs/captures/{sid}.{ext}" for sid in eval_ids for ext in ("pgm", "csv")]
    ops = [
        Op(
            argv=["dv-batch", "--manifest", "inputs/manifest.csv", "--out", "out/dv.csv"],
            reads=["inputs/manifest.csv"] + captures,
            writes=["out/dv.csv"],
            rows=2 * n,
            check=lambda stdout: checks.check_dv_scores(
                "out/dv.csv", eval_ids, eval_labels, depth_maps, landmark_points
            ),
        ),
        *_ocsvm_ops(feats, label_names, n_train),
        Op(
            argv=["fuse", "--a", "out/dv.csv", "--b", "out/ad.csv", "--out", "out/fused.csv"],
            reads=["out/dv.csv", "out/ad.csv"],
            writes=["out/fused.csv"],
            rows=4 * n,
            check=lambda stdout: checks.check_fused("out/fused.csv", "out/dv.csv", "out/ad.csv"),
        ),
        _eval_pad_op("out/fused.csv", 2 * n),
    ]
    sizes = {"captures": 2 * n, "capture_px": px * px, "train_rows": n_train, "eval_rows": 2 * n, "d": d}
    return Workload("detector_pipeline", ops, sizes)


_MAKERS = {
    "eval_scale": _eval_scale,
    "ocsvm_fit": _ocsvm_fit,
    "detector_pipeline": _detector_pipeline,
}


def setup(name: str, seed: int, scale: str) -> Workload:
    """Write the inputs of workload ``name`` under ``inputs/`` of the current directory."""
    os.makedirs("inputs", exist_ok=True)
    workload = _MAKERS[name](seed, SIZES[scale][name])
    workload.inputs = sorted(
        os.path.join(dirpath, f) for dirpath, _, files in os.walk("inputs") for f in files
    )
    return workload
