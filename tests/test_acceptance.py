"""Acceptance gate: the eight package-level criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test prints ``ACCEPTANCE <k>: PASS/FAIL`` as it completes.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import time

import numpy as np
import pytest

import oracles
from conftest import make_score_set, score_columns
from padeval import (
    DepthKind,
    DepthMap,
    DetAxes,
    FeatureMatrix,
    LandmarkSet,
    OcsvmConfig,
    PadevalError,
    Polarity,
    PresentationLabel,
    SynthDepthSpec,
    TrialLabel,
    bpcer_at_apcer,
    d_eer,
    det_curve,
    dv_score,
    evaluate_pad,
    evaluate_vuln,
    fit,
    gen_depth,
    threshold_at_fmr,
)
from padeval.cli import run
from padeval.ingest import (
    parse_depth_pgm,
    parse_features,
    parse_labels,
    parse_landmarks,
    parse_manifest,
    parse_model,
    parse_report,
    parse_scores,
    write_depth_pgm,
    write_features,
    write_labels,
    write_landmarks,
    write_model,
    write_report,
    write_scores,
)

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")


@contextlib.contextmanager
def criterion(number: int, title: str, detail: list[str]):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL — {title}")
        raise
    extra = f" ({'; '.join(detail)})" if detail else ""
    print(f"\nACCEPTANCE {number}: PASS — {title}{extra}")


def test_criterion_1_report_formatting_goldens():
    """Rates render as two/four-decimal percentages, checked against golden
    strings computed from published raw counts."""
    detail: list[str] = []
    with criterion(1, "report formatting matches the golden renderings", detail):
        lines: list[str] = []

        bona = [3.0] * 91 + [7.2] * 7 + [8.2] * 37 + [10.0] * 593
        attacks = [1.0] * 1403 + [7.0] * 41 + [8.0] * 80 + [9.0] * 80
        pad = evaluate_pad(
            make_score_set(bona, label=PresentationLabel.BONA_FIDE, prefix="b"),
            make_score_set(attacks, label=PresentationLabel.ATTACK, prefix="a"),
        )
        lines += parse_report(write_report(pad))["summary"]

        for total, k1, k2 in [
            (1608, 1591, 1602),
            (14472, 13412, 14129),
            (1605, 1599, 1604),
            (14445, 13967, 14318),
        ]:
            mated = make_score_set(
                [3.0] * 10, label=TrialLabel.MATED, polarity=Polarity.HIGHER_IS_MATCH, prefix="m"
            )
            nonmated = make_score_set(
                [1.0] * 5 + [0.0] * 995,
                label=TrialLabel.NONMATED,
                polarity=Polarity.HIGHER_IS_MATCH,
                prefix="n",
            )
            attack = make_score_set(
                [2.0] * k1 + [1.0] * (k2 - k1) + [0.0] * (total - k2),
                label=TrialLabel.ATTACK_MATED,
                polarity=Polarity.HIGHER_IS_MATCH,
                prefix="x",
            )
            vuln = evaluate_vuln(mated, nonmated, attack, [0.001, 0.01])
            lines += parse_report(write_report(vuln))["summary"]

        with open(os.path.join(GOLDEN, "report_rendering.txt"), encoding="utf-8") as fh:
            golden = [l for l in fh.read().splitlines() if not l.startswith("#")]
        assert lines == golden
        detail.append(f"{len(golden)} golden lines reproduced exactly")


def _random_scores(rng, n):
    if rng.integers(0, 2):
        return (rng.integers(-40, 41, n) / 8.0).tolist()  # tie-rich lattice
    return rng.normal(rng.uniform(-1, 1), 1.0, n).tolist()


def test_criterion_2_metric_oracle_equivalence():
    """500 random score sets agree exactly with the exhaustive-sweep oracle."""
    detail: list[str] = []
    with criterion(2, "metrics match the exhaustive oracle on 500 random sets", detail):
        rng = np.random.default_rng(20240601)
        started = time.perf_counter()
        for k in range(500):
            pos = _random_scores(rng, int(rng.integers(1, 201)))
            neg = _random_scores(rng, int(rng.integers(1, 201)))

            assert d_eer(pos, neg) == oracles.d_eer(pos, neg)

            for target in (0.001, 0.01, 0.1, float(rng.uniform(0.0, 1.0))):
                assert threshold_at_fmr(neg, target) == oracles.threshold_at_fmr(neg, target)

            for target in (0.10, 0.05):
                assert bpcer_at_apcer(pos, neg, target) == oracles.bpcer_at_apcer(pos, neg, target)

            axes = DetAxes.APCER_BPCER if k % 2 else DetAxes.FMR_FNMR
            curve = det_curve(pos, neg, axes)
            expected = oracles.det_points(pos, neg)
            assert curve.thresholds.tolist() == [t for t, _, _ in expected]
            assert curve.x_rates.tolist() == [x for _, x, _ in expected]
            assert curve.y_rates.tolist() == [y for _, _, y in expected]
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        detail.append(f"500 sets, 4 metrics each, {elapsed:.1f}s")


def test_criterion_3_monotonicity():
    """FMR/APCER never increase and FNMR/BPCER never decrease in the
    threshold, over 1000 random sets."""
    detail: list[str] = []
    with criterion(3, "error rates are monotone in the threshold on 1000 sets", detail):
        rng = np.random.default_rng(31337)
        violations = 0
        for _ in range(1000):
            pos = _random_scores(rng, int(rng.integers(1, 201)))
            neg = _random_scores(rng, int(rng.integers(1, 201)))
            curve = det_curve(pos, neg, DetAxes.APCER_BPCER)
            violations += int((np.diff(curve.x_rates) > 0).sum())  # APCER/FMR
            violations += int((np.diff(curve.y_rates) < 0).sum())  # BPCER/FNMR
        assert violations == 0
        detail.append("0 violations across every threshold step")


def test_criterion_4_ocsvm_correctness():
    """KKT certificates, the ν-property, oracle objectives, and the ν=1
    closed form, all within the stated budget."""
    detail: list[str] = []
    with criterion(4, "one-class SVM solver is certified correct", detail):
        started = time.perf_counter()
        rng = np.random.default_rng(7)

        # (a) + (b): 200 Gaussian sets across the stated size ranges.  The
        # isotropic clouds are fit without per-dimension centering: a linear
        # one-class decision on origin-centred data is degenerate (the
        # minimum-norm weight vector is ~0), so the meaningful solver regime
        # is the offset one.
        for _ in range(200):
            n = int(rng.integers(20, 501))
            d = int(rng.integers(2, 65))
            nu = float(rng.uniform(0.05, 0.95))
            x = rng.normal(0.0, 1.0, (n, d)) + rng.uniform(-5.0, 5.0, d)
            model = fit(x, OcsvmConfig(nu=nu, standardize=False))
            diag = model.diagnostics
            assert diag.kkt_residual <= 1e-6
            assert diag.n_margin_errors / n <= nu + 1.0 / n
            assert diag.n_support / n >= nu - 1.0 / n

        # (c): dual objective vs the projected-gradient oracle
        nus = [0.2, 0.35, 0.5, 0.8]
        worst_rel = 0.0
        for k in range(20):
            n = int(rng.integers(30, 81))
            d = int(rng.integers(2, 9))
            nu = nus[k % 4]
            x = rng.normal(0.0, 1.0, (n, d)) + rng.uniform(3.0, 6.0)
            model = fit(x, OcsvmConfig(nu=nu, standardize=False))
            got = 0.5 * float(model.dual_alphas @ (x @ x.T) @ model.dual_alphas)
            _, want = oracles.ocsvm_dual_oracle(x, nu)
            rel = abs(got - want) / max(abs(want), 1e-12)
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-6

        # (d): nu = 1 forces the uniform dual exactly
        for n in (2, 17, 100):
            x = rng.normal(0.0, 1.0, (n, 3)) + 4.0
            model = fit(x, OcsvmConfig(nu=1.0))
            assert model.dual_alphas.tolist() == [1.0 / n] * n

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        detail.append(f"200 certified fits, oracle rel err <= {worst_rel:.2e}, {elapsed:.1f}s")


def test_criterion_5_depth_variance_detector():
    """Exact zero on flat noiseless input, shift/scale behavior, and
    curved-vs-planar separation over 100 seeds."""
    detail: list[str] = []
    with criterion(5, "depth-variance detector meets its analytic contract", detail):
        flat, marks = gen_depth(
            SynthDepthSpec(kind=DepthKind.PLANAR_SHIRT, noise_sigma_mm=0.0)
        )
        assert dv_score(flat, marks).value == 0.0

        base, marks = gen_depth(SynthDepthSpec(kind=DepthKind.CURVED_FACE, seed=3))
        score = dv_score(base, marks).value
        shifted = DepthMap(values=base.values.astype(np.int64) + 500)
        assert dv_score(shifted, marks).value == pytest.approx(score, abs=1e-9)
        doubled = DepthMap(values=base.values.astype(np.int64) * 2)
        assert dv_score(doubled, marks).value == pytest.approx(2.0 * score, rel=1e-9)

        bona, attack = [], []
        for k in range(100):
            dm, lm = gen_depth(SynthDepthSpec(kind=DepthKind.CURVED_FACE, seed=k))
            bona.append(dv_score(dm, lm).value)
            dm, lm = gen_depth(SynthDepthSpec(kind=DepthKind.PLANAR_SHIRT, seed=100_000 + k))
            attack.append(dv_score(dm, lm).value)
        rate, _ = d_eer(bona, attack)
        assert rate < 0.05
        detail.append(f"100-seed curved-vs-planar D-EER {rate:.4f}")


def load_fusion_experiment():
    path = os.path.join(HERE, "..", "scripts", "fusion_experiment.py")
    spec = importlib.util.spec_from_file_location("fusion_experiment", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion_6_fusion_beats_single_detectors():
    """On the pinned seed-42 scenario, the fused score set has a lower
    D-EER than either detector alone."""
    detail: list[str] = []
    with criterion(6, "score fusion beats the best single detector", detail):
        started = time.perf_counter()
        exp = load_fusion_experiment()
        dv_set, ad_set, fused = exp.build_scenario()
        dv = exp.scenario_d_eer(dv_set)
        ad = exp.scenario_d_eer(ad_set)
        fu = exp.scenario_d_eer(fused)
        # frozen expectations for the pinned scenario (loose enough to absorb
        # a few samples drifting across a threshold on another platform)
        assert dv == pytest.approx(0.146, abs=0.02)
        assert ad == pytest.approx(0.194, abs=0.02)
        assert fu == pytest.approx(0.094, abs=0.02)
        assert fu <= min(dv, ad)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        detail.append(f"DV {dv:.3f}, AD {ad:.3f}, fused {fu:.3f}, {elapsed:.1f}s")


def _fuzz_exemplars() -> list[bytes]:
    scores = make_score_set([1.0, 2.5, -3.0], label=PresentationLabel.ATTACK)
    feats = FeatureMatrix(sample_ids=("a", "b"), values=[[1.0, 2.0], [3.0, 4.0]])
    marks = LandmarkSet(points=[[1.5, 2.5], [3.0, 4.0]])
    depth = DepthMap(values=np.arange(12, dtype=np.uint16).reshape(3, 4))
    model = fit(np.random.default_rng(5).normal(0, 1, (12, 3)) + 4.0)
    pad = evaluate_pad(
        make_score_set([3.0, 4.0], label=PresentationLabel.BONA_FIDE, prefix="b"),
        make_score_set([1.0, 2.0], label=PresentationLabel.ATTACK, prefix="a"),
    )
    return [
        write_scores(scores).encode(),
        write_labels({"a": PresentationLabel.BONA_FIDE, "b": PresentationLabel.ATTACK}).encode(),
        write_features(feats).encode(),
        write_landmarks(marks).encode(),
        b"sample_id,depth,landmarks,label\ns1,d.pgm,l.csv,bonafide\n",
        write_depth_pgm(depth),
        write_report(pad).encode(),
        write_model(model).encode(),
    ]


def _mutate(rng, blob: bytes) -> bytes:
    data = bytearray(blob)
    for _ in range(int(rng.integers(1, 9))):
        op = int(rng.integers(0, 3))
        pos = int(rng.integers(0, len(data) + 1)) if data else 0
        if op == 0 and data:
            data[pos % len(data)] = int(rng.integers(0, 256))
        elif op == 1:
            data.insert(pos, int(rng.integers(0, 256)))
        elif data:
            del data[pos % len(data)]
    return bytes(data)


def test_criterion_7_format_robustness():
    """Lossless round-trips plus a 100k-input fuzz across every parser."""
    detail: list[str] = []
    with criterion(7, "formats round-trip and parsers never crash", detail):
        # round-trips (the per-format hypothesis suites go further)
        scores = make_score_set([0.125, -7.5, 3.0])
        assert score_columns(parse_scores(write_scores(scores), scores.polarity)) == score_columns(scores)
        labels = {"a": PresentationLabel.ATTACK, "b": TrialLabel.MATED}
        assert parse_labels(write_labels(labels)) == labels
        feats = FeatureMatrix(sample_ids=("a", "b"), values=[[1.5, -2.0], [0.0, 9.75]])
        assert parse_features(write_features(feats)).values.tolist() == feats.values.tolist()
        marks = LandmarkSet(points=[[0.5, 1.5], [2.0, 3.0]])
        assert parse_landmarks(write_landmarks(marks)).points.tolist() == marks.points.tolist()
        depth = DepthMap(values=np.array([[0, 65535], [1000, 1]], dtype=np.uint16))
        assert parse_depth_pgm(write_depth_pgm(depth)).values.tolist() == depth.values.tolist()
        model = fit(np.random.default_rng(8).normal(0, 1, (15, 4)) + 3.0)
        clone = parse_model(write_model(model))
        assert clone.w.tolist() == model.w.tolist() and clone.rho == model.rho

        # fuzz: every input goes through every parser
        rng = np.random.default_rng(12345)
        exemplars = _fuzz_exemplars()
        corpus: list[bytes] = []
        n_inputs = 100_000
        for _ in range(n_inputs):
            kind = int(rng.integers(0, 5))
            if kind <= 1:  # 40%: raw random bytes
                corpus.append(rng.bytes(int(rng.integers(0, 80))))
            elif kind <= 3:  # 40%: mutated well-formed exemplar
                corpus.append(_mutate(rng, exemplars[int(rng.integers(0, len(exemplars)))]))
            else:  # 20%: random commas-and-lines text
                chars = rng.integers(32, 127, int(rng.integers(0, 60)))
                text = "".join(chr(c) for c in chars)
                corpus.append(text.replace("x", ",").replace("q", "\n").encode())

        parsers = [
            lambda b: parse_scores(b, Polarity.HIGHER_IS_BONA_FIDE),
            parse_labels,
            parse_features,
            parse_landmarks,
            parse_manifest,
            parse_depth_pgm,
            parse_report,
            parse_model,
        ]
        started = time.perf_counter()
        for blob in corpus:
            for parser in parsers:
                try:
                    parser(blob)
                except PadevalError:
                    pass
                # anything else propagates and fails the criterion
        elapsed = time.perf_counter() - started
        detail.append(f"{n_inputs} inputs x {len(parsers)} parsers, {elapsed:.1f}s")


def _run_pipeline() -> dict[str, bytes]:
    """synth-gen -> ocsvm-train/score + dv-batch -> fuse -> eval-pad, all via
    the CLI with relative paths, returning every produced file's bytes."""
    n_bona, n_attack = 12, 8
    assert run([
        "synth-gen", "features", "--n-bonafide", str(n_bona), "--n-attack", str(n_attack),
        "--d", "6", "--separation", "3", "--seed", "11", "--output-dir", "data",
    ]) == 0
    assert run([
        "synth-gen", "features", "--n-bonafide", "40", "--n-attack", "1",
        "--d", "6", "--separation", "3", "--seed", "10", "--output-dir", "train",
    ]) == 0
    assert run([
        "ocsvm-train", "--features", "train/features.csv", "--model", "data/model.json",
        "--nu", "0.4", "--no-standardize",
    ]) == 0
    assert run([
        "ocsvm-score", "--model", "data/model.json", "--features", "data/features.csv",
        "--labels", "data/labels.csv", "--out", "data/ad_scores.csv",
    ]) == 0

    with open("data/labels.csv", "rb") as fh:
        labels = parse_labels(fh.read())
    manifest_lines = ["sample_id,depth,landmarks,label"]
    for k, (sid, label) in enumerate(labels.items()):
        capture = f"captures/{sid}"
        kind = "curved-face" if label is PresentationLabel.BONA_FIDE else "wrinkled-shirt"
        assert run([
            "synth-gen", "depth", "--kind", kind, "--width", "32", "--height", "32",
            "--seed", str(1000 + k), "--output-dir", capture,
        ]) == 0
        manifest_lines.append(f"{sid},{capture}/depth.pgm,{capture}/landmarks.csv,{label.value}")
    with open("manifest.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(manifest_lines) + "\n")
    assert run(["dv-batch", "--manifest", "manifest.csv", "--out", "data/dv_scores.csv"]) == 0

    assert run([
        "fuse", "--a", "data/dv_scores.csv", "--b", "data/ad_scores.csv",
        "--out", "data/fused.csv",
    ]) == 0
    assert run([
        "eval-pad", "--bonafide", "data/fused.csv", "--attack", "data/fused.csv",
        "--output-dir", "report",
    ]) == 0

    produced: dict[str, bytes] = {}
    for root, _, files in os.walk("."):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                produced[os.path.relpath(path)] = fh.read()
    return produced


def test_criterion_8_end_to_end_determinism(tmp_path, monkeypatch):
    """The full CLI pipeline produces byte-identical trees across two runs."""
    detail: list[str] = []
    with criterion(8, "full CLI pipeline is byte-identical across runs", detail):
        trees = []
        for name in ("run1", "run2"):
            workdir = tmp_path / name
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            trees.append(_run_pipeline())
        assert trees[0] == trees[1]
        assert "report/pad_report.json" in trees[0]
        assert "report/det.csv" in trees[0]
        assert "report/det.svg" in trees[0]
        report = json.loads(trees[0]["report/pad_report.json"])
        assert report["kind"] == "pad-report"
        detail.append(f"{len(trees[0])} files byte-identical, report level included")
