"""End-to-end CLI behavior: exit codes, file outputs, stdout contracts."""

from __future__ import annotations

import json
import os
import warnings

import pytest

from padeval import (
    DepthKind,
    OcsvmConfig,
    PadevalError,
    Polarity,
    PresentationLabel,
    ScoreSet,
    SynthDepthSpec,
    SynthFeatureSpec,
    decision_value,
    dv_score,
    fit,
    fuse,
    gen_depth,
    gen_features,
)
from padeval.cli import run
from padeval.ingest import (
    fmt_float,
    parse_depth_pgm,
    parse_landmarks,
    parse_model,
    parse_report,
    parse_scores,
    write_depth_pgm,
    write_features,
    write_labels,
    write_landmarks,
    write_scores,
)

GOLDEN_HELP = os.path.join(os.path.dirname(__file__), "golden", "help")


def write_file(path, content):
    mode = "wb" if isinstance(content, bytes) else "w"
    with open(path, mode, **({} if "b" in mode else {"encoding": "utf-8", "newline": ""})) as fh:
        fh.write(content)
    return str(path)


def scores_csv(tmp_path, name, values, label=PresentationLabel.BONA_FIDE, prefix="s"):
    from conftest import make_score_set

    return write_file(tmp_path / name, write_scores(make_score_set(values, label=label, prefix=prefix)))


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert run([]) == 1
        assert "padeval" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["dv-score", "--bogus"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["dv-score", "--depth", "x.pgm"]) == 1
        assert "landmarks" in capsys.readouterr().err

    def test_label_sources_mutually_exclusive(self, tmp_path, capsys):
        assert (
            run(
                ["ocsvm-score", "--model", "m", "--features", "f", "--out", "o",
                 "--label", "attack", "--labels", "l.csv"]
            )
            == 1
        )


class TestHelpGoldens:
    CASES = {
        "padeval": ["--help"],
        "dv-score": ["dv-score", "--help"],
        "dv-batch": ["dv-batch", "--help"],
        "ocsvm-train": ["ocsvm-train", "--help"],
        "ocsvm-score": ["ocsvm-score", "--help"],
        "fuse": ["fuse", "--help"],
        "eval-pad": ["eval-pad", "--help"],
        "eval-vuln": ["eval-vuln", "--help"],
        "synth-gen": ["synth-gen", "--help"],
        "synth-gen-depth": ["synth-gen", "depth", "--help"],
        "synth-gen-features": ["synth-gen", "features", "--help"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_help_matches_golden(self, name, capsys):
        assert run(self.CASES[name]) == 0
        got = capsys.readouterr().out
        with open(os.path.join(GOLDEN_HELP, f"{name}.txt"), encoding="utf-8") as fh:
            assert got == fh.read()


class TestSynthGen:
    def test_depth_outputs_match_library(self, tmp_path):
        out = tmp_path / "gen"
        assert (
            run(
                ["synth-gen", "depth", "--kind", "curved-face", "--width", "32",
                 "--height", "24", "--seed", "7", "--output-dir", str(out)]
            )
            == 0
        )
        spec = SynthDepthSpec(kind=DepthKind.CURVED_FACE, width=32, height=24, seed=7)
        depth, marks = gen_depth(spec)
        with open(out / "depth.pgm", "rb") as fh:
            assert parse_depth_pgm(fh.read()).values.tolist() == depth.values.tolist()
        with open(out / "landmarks.csv", encoding="utf-8") as fh:
            assert parse_landmarks(fh.read()).points.tolist() == marks.points.tolist()

    def test_features_outputs_match_library(self, tmp_path):
        out = tmp_path / "gen"
        assert (
            run(
                ["synth-gen", "features", "--n-bonafide", "4", "--n-attack", "3",
                 "--d", "5", "--seed", "3", "--output-dir", str(out)]
            )
            == 0
        )
        feats, labels = gen_features(SynthFeatureSpec(n_bonafide=4, n_attack=3, d=5, seed=3))
        assert (out / "features.csv").read_text() == write_features(feats)
        assert (out / "labels.csv").read_text() == write_labels(
            dict(zip(feats.sample_ids, labels))
        )

    def test_bad_spec_is_a_data_error(self, tmp_path, capsys):
        assert (
            run(["synth-gen", "features", "--n-bonafide", "0", "--n-attack", "1",
                 "--output-dir", str(tmp_path)])
            == 2
        )
        assert "error:" in capsys.readouterr().err


def make_capture(tmp_path, kind=DepthKind.PLANAR_SHIRT, seed=0, **kwargs):
    spec = SynthDepthSpec(kind=kind, width=32, height=32, seed=seed, **kwargs)
    depth, marks = gen_depth(spec)
    depth_path = write_file(tmp_path / f"{kind.value}-{seed}.pgm", write_depth_pgm(depth))
    marks_path = write_file(tmp_path / f"{kind.value}-{seed}.csv", write_landmarks(marks))
    return depth, marks, depth_path, marks_path


class TestDvCommands:
    def test_dv_score_stdout(self, tmp_path, capsys):
        depth, marks, depth_path, marks_path = make_capture(tmp_path, seed=5)
        assert run(["dv-score", "--depth", depth_path, "--landmarks", marks_path]) == 0
        expected = dv_score(depth, marks)
        assert capsys.readouterr().out == f"{fmt_float(expected.value)}\t{expected.n_valid}\n"

    def test_dv_score_names_bad_file(self, tmp_path, capsys):
        bad = write_file(tmp_path / "bad.pgm", b"P5 nonsense")
        _, _, _, marks_path = make_capture(tmp_path)
        assert run(["dv-score", "--depth", bad, "--landmarks", marks_path]) == 2
        assert "bad.pgm" in capsys.readouterr().err

    def test_dv_score_missing_file(self, tmp_path, capsys):
        _, _, _, marks_path = make_capture(tmp_path)
        assert run(["dv-score", "--depth", str(tmp_path / "absent.pgm"), "--landmarks", marks_path]) == 2

    def test_dv_batch_resolves_against_manifest_dir(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        maps = data / "maps"
        maps.mkdir(parents=True)
        entries = []
        expected = {}
        for k, kind in enumerate([DepthKind.PLANAR_SHIRT, DepthKind.CURVED_FACE]):
            depth, marks, _, _ = make_capture(maps, kind=kind, seed=k)
            write_file(maps / f"{k}.pgm", write_depth_pgm(depth))
            write_file(maps / f"{k}.csv", write_landmarks(marks))
            label = "bonafide" if kind is DepthKind.CURVED_FACE else "attack"
            entries.append(f"s{k},maps/{k}.pgm,maps/{k}.csv,{label}")
            expected[f"s{k}"] = dv_score(depth, marks).value
        manifest = write_file(
            data / "manifest.csv", "sample_id,depth,landmarks,label\n" + "\n".join(entries) + "\n"
        )
        out = tmp_path / "scores.csv"
        monkeypatch.chdir(tmp_path)  # cwd differs from the manifest directory
        assert run(["dv-batch", "--manifest", manifest, "--out", str(out)]) == 0
        scored = parse_scores(out.read_bytes(), Polarity.HIGHER_IS_BONA_FIDE)
        assert {r.sample_id: r.score for r in scored} == expected
        assert [r.label for r in scored] == [PresentationLabel.ATTACK, PresentationLabel.BONA_FIDE]

    def test_dv_batch_names_failing_sample(self, tmp_path, capsys):
        depth, marks, depth_path, marks_path = make_capture(tmp_path, invalid_fraction=0.99)
        manifest = write_file(
            tmp_path / "manifest.csv",
            "sample_id,depth,landmarks,label\n"
            f"weird,{os.path.basename(depth_path)},{os.path.basename(marks_path)},bonafide\n",
        )
        out = tmp_path / "scores.csv"
        assert run(["dv-batch", "--manifest", manifest, "--out", str(out)]) == 2
        assert "weird" in capsys.readouterr().err


def features_csv(tmp_path, name, values, ids=None):
    from padeval import FeatureMatrix

    ids = ids or tuple(f"r{k}" for k in range(len(values)))
    return write_file(tmp_path / name, write_features(FeatureMatrix(sample_ids=ids, values=values)))


class TestOcsvmCommands:
    def test_train_then_score(self, tmp_path, capsys):
        feats, _ = gen_features(SynthFeatureSpec(n_bonafide=60, n_attack=1, d=4, seed=1))
        train = features_csv(tmp_path, "train.csv", feats.values[:60].tolist())
        model_path = tmp_path / "model.json"
        assert run(["ocsvm-train", "--features", train, "--model", str(model_path), "--nu", "0.3"]) == 0
        line = capsys.readouterr().out
        assert line.startswith("trained on 60 x 4: iterations ")
        model = parse_model(model_path.read_bytes())

        probe_values = feats.values[55:].tolist()
        probes = features_csv(tmp_path, "probes.csv", probe_values, ids=("p0", "p1", "p2", "p3", "p4", "p5"))
        out = tmp_path / "scored.csv"
        assert run(["ocsvm-score", "--model", str(model_path), "--features", probes,
                    "--out", str(out), "--label", "attack"]) == 0
        scored = parse_scores(out.read_bytes(), Polarity.HIGHER_IS_BONA_FIDE)
        assert [r.score for r in scored] == [decision_value(model, row) for row in probe_values]
        assert all(r.label is PresentationLabel.ATTACK for r in scored)

    def test_train_nu_one_two_points(self, tmp_path):
        train = write_file(tmp_path / "two.csv", "sample_id,f0\na,1.0\nb,3.0\n")
        model_path = tmp_path / "model.json"
        assert run(["ocsvm-train", "--features", train, "--model", str(model_path),
                    "--nu", "1", "--no-standardize"]) == 0
        model = parse_model(model_path.read_bytes())
        assert model.dual_alphas.tolist() == [0.5, 0.5]
        assert model.w.tolist() == [2.0]

    def test_train_non_convergence_exit_code(self, tmp_path, capsys):
        feats, _ = gen_features(SynthFeatureSpec(n_bonafide=80, n_attack=1, d=6, seed=2))
        train = features_csv(tmp_path, "train.csv", feats.values[:80].tolist())
        assert run(["ocsvm-train", "--features", train, "--model", str(tmp_path / "m.json"),
                    "--max-iter", "1"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_infeasible_nu_is_data_error(self, tmp_path):
        train = write_file(tmp_path / "two.csv", "sample_id,f0\na,1.0\nb,3.0\n")
        assert run(["ocsvm-train", "--features", train, "--model", str(tmp_path / "m.json"),
                    "--nu", "0.2"]) == 2

    def test_score_with_labels_file(self, tmp_path):
        train = features_csv(tmp_path, "train.csv", [[0.0, 9.0], [1.0, 10.0], [0.5, 9.5], [0.2, 9.8]])
        model_path = tmp_path / "model.json"
        assert run(["ocsvm-train", "--features", train, "--model", str(model_path)]) == 0
        probes = features_csv(tmp_path, "probes.csv", [[0.1, 9.7], [5.0, 2.0]], ids=("x", "y"))
        labels = write_file(tmp_path / "labels.csv", "sample_id,label\nx,bonafide\ny,attack\n")
        out = tmp_path / "scored.csv"
        assert run(["ocsvm-score", "--model", str(model_path), "--features", probes,
                    "--out", str(out), "--labels", labels]) == 0
        scored = parse_scores(out.read_bytes(), Polarity.HIGHER_IS_BONA_FIDE)
        assert [r.label for r in scored] == [PresentationLabel.BONA_FIDE, PresentationLabel.ATTACK]

    def test_score_missing_label_is_data_error(self, tmp_path, capsys):
        train = features_csv(tmp_path, "train.csv", [[0.0], [1.0], [0.5], [0.2]])
        model_path = tmp_path / "model.json"
        assert run(["ocsvm-train", "--features", train, "--model", str(model_path)]) == 0
        probes = features_csv(tmp_path, "probes.csv", [[0.1], [0.9]], ids=("x", "y"))
        labels = write_file(tmp_path / "labels.csv", "sample_id,label\nx,bonafide\n")
        assert run(["ocsvm-score", "--model", str(model_path), "--features", probes,
                    "--out", str(tmp_path / "o.csv"), "--labels", labels]) == 2


class TestFuseCommand:
    def test_fuse_matches_library_and_prints_caveat(self, tmp_path, capsys):
        from conftest import make_score_set

        a = make_score_set([0.0, 10.0, 2.0])
        b = make_score_set([0.0, 5.0, 4.0])
        a_path = write_file(tmp_path / "a.csv", write_scores(a))
        b_path = write_file(tmp_path / "b.csv", write_scores(b))
        out = tmp_path / "fused.csv"
        assert run(["fuse", "--a", a_path, "--b", b_path, "--out", str(out),
                    "--wa", "0.25", "--wb", "0.75"]) == 0
        assert "test-time statistics" in capsys.readouterr().out
        expected = fuse(a, b, 0.25, 0.75)
        got = parse_scores(out.read_bytes(), Polarity.HIGHER_IS_BONA_FIDE)
        assert got.records == expected.records

    def test_fuse_weight_error_is_data_error(self, tmp_path, capsys):
        path = scores_csv(tmp_path, "a.csv", [0.0, 1.0])
        assert run(["fuse", "--a", path, "--b", path, "--out", str(tmp_path / "o.csv"),
                    "--wa", "0.9", "--wb", "0.9"]) == 2

    def test_fuse_names_malformed_file(self, tmp_path, capsys):
        good = scores_csv(tmp_path, "good.csv", [0.0, 1.0])
        bad = write_file(tmp_path / "bad.csv", "sample_id,label\nnot,scores\n")
        assert run(["fuse", "--a", good, "--b", bad, "--out", str(tmp_path / "o.csv")]) == 2
        assert "bad.csv" in capsys.readouterr().err


class TestEvalPad:
    @pytest.mark.parametrize(
        "rows",
        ["a,bonafide,1.7976931348623157e308\nb,attack,0.0\n", "a,bonafide,1.0\nb,attack,1.7976931348623157e308\n"],
    )
    def test_largest_finite_score_is_data_error(self, tmp_path, capsys, rows):
        path = write_file(tmp_path / "scores.csv", "sample_id,label,score\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning from numpy would raise
            code = run(["eval-pad", "--bonafide", path, "--attack", path, "--output-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: score 1.7976931348623157e+308 is the largest finite float: "
            "no finite threshold lies above it\n"
        )

    def run_eval(self, tmp_path, capsys, extra=()):
        bona = scores_csv(tmp_path, "bona.csv", [3.0, 4.0, 5.0, 6.0], label=PresentationLabel.BONA_FIDE, prefix="b")
        attack = scores_csv(tmp_path, "atk.csv", [0.0, 1.0, 2.0], label=PresentationLabel.ATTACK, prefix="a")
        out = tmp_path / "report"
        code = run(["eval-pad", "--bonafide", bona, "--attack", attack,
                    "--output-dir", str(out), *extra])
        return code, out, capsys.readouterr().out

    def test_outputs_and_summary(self, tmp_path, capsys):
        code, out, stdout = self.run_eval(tmp_path, capsys)
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "D-EER: 0.00% at threshold 2.5"
        assert lines[3] == "bona fide: 4, attacks: 3"
        report = parse_report((out / "pad_report.json").read_bytes())
        assert lines == report["summary"]
        assert report["metrics"]["d_eer"] == 0.0
        assert report["config"]["apcer_targets"] == [0.1, 0.05]
        assert (out / "det.csv").exists()
        assert (out / "det.svg").exists()

    def test_format_restriction(self, tmp_path, capsys):
        code, out, _ = self.run_eval(tmp_path, capsys, extra=("--format", "json"))
        assert code == 0
        assert (out / "pad_report.json").exists()
        assert not (out / "det.csv").exists()
        assert not (out / "det.svg").exists()

    def test_summary_printed_without_json(self, tmp_path, capsys):
        _, out, _ = self.run_eval(tmp_path, capsys)
        code, _, csv_stdout = self.run_eval(tmp_path, capsys, extra=("--format", "csv"))
        assert code == 0
        assert csv_stdout.splitlines() == parse_report((out / "pad_report.json").read_bytes())["summary"]

    def test_config_echo_names_inputs(self, tmp_path, capsys):
        code, out, _ = self.run_eval(tmp_path, capsys)
        report = json.loads((out / "pad_report.json").read_text())
        assert report["config"]["bonafide"].endswith("bona.csv")

    def test_json_alone_skips_the_det_sweep(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("det_curve called without a DET output")

        monkeypatch.setattr("padeval.cli.det_curve", no_sweep)
        code, out, stdout = self.run_eval(tmp_path, capsys, extra=("--format", "json"))
        assert code == 0
        assert sorted(os.listdir(out)) == ["pad_report.json"]
        assert stdout.splitlines() == parse_report((out / "pad_report.json").read_bytes())["summary"]

    def test_missing_positive_rows_is_data_error(self, tmp_path, capsys):
        attack_only = scores_csv(tmp_path, "atk.csv", [0.0, 1.0], label=PresentationLabel.ATTACK)
        assert run(["eval-pad", "--bonafide", attack_only, "--attack", attack_only,
                    "--output-dir", str(tmp_path / "r")]) == 2


class TestEvalVuln:
    def run_eval(self, tmp_path, capsys, extra=()):
        from padeval import TrialLabel

        mated = scores_csv(tmp_path, "mated.csv", [2.0, 3.0, 4.0], label=TrialLabel.MATED, prefix="m")
        nonmated = scores_csv(tmp_path, "nonmated.csv", [0.0, 0.5, 1.0], label=TrialLabel.NONMATED, prefix="n")
        attack = scores_csv(tmp_path, "attack.csv", [2.0, 2.0, 0.0], label=TrialLabel.ATTACK_MATED, prefix="x")
        out = tmp_path / "vuln"
        code = run(["eval-vuln", "--mated", mated, "--nonmated", nonmated,
                    "--attack", attack, "--output-dir", str(out), *extra])
        return code, out, capsys.readouterr().out

    def test_outputs_and_summary(self, tmp_path, capsys):
        code, out, stdout = self.run_eval(tmp_path, capsys)
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("FMR=0.1%: threshold ")
        assert lines[1].startswith("FMR=1%: threshold ")
        assert lines[2] == "mated: 3, non-mated: 3, attack-mated: 3"
        report = parse_report((out / "vuln_report.json").read_bytes())
        assert report["kind"] == "vuln-report"
        assert lines == report["summary"]
        assert (out / "det.csv").exists() and (out / "det.svg").exists()

    def test_summary_printed_without_json(self, tmp_path, capsys):
        _, out, _ = self.run_eval(tmp_path, capsys)
        code, _, csv_stdout = self.run_eval(tmp_path, capsys, extra=("--format", "csv"))
        assert code == 0
        assert csv_stdout.splitlines() == parse_report((out / "vuln_report.json").read_bytes())["summary"]

    def test_custom_fmr_targets(self, tmp_path, capsys):
        from padeval import TrialLabel

        mated = scores_csv(tmp_path, "mated.csv", [2.0, 3.0], label=TrialLabel.MATED, prefix="m")
        nonmated = scores_csv(tmp_path, "nonmated.csv", [0.0, 1.0], label=TrialLabel.NONMATED, prefix="n")
        attack = scores_csv(tmp_path, "attack.csv", [1.5, 2.5], label=TrialLabel.ATTACK_MATED, prefix="x")
        assert run(["eval-vuln", "--mated", mated, "--nonmated", nonmated, "--attack", attack,
                    "--output-dir", str(tmp_path / "v"), "--fmr", "0.05"]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("FMR=5%: ")


def mixed_scores_text(labels_and_values, polarity):
    ids = [f"r{k:03d}" for k in range(len(labels_and_values))]
    labels, values = zip(*labels_and_values)
    return write_scores(ScoreSet(sample_ids=ids, labels=labels, values=values, polarity=polarity))


def counting_parse_scores(monkeypatch):
    """Count the calls of ingest.parse_scores, which still does the parsing."""
    import padeval.ingest as ingest

    calls = []
    real = ingest.parse_scores

    def parse_scores(data, polarity):
        calls.append(len(data))
        return real(data, polarity)

    monkeypatch.setattr(ingest, "parse_scores", parse_scores)
    return calls


def run_and_capture(argv, out, capsys):
    code = run([*argv, "--output-dir", str(out)])
    captured = capsys.readouterr()
    files = {f.name: (out / f.name).read_bytes() for f in out.iterdir()} if out.exists() else {}
    return code, captured.out, captured.err, files


def without_config_paths(files, report_name, roles):
    """The output tree with the report's echo of the input paths taken out."""
    files = dict(files)
    report = json.loads(files.pop(report_name))
    for role in roles:
        del report["config"][role]
    return files, report


class TestSharedScoreFiles:
    """eval-pad and eval-vuln parse a file named by two roles once."""

    PAD_ROWS = [
        (PresentationLabel.BONA_FIDE, 0.9), (PresentationLabel.ATTACK, 0.2), (PresentationLabel.BONA_FIDE, 0.4),
        (PresentationLabel.ATTACK, 0.4), (PresentationLabel.BONA_FIDE, 0.7), (PresentationLabel.ATTACK, 0.6),
    ]

    def vuln_files(self, tmp_path):
        from padeval import TrialLabel

        mixed = mixed_scores_text(
            [(TrialLabel.MATED, 3.0), (TrialLabel.ATTACK_MATED, 2.0), (TrialLabel.MATED, 2.5),
             (TrialLabel.ATTACK_MATED, 0.5), (TrialLabel.MATED, 1.0)],
            Polarity.HIGHER_IS_MATCH,
        )
        nonmated = scores_csv(tmp_path, "nonmated.csv", [0.0, 0.5, 1.5], label=TrialLabel.NONMATED, prefix="n")
        return mixed, nonmated

    def test_eval_pad_parses_a_shared_file_once(self, tmp_path, capsys, monkeypatch):
        text = mixed_scores_text(self.PAD_ROWS, Polarity.HIGHER_IS_BONA_FIDE)
        shared = write_file(tmp_path / "mixed.csv", text)
        copies = [write_file(tmp_path / name, text) for name in ("bona.csv", "atk.csv")]
        calls = counting_parse_scores(monkeypatch)
        once = run_and_capture(["eval-pad", "--bonafide", shared, "--attack", shared], tmp_path / "once", capsys)
        assert len(calls) == 1
        twice = run_and_capture(
            ["eval-pad", "--bonafide", copies[0], "--attack", copies[1]], tmp_path / "twice", capsys
        )
        assert len(calls) == 3
        assert once[:3] == twice[:3] == (0, once[1], "")
        assert once[1].splitlines()[-1] == "bona fide: 3, attacks: 3"
        roles = ("bonafide", "attack")
        assert without_config_paths(once[3], "pad_report.json", roles) == without_config_paths(
            twice[3], "pad_report.json", roles
        )
        assert set(once[3]) == {"pad_report.json", "det.csv", "det.svg"}

    def test_eval_vuln_parses_a_shared_file_once(self, tmp_path, capsys, monkeypatch):
        mixed, nonmated = self.vuln_files(tmp_path)
        shared = write_file(tmp_path / "mixed.csv", mixed)
        copies = [write_file(tmp_path / name, mixed) for name in ("mated.csv", "attack.csv")]
        calls = counting_parse_scores(monkeypatch)
        once = run_and_capture(
            ["eval-vuln", "--mated", shared, "--nonmated", nonmated, "--attack", shared], tmp_path / "once", capsys
        )
        assert len(calls) == 2
        twice = run_and_capture(
            ["eval-vuln", "--mated", copies[0], "--nonmated", nonmated, "--attack", copies[1]],
            tmp_path / "twice",
            capsys,
        )
        assert len(calls) == 5
        assert once[:3] == twice[:3] == (0, once[1], "")
        assert once[1].splitlines()[-1] == "mated: 3, non-mated: 3, attack-mated: 2"
        roles = ("mated", "attack")
        assert without_config_paths(once[3], "vuln_report.json", roles) == without_config_paths(
            twice[3], "vuln_report.json", roles
        )

    @pytest.mark.parametrize("fault", ["r000,bonafide,x\n", "r000,bonafide,1.0\nr000,attack,2.0\n", ""])
    def test_a_faulty_shared_file_fails_as_when_read_twice(self, tmp_path, capsys, fault):
        text = "sample_id,label,score\n" + fault
        shared = write_file(tmp_path / "bad.csv", text)
        with pytest.raises(PadevalError) as parsed:
            parse_scores(text.encode(), Polarity.HIGHER_IS_BONA_FIDE)
        expected = f"error: {shared}: {parsed.value}\n"
        assert run_and_capture(["eval-pad", "--bonafide", shared, "--attack", shared], tmp_path / "p", capsys)[
            :3
        ] == (2, "", expected)
        nonmated = scores_csv(tmp_path, "nonmated.csv", [0.0], prefix="n")
        assert run_and_capture(
            ["eval-vuln", "--mated", shared, "--nonmated", nonmated, "--attack", shared], tmp_path / "v", capsys
        )[:3] == (2, "", expected)

    def test_a_shared_file_without_the_first_role_fails_before_the_next_file_is_read(self, tmp_path, capsys):
        from padeval import TrialLabel

        shared = scores_csv(tmp_path, "attack_only.csv", [1.0, 2.0], label=TrialLabel.ATTACK_MATED, prefix="x")
        missing = str(tmp_path / "missing.csv")
        code, stdout, stderr, _ = run_and_capture(
            ["eval-vuln", "--mated", shared, "--nonmated", missing, "--attack", shared], tmp_path / "v", capsys
        )
        assert (code, stdout, stderr) == (2, "", "error: score set holds no records\n")


class TestDeterminism:
    def test_eval_pad_outputs_are_byte_identical_across_runs(self, tmp_path, capsys):
        bona = scores_csv(tmp_path, "bona.csv", [3.0, 4.0, 5.0], label=PresentationLabel.BONA_FIDE, prefix="b")
        attack = scores_csv(tmp_path, "atk.csv", [1.0, 2.0], label=PresentationLabel.ATTACK, prefix="a")
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert run(["eval-pad", "--bonafide", bona, "--attack", attack,
                        "--output-dir", str(out)]) == 0
            outputs.append({
                f.name: (out / f.name).read_bytes() for f in out.iterdir()
            })
        assert outputs[0] == outputs[1]
        assert set(outputs[0]) == {"pad_report.json", "det.csv", "det.svg"}


def test_main_exits_with_run_code(monkeypatch, capsys):
    import padeval.cli as cli

    monkeypatch.setattr("sys.argv", ["padeval", "no-such-command"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1
