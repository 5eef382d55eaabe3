"""End-to-end CLI behavior: exit codes, file outputs, stdout contracts."""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from padeval import (
    DepthKind,
    DetAxes,
    OcsvmConfig,
    OcsvmModel,
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
from padeval import cli, ingest
from padeval.cli import _build_parser, run
from padeval.core import LABEL_BY_NAME
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
    write_model,
    write_scores,
)
from test_scripts import load_script

GOLDEN_HELP = os.path.join(os.path.dirname(__file__), "golden", "help")
HELP_TARGETS = load_script("update_help_goldens").HELP_TARGETS


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


def parsers(parser, path=()):
    """``(argv path, parser)`` of ``parser`` and of every sub-parser under it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parsers(sub, (*path, name))


def options(parser):
    """The options ``parser`` declares, ``-h`` left out."""
    return [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]


class TestHelpGoldens:
    @pytest.mark.parametrize("name", sorted(HELP_TARGETS))
    def test_help_matches_golden(self, name, capsys):
        assert run(HELP_TARGETS[name]) == 0
        got = capsys.readouterr().out
        with open(os.path.join(GOLDEN_HELP, f"{name}.txt"), encoding="utf-8") as fh:
            assert got == fh.read()

    def test_every_parser_has_a_golden_and_every_golden_a_parser(self):
        paths = {path for path, _ in parsers(_build_parser())}
        assert sorted(tuple(argv[:-1]) for argv in HELP_TARGETS.values()) == sorted(paths)
        assert sorted(name.removesuffix(".txt") for name in os.listdir(GOLDEN_HELP)) == sorted(HELP_TARGETS)


# each parser as the argv around an option added to it: before, after
_PARSER_ARGV = {
    "dv-score": (["dv-score", "--depth", "d.pgm", "--landmarks", "l.csv"], []),
    "dv-batch": (["dv-batch", "--manifest", "m.csv", "--out", "s.csv"], []),
    "ocsvm-train": (["ocsvm-train", "--features", "f.csv", "--model", "m.json"], []),
    "ocsvm-score": (["ocsvm-score", "--model", "m.json", "--features", "f.csv", "--out", "s.csv",
                     "--label", "attack"], []),
    "fuse": (["fuse", "--a", "a.csv", "--b", "b.csv", "--out", "s.csv"], []),
    "eval-pad": (["eval-pad", "--bonafide", "b.csv", "--attack", "a.csv"], []),
    "eval-vuln": (["eval-vuln", "--mated", "m.csv", "--nonmated", "n.csv", "--attack", "a.csv"], []),
    "synth-gen": (["synth-gen"], ["depth", "--kind", "curved-face", "--width", "8", "--height", "8"]),
    "synth-gen depth": (["synth-gen", "depth", "--kind", "curved-face", "--width", "8", "--height", "8"], []),
    "synth-gen features": (["synth-gen", "features", "--n-bonafide", "2", "--n-attack", "2"], []),
}
_SHARED = {"--seed": "1", "--output-dir": "out", "--format": "json"}
# the parsers that read each shared option; no other parser declares it
_READERS = {
    "--seed": {"synth-gen depth", "synth-gen features"},
    "--output-dir": {"eval-pad", "eval-vuln", "synth-gen depth", "synth-gen features"},
    "--format": {"eval-pad", "eval-vuln"},
}


class TestSharedOptions:
    """--seed, --output-dir and --format exist only where their handler reads them."""

    def test_declared_options(self):
        assert sum(len(options(p)) for _, p in parsers(_build_parser())) == 51

    @pytest.mark.parametrize(
        "name, option",
        [(name, option) for option, readers in _READERS.items() for name in _PARSER_ARGV if name not in readers],
    )
    def test_option_a_parser_does_not_read_is_refused(self, name, option, tmp_path, monkeypatch, capsys):
        before, after = _PARSER_ARGV[name]
        monkeypatch.chdir(tmp_path)
        assert run([*before, f"{option}={_SHARED[option]}", *after]) == 1
        assert capsys.readouterr().err == f"padeval: unrecognized arguments: {option}={_SHARED[option]}\n"
        assert os.listdir(tmp_path) == []

    def test_synth_gen_options_before_the_generator_are_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["synth-gen", "--seed", "7", "--output-dir", "D", "depth", "--kind", "curved-face"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("padeval synth-gen: argument what: invalid choice: '7'") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("option", sorted(_READERS))
    def test_each_reader_declares_the_option(self, option):
        declared = {" ".join(path) for path, p in parsers(_build_parser()) if option in p._option_string_actions}
        assert declared == _READERS[option]


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

    @pytest.mark.parametrize("what, spec", [("depth", SynthDepthSpec), ("features", SynthFeatureSpec)])
    def test_each_spec_field_is_an_option_with_the_spec_default(self, what, spec):
        # the subcommand builds its spec from the options of the fields' names
        declared = {action.dest: action for action in options(dict(parsers(_build_parser()))["synth-gen", what])}
        for field in dataclasses.fields(spec):
            action = declared[field.name]
            if field.default is dataclasses.MISSING:
                assert action.required
            else:
                assert (action.default, type(action.default)) == (field.default, type(field.default))

    @pytest.mark.parametrize("size", [["--width", "1" + "0" * 400], ["--width", "200000", "--height", "200000"]])
    def test_enormous_depth_map_is_a_data_error(self, size, tmp_path, capsys):
        # these ended in an OverflowError and a 298 GiB allocation
        out = tmp_path / "gen"
        assert run(["synth-gen", "depth", "--kind", "wrinkled-shirt", *size, "--output-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: maps larger than 4194304 pixels (width x height) are refused\n")
        assert not out.exists()

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

    def test_dv_score_over_long_pgm_width_is_a_data_error(self, tmp_path, capsys):
        bad = write_file(tmp_path / "big.pgm", b"P5\n" + b"1" * 5000 + b" 2\n65535\n" + bytes(8))
        _, _, _, marks_path = make_capture(tmp_path)
        assert run(["dv-score", "--depth", bad, "--landmarks", marks_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "bad PGM width of 5000 digits" in captured.err

    def test_dv_score_pgm_that_ends_at_the_maxval_is_a_data_error(self, tmp_path, capsys):
        bad = write_file(tmp_path / "short.pgm", b"P5 1 1 65535")
        _, _, _, marks_path = make_capture(tmp_path)
        assert run(["dv-score", "--depth", bad, "--landmarks", marks_path]) == 2
        assert capsys.readouterr().err == f"error: {bad}: PGM header ends early\n"

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
        assert dict(zip(scored.sample_ids, scored.values.tolist())) == expected
        assert scored.labels == (PresentationLabel.ATTACK, PresentationLabel.BONA_FIDE)

    def test_dv_batch_scores_equal_the_checking_constructor(self, tmp_path, monkeypatch):
        entries, ids, labels, values = [], [], [], []
        for k, kind in enumerate([DepthKind.CURVED_FACE, DepthKind.PLANAR_SHIRT, DepthKind.CURVED_FACE]):
            depth, marks, depth_path, marks_path = make_capture(tmp_path, kind=kind, seed=k)
            label = ("bonafide", "attack", "mated")[k]
            entries.append(f"id {k},{os.path.basename(depth_path)},{os.path.basename(marks_path)},{label}")
            ids.append(f"id {k}")
            labels.append(LABEL_BY_NAME[label])
            values.append(dv_score(depth, marks).value)
        manifest = write_file(
            tmp_path / "manifest.csv", "sample_id,depth,landmarks,label\n" + "\n".join(entries) + "\n"
        )
        written = []
        monkeypatch.setattr(ingest, "_scores_blocks", lambda score_set: written.append(score_set) or [])
        assert run(["dv-batch", "--manifest", manifest, "--out", str(tmp_path / "scores.csv")]) == 0
        (got,) = written
        expected = ScoreSet(sample_ids=ids, labels=labels, values=values, polarity=Polarity.HIGHER_IS_BONA_FIDE)
        assert got.sample_ids == expected.sample_ids
        assert got.label_codes.dtype == expected.label_codes.dtype
        assert got.label_codes.tolist() == expected.label_codes.tolist()
        assert got.values.dtype == expected.values.dtype
        assert got.values.view(np.uint64).tolist() == expected.values.view(np.uint64).tolist()
        assert got.polarity is expected.polarity
        assert not got.values.flags.writeable and not got.label_codes.flags.writeable

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

    def test_dv_batch_refuses_nul_in_a_path(self, tmp_path, capsys):
        manifest = write_file(
            tmp_path / "manifest.csv",
            "sample_id,depth,landmarks,label\ns1,d/de\x00pth.pgm,d/landmarks.csv,bonafide\n",
        )
        assert run(["dv-batch", "--manifest", manifest, "--out", str(tmp_path / "scores.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {manifest}: line 2: depth and landmarks paths must not hold NUL\n"
        assert captured.out == "" and not (tmp_path / "scores.csv").exists()


_SCORES_BLOCKS = ingest._scores_blocks


def sigint_handler(manifest_dir, min_valid, row):
    """A stand-in for ``cli._dv_row`` that reports how its process handles Ctrl-C."""
    return signal.getsignal(signal.SIGINT)


class TestDvBatchPool:
    """dv-batch scored by a pool of two forked workers against the same
    manifest scored in one process: the same score bits, output bytes,
    stderr and exit code, the same first error, and no process left over."""

    ROWS = 3 * cli._CHUNK_ROWS + 5

    def manifest(self, tmp_path, faults=()):
        """A manifest of ``ROWS`` rows over four captures of two kinds; ``faults``
        maps a row number to the depth and landmarks files it names instead."""
        captures = [make_capture(tmp_path, kind=kind, seed=k)[2:] for k, kind in
                    enumerate([DepthKind.CURVED_FACE, DepthKind.PLANAR_SHIRT] * 2)]
        lines = []
        for k in range(self.ROWS):
            depth, marks = dict(faults).get(k, captures[k % len(captures)])
            label = "bonafide" if k % 2 == 0 else "attack"
            lines.append(f"r{k:03d},{os.path.basename(depth)},{os.path.basename(marks)},{label}\n")
        return write_file(tmp_path / "manifest.csv", "sample_id,depth,landmarks,label\n" + "".join(lines))

    def dv_batch(self, monkeypatch, capsys, manifest, workers):
        """Exit code, stdout, stderr, output bytes (None when absent) and the score
        bits of each set written, of one run with ``workers`` processes."""
        monkeypatch.setattr(cli, "_workers", lambda n_rows: workers)
        written = []
        monkeypatch.setattr(ingest, "_scores_blocks", lambda s: written.append(s) or _SCORES_BLOCKS(s))
        out = os.path.join(os.path.dirname(manifest), "scores.csv")
        code = run(["dv-batch", "--manifest", manifest, "--out", out])
        captured = capsys.readouterr()
        assert multiprocessing.active_children() == []
        data = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        bits = [s.values.view(np.uint64).tolist() for s in written]
        return code, captured.out, captured.err, data, bits

    def assert_pool_matches(self, monkeypatch, capsys, manifest):
        """The run in one process and the run with two workers agree; the first is returned."""
        one = self.dv_batch(monkeypatch, capsys, manifest, 1)
        assert self.dv_batch(monkeypatch, capsys, manifest, 2) == one
        return one

    def test_scores_and_bytes_match(self, tmp_path, monkeypatch, capsys):
        manifest = self.manifest(tmp_path)
        code, stdout, stderr, data, (bits,) = self.assert_pool_matches(monkeypatch, capsys, manifest)
        assert (code, stdout, stderr) == (0, "", "")
        scored = parse_scores(data, Polarity.HIGHER_IS_BONA_FIDE)
        assert scored.sample_ids == tuple(f"r{k:03d}" for k in range(self.ROWS))
        assert len(set(bits)) == 4  # four captures, in the order of the in-process run

    def faulty_files(self, tmp_path):
        """A missing depth map, a landmarks file with a bad cell, and a capture
        with too few valid landmarks, each as (depth, landmarks) paths."""
        _, marks, depth_path, marks_path = make_capture(tmp_path, seed=9)
        text = write_landmarks(marks)
        bad_marks = write_file(tmp_path / "bad.csv", text.replace("\n1,", "\n1,x", 1))
        _, _, few_depth, few_marks = make_capture(tmp_path, seed=10, invalid_fraction=0.99)
        return {
            "missing depth": (str(tmp_path / "absent.pgm"), marks_path),
            "bad landmarks": (depth_path, bad_marks),
            "too few valid": (few_depth, few_marks),
        }

    @pytest.mark.parametrize("fault", ["missing depth", "bad landmarks", "too few valid"])
    def test_failure_matches(self, fault, tmp_path, monkeypatch, capsys):
        files = self.faulty_files(tmp_path)
        row = cli._CHUNK_ROWS + 3  # in the second chunk
        manifest = self.manifest(tmp_path, {row: files[fault]})
        code, stdout, stderr, data, bits = self.assert_pool_matches(monkeypatch, capsys, manifest)
        assert (code, stdout, data, bits) == (2, "", None, [])
        expected = {
            "missing depth": f"error: [Errno 2] No such file or directory: {files['missing depth'][0]!r}\n",
            "bad landmarks": f"error: {files['bad landmarks'][1]}: line 3: bad x 'x",
            "too few valid": f"error: sample 'r{row:03d}': only ",
        }[fault]
        assert stderr.startswith(expected) and stderr.count("\n") == 1

    def test_first_failing_row_in_manifest_order_is_reported(self, tmp_path, monkeypatch, capsys):
        files = self.faulty_files(tmp_path)
        # the later row is in the third chunk, which a second worker may finish first
        early, late = cli._CHUNK_ROWS + cli._CHUNK_ROWS - 1, 2 * cli._CHUNK_ROWS
        manifest = self.manifest(tmp_path, {early: files["too few valid"], late: files["missing depth"]})
        code, _, stderr, _, _ = self.assert_pool_matches(monkeypatch, capsys, manifest)
        assert code == 2 and stderr.startswith(f"error: sample 'r{early:03d}': only ")

    def test_workers_leave_ctrl_c_to_the_parent(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_workers", lambda n_rows: 2)
        monkeypatch.setattr(cli, "_dv_row", sigint_handler)
        handlers = []
        monkeypatch.setattr(cli, "_scores_until_error", lambda results: handlers.extend(results) or [0.0] * self.ROWS)
        assert run(["dv-batch", "--manifest", self.manifest(tmp_path), "--out", str(tmp_path / "scores.csv")]) == 0
        assert handlers == [signal.SIG_IGN] * self.ROWS
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

    def test_workers_follow_the_affinity_mask_and_the_chunks(self):
        cpus = len(os.sched_getaffinity(0))
        for n_rows in (0, 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1, 10**6):
            assert cli._workers(n_rows) == min(cpus, -(-n_rows // cli._CHUNK_ROWS))


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
        assert scored.values.tolist() == [decision_value(model, row) for row in probe_values]
        assert scored.labels == (PresentationLabel.ATTACK,) * len(probe_values)

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

    def test_train_accepts_nu_one_over_n(self, tmp_path, capsys):
        # (1/49) * 49 rounds to 0.9999999999999999, below 1
        x = np.random.default_rng(49).normal(3.0, 1.0, (49, 4))
        train = features_csv(tmp_path, "train.csv", x.tolist())
        model_path = tmp_path / "m.json"
        assert run(["ocsvm-train", "--features", train, "--model", str(model_path), "--nu", repr(1 / 49)]) == 0
        assert capsys.readouterr().out.startswith("trained on 49 x 4: iterations ")
        assert parse_model(model_path.read_bytes()).nu == 1 / 49

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
        assert scored.labels == (PresentationLabel.BONA_FIDE, PresentationLabel.ATTACK)

    def test_overflowing_score_is_data_error_without_a_warning(self, tmp_path, capsys):
        model = OcsvmModel(w=np.array([1e300, 0.0]), rho=0.0, nu=0.5, dual_alphas=np.array([1.0]))
        model_path = write_file(tmp_path / "model.json", write_model(model))
        probes = features_csv(tmp_path, "probes.csv", [[1e10, 0.0]], ids=("a",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning from numpy would raise
            code = run(["ocsvm-score", "--model", model_path, "--features", probes,
                        "--out", str(tmp_path / "o.csv"), "--label", "attack"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: non-finite score inf for sample_id 'a'\n"

    @pytest.mark.parametrize("standardize", [[], ["--no-standardize"]], ids=["standardized", "raw"])
    def test_overflowing_training_rows_are_a_data_error_without_a_warning(self, tmp_path, capsys, standardize):
        rows = np.random.default_rng(0).normal(0.0, 1.0, (50, 3)) * 1e155
        train = features_csv(tmp_path, "train.csv", rows.tolist())
        model_path = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning from numpy would raise
            code = run(["ocsvm-train", "--features", train, "--model", str(model_path), *standardize])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: training rows are too large: sums and products of them overflow the float range\n"
        )
        assert not model_path.exists()

    def test_training_rows_past_the_norm_limit_are_a_data_error(self, tmp_path, capsys):
        # each squared row norm is 4.8e307, past the limit of 2.2e307
        train = features_csv(tmp_path, "train.csv", np.full((3, 3), 4e153).tolist())
        model_path = tmp_path / "m.json"
        code = run(["ocsvm-train", "--features", train, "--model", str(model_path), "--no-standardize"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: training rows are too large: sums and products of them overflow the float range\n"
        )
        assert not model_path.exists()

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
        from conftest import make_score_set, score_columns

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
        assert score_columns(got) == score_columns(expected)

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

    def test_missing_positive_rows_is_data_error(self, tmp_path, capsys):
        attack_only = scores_csv(tmp_path, "atk.csv", [0.0, 1.0], label=PresentationLabel.ATTACK)
        assert run(["eval-pad", "--bonafide", attack_only, "--attack", attack_only,
                    "--output-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr()[:2] == ("", f"error: {attack_only}: no bonafide rows\n")
        bona_only = scores_csv(tmp_path, "bona.csv", [3.0, 4.0], prefix="b")
        assert run(["eval-pad", "--bonafide", bona_only, "--attack", bona_only,
                    "--output-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr()[:2] == ("", f"error: {bona_only}: no attack rows\n")

    def test_both_files_are_read_before_a_role_is_selected(self, tmp_path, capsys):
        attack_only = scores_csv(tmp_path, "atk.csv", [0.0], label=PresentationLabel.ATTACK)
        missing = str(tmp_path / "missing.csv")
        argv = ["eval-pad", "--bonafide", attack_only, "--attack", missing, "--output-dir", str(tmp_path / "r")]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


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

    @pytest.mark.parametrize("extra, code", [((), 2), (("--format", "json"), 0)])
    def test_largest_finite_mated_score_fails_after_the_report(self, tmp_path, capsys, extra, code):
        # only the DET sweep pools the mated scores, and it runs after the JSON is written
        path = write_file(
            tmp_path / "scores.csv",
            "sample_id,label,score\nm,mated,1.7976931348623157e308\nn,nonmated,0.0\nx,attackmated,0.5\n",
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(["eval-vuln", "--mated", path, "--nonmated", path, "--attack", path,
                       "--output-dir", str(out), *extra])
        captured = capsys.readouterr()
        assert got == code
        assert sorted(os.listdir(out)) == ["vuln_report.json"]
        if code == 0:
            summary = parse_report((out / "vuln_report.json").read_bytes())["summary"]
            assert (captured.out.splitlines(), captured.err) == (summary, "")
        else:
            assert captured.out == ""
            assert captured.err == (
                "error: score 1.7976931348623157e+308 is the largest finite float: "
                "no finite threshold lies above it\n"
            )


@pytest.mark.parametrize("formats", [(), ("json",), ("csv",), ("svg",), ("json", "svg")])
def test_one_pooled_sweep_per_evaluation(tmp_path, monkeypatch, formats):
    """eval-pad pools its classes once, for the D-EER and the DET curve alike, and
    never calls det_curve; eval-vuln calls det_curve once, and pools mated and
    non-mated scores, only for a DET export."""
    from padeval import TrialLabel, cli, metrics

    calls, det_calls = [], []
    real, real_det_curve = metrics._pooled, cli.det_curve

    def pooled(pos, neg):
        calls.append(pos.size + neg.size)
        return real(pos, neg)

    def det_curve(*args):
        det_calls.append(args[2])
        return real_det_curve(*args)

    monkeypatch.setattr(metrics, "_pooled", pooled)
    monkeypatch.setattr(cli, "det_curve", det_curve)
    extra = [arg for fmt in formats for arg in ("--format", fmt)]
    bona = scores_csv(tmp_path, "bona.csv", [3.0, 4.0, 5.0], prefix="b")
    attack = scores_csv(tmp_path, "atk.csv", [0.0, 4.0], label=PresentationLabel.ATTACK, prefix="a")
    assert run(["eval-pad", "--bonafide", bona, "--attack", attack,
                "--output-dir", str(tmp_path / "pad"), *extra]) == 0
    assert (calls, det_calls) == ([5], [])
    mated = scores_csv(tmp_path, "m.csv", [2.0, 3.0], label=TrialLabel.MATED, prefix="m")
    nonmated = scores_csv(tmp_path, "n.csv", [0.0, 1.0, 2.0], label=TrialLabel.NONMATED, prefix="n")
    attack = scores_csv(tmp_path, "x.csv", [2.5], label=TrialLabel.ATTACK_MATED, prefix="x")
    assert run(["eval-vuln", "--mated", mated, "--nonmated", nonmated, "--attack", attack,
                "--output-dir", str(tmp_path / "vuln"), *extra]) == 0
    exports = formats != ("json",)
    assert calls == [5] + [5] * exports
    assert det_calls == [DetAxes.FMR_FNMR] * exports


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
        assert (code, stdout, stderr) == (2, "", f"error: {shared}: no mated rows\n")


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


def test_module_runs_as_a_script():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "padeval.cli", "--help"], capture_output=True, text=True, env=env, timeout=120
    )
    with open(os.path.join(GOLDEN_HELP, "padeval.txt"), encoding="utf-8") as fh:
        assert (result.returncode, result.stdout, result.stderr) == (0, fh.read(), "")


def test_main_exits_with_run_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["padeval", "no-such-command"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1


def traced_peak(argv) -> int:
    """The tracemalloc peak of one in-process CLI run, which must succeed."""
    tracemalloc.start()
    try:
        assert run(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def assert_linear(ratios, bounds):
    """Each op's two ratios, at n and at 4n, fall and stay under its bound."""
    for name, bound in bounds.items():
        small, large = ratios[name]
        assert large <= small < bound, (name, ratios[name])


def test_evaluation_and_fusion_memory_is_linear_in_the_input(tmp_path, monkeypatch, capsys):
    """eval-pad, eval-vuln and fuse hold their data and one block at a time:
    the peak beyond the input bytes, per input byte, stays under a constant
    and does not grow from n to 4n rows.

    The blocks are made small so that they are small beside these inputs, as
    the real ones are beside inputs of a million rows.  Here the block writers
    read about 4.5 (eval-pad) and 2.8 (fuse) at n and less at 4n; writers that
    joined each output whole from columns of cells read about 10.7 and 4.3.
    eval-vuln reads about 4.3 at n.  Ids that hold a comma are quoted, so
    their file goes through csv.reader, which reads it as one block: eval-pad
    on it reads about 9.4 at n.
    """
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 14)
    monkeypatch.setattr(ingest, "_BLOCK_CELLS", 3 * 256)
    from padeval import TrialLabel

    ratios = {"eval-pad": [], "eval-vuln": [], "fuse": [], "eval-pad quoted": []}
    for n in (5000, 20000):
        rng = np.random.default_rng(n)
        ids = [f"s{k:06d}" for k in range(2 * n)]
        labels = [PresentationLabel.BONA_FIDE, PresentationLabel.ATTACK] * n
        perm = rng.permutation(2 * n)
        a = write_file(tmp_path / "a.csv", write_scores(ScoreSet(
            sample_ids=ids, labels=labels, values=rng.normal(size=2 * n), polarity=Polarity.HIGHER_IS_BONA_FIDE)))
        b = write_file(tmp_path / "b.csv", write_scores(ScoreSet(
            sample_ids=[ids[k] for k in perm], labels=[labels[k] for k in perm], values=rng.normal(size=2 * n),
            polarity=Polarity.HIGHER_IS_BONA_FIDE)))
        trials = write_file(tmp_path / "trials.csv", write_scores(ScoreSet(
            sample_ids=ids, labels=[list(TrialLabel)[k % 3] for k in range(2 * n)],
            values=rng.normal(size=2 * n), polarity=Polarity.HIGHER_IS_MATCH)))
        quoted = write_file(tmp_path / "quoted.csv", write_scores(ScoreSet(
            sample_ids=[f"s,{k:06d}" for k in range(2 * n)], labels=labels, values=rng.normal(size=2 * n),
            polarity=Polarity.HIGHER_IS_BONA_FIDE)))
        size_a, size_b, size_quoted, size_trials = map(os.path.getsize, (a, b, quoted, trials))
        # a file named by several roles is read once
        peak = traced_peak(["eval-pad", "--bonafide", a, "--attack", a, "--output-dir", str(tmp_path / "pad")])
        ratios["eval-pad"].append((peak - size_a) / size_a)
        peak = traced_peak(["eval-pad", "--bonafide", quoted, "--attack", quoted,
                            "--output-dir", str(tmp_path / "pad-quoted")])
        ratios["eval-pad quoted"].append((peak - size_quoted) / size_quoted)
        peak = traced_peak(["eval-vuln", "--mated", trials, "--nonmated", trials, "--attack", trials,
                            "--output-dir", str(tmp_path / "vuln")])
        ratios["eval-vuln"].append((peak - size_trials) / size_trials)
        peak = traced_peak(["fuse", "--a", a, "--b", b, "--out", str(tmp_path / "fused.csv")])
        ratios["fuse"].append((peak - size_a - size_b) / (size_a + size_b))
        capsys.readouterr()
    assert_linear(ratios, {"eval-pad": 7.0, "eval-vuln": 5.0, "fuse": 3.5, "eval-pad quoted": 11.0})


def test_detector_memory_is_linear_in_the_input(tmp_path, monkeypatch, capsys):
    """ocsvm-train, ocsvm-score and dv-batch hold their data and one block at
    a time: the peak beyond the input bytes that they hold, per input byte,
    stays under a constant and does not grow from n to 4n rows.

    A features CSV is parsed from its bytes one block at a time, so
    ocsvm-train and ocsvm-score read about 1.6 and 1.7 at n; a parse that
    kept a whole decoded copy of the input beside its bytes read about 2.4
    and 2.5.  dv-batch holds its manifest and one capture at a time, so its
    ratio is per byte of the manifest.  It is measured in one process, where
    each capture is parsed, and with a pool of two workers, where only the
    parent's share is traced; both read about 15.7 at n and 14.9 at 4n, since
    the peak comes as the scores are written.  A pool's rows are pickled from
    their fields: pickling a row's ``__dict__`` kept it made, which read 18.0
    and 17.3.
    """
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 14)
    monkeypatch.setattr(ingest, "_BLOCK_CELLS", 3 * 256)
    from padeval import FeatureMatrix, LandmarkSet

    depth, _ = gen_depth(SynthDepthSpec(kind=DepthKind.CURVED_FACE, width=32, height=32, seed=1))
    write_file(tmp_path / "d.pgm", write_depth_pgm(depth))
    grid = [[12.0 + k % 4, 12.0 + k // 4] for k in range(12)]
    write_file(tmp_path / "l.csv", write_landmarks(LandmarkSet(points=np.array(grid))))
    ratios = {"ocsvm-train": [], "ocsvm-score": [], "dv-batch": [], "dv-batch pool": []}
    # the first pool of a process imports the modules that start its workers
    # (about 0.15 MB traced): a fixed cost, so it is paid before the measurements
    monkeypatch.setattr(cli, "_workers", lambda n_rows: 2)
    manifest = write_file(tmp_path / "m.csv", "sample_id,depth,landmarks,label\ns,d.pgm,l.csv,attack\n")
    assert run(["dv-batch", "--manifest", manifest, "--out", str(tmp_path / "dv.csv")]) == 0
    for n in (2500, 10000):
        rng = np.random.default_rng(n)
        ids = [f"s{k:06d}" for k in range(n)]
        features = write_file(tmp_path / "f.csv", write_features(
            FeatureMatrix(sample_ids=ids, values=rng.normal(size=(n, 8)))))
        manifest = write_file(tmp_path / "m.csv", "sample_id,depth,landmarks,label\n" + "".join(
            f"{sample_id},d.pgm,l.csv,attack\n" for sample_id in ids))
        size, size_manifest = os.path.getsize(features), os.path.getsize(manifest)
        model = str(tmp_path / "model.json")
        peak = traced_peak(["ocsvm-train", "--features", features, "--model", model])
        ratios["ocsvm-train"].append((peak - size) / size)
        peak = traced_peak(["ocsvm-score", "--model", model, "--features", features, "--label", "bonafide",
                            "--out", str(tmp_path / "scores.csv")])
        ratios["ocsvm-score"].append((peak - size) / size)
        for name, workers in (("dv-batch", 1), ("dv-batch pool", 2)):
            monkeypatch.setattr(cli, "_workers", lambda n_rows: workers)
            peak = traced_peak(["dv-batch", "--manifest", manifest, "--out", str(tmp_path / "dv.csv")])
            ratios[name].append((peak - size_manifest) / size_manifest)
        capsys.readouterr()
    assert_linear(ratios, {"ocsvm-train": 2.0, "ocsvm-score": 2.0, "dv-batch": 16.0, "dv-batch pool": 16.0})
