"""End-to-end CLI behavior: exit codes, file outputs, stdout contracts."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import multiprocessing
import os
import pathlib
import re
import runpy
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from padeval import (
    DepthKind,
    DepthMap,
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
    parse_features,
    parse_labels,
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

    @pytest.mark.parametrize("block_cells", [2, 3, 5, 768])
    def test_feature_tables_match_the_library_in_every_block_size(self, block_cells, tmp_path, monkeypatch):
        # 900 rows span several blocks of each size; the library tables are joined as one block
        feats, labels = gen_features(SynthFeatureSpec(n_bonafide=500, n_attack=400, d=2, seed=5))
        tables = write_features(feats), write_labels(dict(zip(feats.sample_ids, labels)))
        monkeypatch.setattr(ingest, "_BLOCK_CELLS", block_cells)
        out = tmp_path / "gen"
        assert run(["synth-gen", "features", "--n-bonafide", "500", "--n-attack", "400",
                    "--d", "2", "--seed", "5", "--output-dir", str(out)]) == 0
        assert ((out / "features.csv").read_bytes(), (out / "labels.csv").read_bytes()) == tuple(
            table.encode() for table in tables
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

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the address space size from /proc")
    def test_enormous_feature_draws_are_refused_before_they_allocate(self, tmp_path):
        # the 400-digit sizes ended in a ValueError traceback, and 3e9 x 16 values asked
        # for 358 GiB; each runs in a child whose address space has 512 MB to spare, and
        # just over the cap, a draw of two rows would trace about 900 MB (about 208 bytes
        # per value) and one of d = 1 about 710 MB (about 170)
        cap = 2**22
        sizes = [
            ["--n-bonafide", "1" + "0" * 400, "--n-attack", "1"],
            ["--n-bonafide", "2", "--n-attack", "2", "--d", "1" + "0" * 400],
            ["--n-bonafide", "3000000000", "--n-attack", "1", "--d", "16"],
            ["--n-bonafide", str(cap), "--n-attack", "1", "--d", "1"],
            ["--n-bonafide", "1", "--n-attack", "1", "--d", str(cap // 2 + 1)],
        ]
        outcomes = run_child(f"""
import contextlib, io, json, resource, tracemalloc
from padeval.cli import run
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:")) * 1024
resource.setrlimit(resource.RLIMIT_AS, (size + (512 << 20),) * 2)
for argv in {sizes!r}:
    err = io.StringIO()
    tracemalloc.start()
    with contextlib.redirect_stderr(err):
        code = run(["synth-gen", "features", *argv, "--output-dir", {str(tmp_path / "gen")!r}])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps([code, err.getvalue(), peak]))
""")
        message = f"error: draws of more than {cap} values ((n_bonafide + n_attack) x d) are refused\n"
        for code, stderr, peak in map(json.loads, outcomes.splitlines()):
            assert (code, stderr) == (2, message) and peak < 1 << 20
        assert len(outcomes.splitlines()) == len(sizes) and not (tmp_path / "gen").exists()

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


def ignores_ctrl_c(manifest_dir, min_valid, sample_id, depth_path, landmarks_path):
    """A stand-in for ``cli._dv_row`` that scores 1.0 where its process ignores Ctrl-C."""
    return float(signal.getsignal(signal.SIGINT) is signal.SIG_IGN)


def first_chunk_slow(manifest_dir, min_valid, sample_id, depth_path, landmarks_path):
    """A stand-in for ``cli._dv_row`` that scores row ``k`` as ``k``, slowly in the first chunk."""
    k = int(sample_id[1:])
    if k < cli._CHUNK_ROWS:
        time.sleep(0.002)
    return float(k)


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

    def error_line(self, files, fault, row):
        """The start of the one stderr line that reports ``fault`` at manifest row ``row``."""
        return {
            "missing depth": f"error: [Errno 2] No such file or directory: {files['missing depth'][0]!r}\n",
            "bad landmarks": f"error: {files['bad landmarks'][1]}: line 3: bad x 'x",
            "too few valid": f"error: sample 'r{row:03d}': only ",
        }[fault]

    @pytest.mark.parametrize("fault", ["missing depth", "bad landmarks", "too few valid"])
    def test_failure_matches(self, fault, tmp_path, monkeypatch, capsys):
        files = self.faulty_files(tmp_path)
        row = cli._CHUNK_ROWS + 3  # in the second chunk
        manifest = self.manifest(tmp_path, {row: files[fault]})
        code, stdout, stderr, data, bits = self.assert_pool_matches(monkeypatch, capsys, manifest)
        assert (code, stdout, data, bits) == (2, "", None, [])
        assert stderr.startswith(self.error_line(files, fault, row)) and stderr.count("\n") == 1

    @pytest.mark.parametrize("early, late, first, second", [
        # the later row is in the third chunk, which a second worker may finish first
        (2 * cli._CHUNK_ROWS - 1, 2 * cli._CHUNK_ROWS, "too few valid", "missing depth"),
        # both rows are in the second chunk, whose worker stops at the earlier
        (cli._CHUNK_ROWS + 3, cli._CHUNK_ROWS + 9, "too few valid", "missing depth"),
        (cli._CHUNK_ROWS + 3, cli._CHUNK_ROWS + 9, "missing depth", "too few valid"),
    ])
    def test_first_failing_row_in_manifest_order_is_reported(self, early, late, first, second,
                                                             tmp_path, monkeypatch, capsys):
        files = self.faulty_files(tmp_path)
        manifest = self.manifest(tmp_path, {early: files[first], late: files[second]})
        code, _, stderr, _, _ = self.assert_pool_matches(monkeypatch, capsys, manifest)
        assert code == 2 and stderr.startswith(self.error_line(files, first, early)) and stderr.count("\n") == 1

    def test_the_pool_module_is_imported_on_first_use(self, tmp_path, monkeypatch, capsys):
        manifest = self.manifest(tmp_path)
        _, _, _, one, _ = self.dv_batch(monkeypatch, capsys, manifest, 1)
        out = str(tmp_path / "pool.csv")
        printed = run_child(f"""
import sys
from padeval import cli
print("concurrent.futures.process" in sys.modules)
cli._workers = lambda n_rows: 2
print(cli.run(["dv-batch", "--manifest", {manifest!r}, "--out", {out!r}]))
""")
        assert printed == "False\n0\n"
        assert (tmp_path / "pool.csv").read_bytes() == one

    def test_scores_keep_manifest_order_when_a_later_chunk_ends_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_workers", lambda n_rows: 2)
        monkeypatch.setattr(cli, "_dv_row", first_chunk_slow)
        out = tmp_path / "scores.csv"
        assert run(["dv-batch", "--manifest", self.manifest(tmp_path), "--out", str(out)]) == 0
        assert parse_scores(out.read_bytes(), Polarity.HIGHER_IS_BONA_FIDE).values.tolist() == list(range(self.ROWS))

    def test_workers_leave_ctrl_c_to_the_parent(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_workers", lambda n_rows: 2)
        monkeypatch.setattr(cli, "_dv_row", ignores_ctrl_c)
        out = tmp_path / "scores.csv"
        assert run(["dv-batch", "--manifest", self.manifest(tmp_path), "--out", str(out)]) == 0
        assert parse_scores(out.read_bytes(), Polarity.HIGHER_IS_BONA_FIDE).values.tolist() == [1.0] * self.ROWS
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

    def test_failing_pools_never_hang(self, tmp_path):
        # multiprocessing.Pool hung about once in 400 such runs, and a hang here
        # outlasts the timeout; 300 runs, each of two chunks of two rows whose
        # second fails, take about 6 s in all
        runs = 300
        depth, marks = gen_depth(SynthDepthSpec(kind=DepthKind.PLANAR_SHIRT, width=32, height=32))
        write_file(tmp_path / "d.pgm", write_depth_pgm(depth))
        write_file(tmp_path / "l.csv", write_landmarks(marks))
        manifest = write_file(tmp_path / "m.csv", "sample_id,depth,landmarks,label\n" + "".join(
            f"r{k},{'absent' if k == 3 else 'd'}.pgm,l.csv,attack\n" for k in range(4)))
        error = f"error: [Errno 2] No such file or directory: {str(tmp_path / 'absent.pgm')!r}\n"
        done = run_child(f"""
import contextlib, io, multiprocessing
from padeval import cli
cli._CHUNK_ROWS = 2
cli._workers = lambda n_rows: 2
for _ in range({runs}):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(["dv-batch", "--manifest", {manifest!r}, "--out", {str(tmp_path / "s.csv")!r}])
    assert (code, err.getvalue()) == (2, {error!r}), (code, err.getvalue())
    assert multiprocessing.active_children() == []
print("done")
""", timeout=60)
        assert done == "done\n" and not (tmp_path / "s.csv").exists()

    def test_workers_follow_the_affinity_mask_and_the_chunks(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        for n_rows in (0, 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1, 10**6):
            assert cli._workers(n_rows) == min(cpus, -(-n_rows // cli._CHUNK_ROWS))
        # one, where workers cannot be forked or the mask cannot be read
        with monkeypatch.context() as patch:
            patch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
            assert cli._workers(10**6) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._workers(10**6) == 1


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
    @pytest.mark.parametrize("extra", [(), ("--format", "json")])
    def test_largest_finite_score_is_data_error(self, tmp_path, capsys, rows, extra):
        # the report pools both classes, so it fails before any file is written
        path = write_file(tmp_path / "scores.csv", "sample_id,label,score\n" + rows)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning from numpy would raise
            code = run(["eval-pad", "--bonafide", path, "--attack", path, "--output-dir", str(out), *extra])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert not out.exists()
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
def test_det_sweep_runs_only_for_a_det_export(tmp_path, monkeypatch, formats):
    """Each evaluation calls the public functions: eval-pad pools its classes once in
    evaluate_pad, and eval-pad and eval-vuln call det_curve, which pools its two
    classes once more, only for det.csv or det.svg."""
    from padeval import TrialLabel, cli, metrics

    calls, pad_calls, det_calls = [], [], []
    real, real_evaluate_pad, real_det_curve = metrics._pooled, cli.evaluate_pad, cli.det_curve

    def pooled(pos, neg):
        calls.append(pos.size + neg.size)
        return real(pos, neg)

    def evaluate_pad(*args):
        before = len(calls)
        report = real_evaluate_pad(*args)
        pad_calls.append(calls[before:])  # the pools made inside it
        return report

    def det_curve(*args):
        det_calls.append(args[2])
        return real_det_curve(*args)

    monkeypatch.setattr(metrics, "_pooled", pooled)
    monkeypatch.setattr(cli, "evaluate_pad", evaluate_pad)
    monkeypatch.setattr(cli, "det_curve", det_curve)
    extra = [arg for fmt in formats for arg in ("--format", fmt)]
    exports = formats != ("json",)
    bona = scores_csv(tmp_path, "bona.csv", [3.0, 4.0, 5.0], prefix="b")
    attack = scores_csv(tmp_path, "atk.csv", [0.0, 4.0], label=PresentationLabel.ATTACK, prefix="a")
    assert run(["eval-pad", "--bonafide", bona, "--attack", attack,
                "--output-dir", str(tmp_path / "pad"), *extra]) == 0
    assert (pad_calls, calls, det_calls) == ([[5]], [5] + [5] * exports, [DetAxes.APCER_BPCER] * exports)
    calls.clear(), det_calls.clear()
    mated = scores_csv(tmp_path, "m.csv", [2.0, 3.0], label=TrialLabel.MATED, prefix="m")
    nonmated = scores_csv(tmp_path, "n.csv", [0.0, 1.0, 2.0], label=TrialLabel.NONMATED, prefix="n")
    attack = scores_csv(tmp_path, "x.csv", [2.5], label=TrialLabel.ATTACK_MATED, prefix="x")
    assert run(["eval-vuln", "--mated", mated, "--nonmated", nonmated, "--attack", attack,
                "--output-dir", str(tmp_path / "vuln"), *extra]) == 0
    assert (calls, det_calls) == ([5] * exports, [DetAxes.FMR_FNMR] * exports)


# ---------------------------------------------------------------------------
# the input contract of every subcommand

#: In-range extremes of a float option or score cell, besides ordinary values.
EXTREME_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 2.0**1022, -(2.0**1022),
    sys.float_info.max, -sys.float_info.max, math.nan, math.inf, -math.inf,
)
huge_integers = st.integers(10**399, 10**400 - 1).map(str)


def float_texts(ordinary):
    """The repr of an extreme or an ordinary float, as a command line or a CSV cell holds it."""
    return st.one_of(st.sampled_from(EXTREME_FLOATS), ordinary).map(repr)


ordinary_values = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3, allow_nan=False))
score_cells = float_texts(ordinary_values)
role_cells = st.lists(score_cells, min_size=1, max_size=4)
rates = float_texts(st.floats(0.0, 1.0))
format_lists = st.lists(st.sampled_from(["csv", "json", "svg"]), max_size=3)


@st.composite
def option(draw, name, values):
    """``--name=value`` or ``--name value``; the second reads a leading ``-`` as an option."""
    value = draw(values)
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


def scores_table(path, rows):
    """Write ``(label, cell)`` rows as a scores CSV with ids r0, r1, ..."""
    lines = [f"r{k},{label},{cell}\n" for k, (label, cell) in enumerate(rows)]
    return write_file(path, "sample_id,label,score\n" + "".join(lines))


big_integers = st.one_of(huge_integers, st.sampled_from([str(2**63), str(-(2**63))]))
extreme_texts = st.one_of(st.sampled_from(EXTREME_FLOATS).map(repr), big_integers)
label_names = st.sampled_from(sorted(LABEL_BY_NAME))


def mostly(ordinary, extremes):
    """An ordinary value three draws in four, else an extreme."""
    return st.integers(0, 3).flatmap(lambda k: ordinary if k else extremes)


def int_texts(lo, hi):
    """An int in [lo, hi], or an extreme: a small, negative or enormous int, or a float."""
    return mostly(st.integers(lo, hi).map(str), st.one_of(st.integers(-2, 1).map(str), extreme_texts))


def float_texts_in(lo, hi):
    """A float in [lo, hi], or an extreme."""
    return mostly(st.floats(lo, hi).map(repr), extreme_texts)


def some_options(*specs):
    """Each ``(name, values)`` option of ``specs`` once or not at all, as command-line words."""
    drawn = [st.one_of(st.just([]), option(name, values)) for name, values in specs]
    return st.tuples(*drawn).map(lambda words: [word for each in words for word in each])


@st.composite
def cell_rows(draw, ordinary, min_rows, max_rows, width):
    """Rows of ``width`` ordinary cells, in one draw in four with one or two of them swapped for an extreme."""
    n = draw(st.integers(min_rows, max_rows))
    rows = draw(st.lists(st.lists(ordinary, min_size=width, max_size=width), min_size=n, max_size=n))
    for _ in range(draw(mostly(st.just(0), st.integers(1, 2)))):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, width - 1))] = draw(extreme_texts)
    return rows


@st.composite
def pixel_grids(draw):
    """16 x 16 depth pixels with relief near 1 m, some of them 0 (no measurement) or 65535."""
    pixels = [draw(st.integers(900, 1000)) + (k * 37) % 50 for k in range(256)]
    for at, value in draw(st.lists(st.tuples(st.integers(0, 255), st.sampled_from([0, 65535])), max_size=64)):
        pixels[at] = value
    return pixels


landmark_rows = cell_rows(st.floats(-1.0, 17.0).map(repr), 1, 20, 2)
feature_rows = st.integers(1, 3).flatmap(lambda d: cell_rows(ordinary_values.map(repr), 1, 6, d))
min_valid = ("--min-valid", int_texts(2, 12))


def capture_files(tmp, name, pixels, rows):
    """Write a 16 x 16 depth map and its ``(x, y)`` landmark rows; their two paths."""
    depth = write_file(tmp / f"{name}.pgm", write_depth_pgm(DepthMap(values=np.array(pixels).reshape(16, 16))))
    lines = [f"{k},{x},{y}\n" for k, (x, y) in enumerate(rows)]
    return depth, write_file(tmp / f"{name}.csv", "index,x,y\n" + "".join(lines))


def features_table(path, rows):
    """Write cell rows as a features CSV with ids r0, r1, ..."""
    lines = [",".join(["sample_id"] + [f"f{k}" for k in range(len(rows[0]))])]
    lines += [",".join([f"r{k}", *cells]) for k, cells in enumerate(rows)]
    return write_file(path, "\n".join(lines) + "\n")


def check_scores_file(path, ids):
    """A scores CSV, re-read, that holds finite scores of ``ids`` in order."""
    scores = parse_scores(path.read_bytes(), Polarity.HIGHER_IS_BONA_FIDE)
    assert scores.sample_ids == tuple(ids) and np.isfinite(scores.values).all()


@functools.lru_cache(maxsize=None)
def contract_model(d, standardize):
    """The model JSON of ``d`` features fitted on ordinary rows."""
    rows = np.random.default_rng(d).normal(size=(8, d))
    return write_model(fit(rows, OcsvmConfig(standardize=standardize)))


def run_captured(argv):
    """``run(argv)``'s exit code, stdout and stderr, with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def check_streams(command, code, out, err):
    """An exit code of the contract; a failure is one stderr line and nothing on stdout."""
    assert code in (0, 1, 2, 3)
    event(f"exit {code}")  # pytest --hypothesis-show-statistics shows the mix
    if code == 0:
        assert err == ""
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(("error: ", f"padeval {command}: "))


def assert_finite_cells(cells):
    assert cells and all(math.isfinite(float(cell)) for cell in cells)


def check_evaluation_outputs(directory, report_name, formats):
    """The files of a successful evaluation: exactly those of ``formats``, each re-read."""
    names = {"json": report_name, "csv": "det.csv", "svg": "det.svg"}
    assert sorted(os.listdir(directory)) == sorted(names[fmt] for fmt in set(formats))
    for fmt in set(formats):
        text = (directory / names[fmt]).read_text(encoding="utf-8")
        if fmt == "json":
            parse_report(text)
        elif fmt == "csv":
            header, *rows = text.splitlines()
            assert_finite_cells([cell for row in rows for cell in row.split(",")])
        else:
            (points,) = re.findall(r'<polyline points="([^"]*)"', text)
            assert_finite_cells([cell for pair in points.split(" ") for cell in pair.split(",")])


def check_evaluation(tmp, command, argv, report_name, formats):
    """Run ``command`` with every format and with the ``--format`` subset, check both,
    and compare each file the subset wrote with the same file of the full run."""
    full, subset = tmp / "all", tmp / "subset"
    code, out, err = run_captured([command, *argv, "--output-dir", str(full)])
    check_streams(command, code, out, err)
    if code == 0:
        check_evaluation_outputs(full, report_name, ["csv", "json", "svg"])
    extra = [arg for fmt in formats for arg in ("--format", fmt)]
    sub_code, sub_out, sub_err = run_captured([command, *argv, "--output-dir", str(subset), *extra])
    check_streams(command, sub_code, sub_out, sub_err)
    if sub_code == 0:
        check_evaluation_outputs(subset, report_name, formats or ["csv", "json", "svg"])
        if code == 0:
            assert sub_out == out
    for name in os.listdir(subset) if subset.exists() else []:
        assert (subset / name).read_bytes() == (full / name).read_bytes()


class TestInputContract:
    """In-range extremes of every option and input cell of every subcommand, through
    ``cli.run``: an exit code of 0-3, one stderr line on failure, no warning, finite
    re-readable outputs, and a ``--format`` subset that writes the full run's bytes."""

    @given(role_cells, role_cells, st.booleans(), format_lists)
    @settings(max_examples=200)
    def test_eval_pad(self, bona_cells, attack_cells, one_file, formats):
        with tempfile.TemporaryDirectory() as name:
            tmp = pathlib.Path(name)
            bona_rows = [("bonafide", cell) for cell in bona_cells]
            attack_rows = [("attack", cell) for cell in attack_cells]
            if one_file:
                bona = attack = scores_table(tmp / "scores.csv", attack_rows + bona_rows)
            else:
                bona = scores_table(tmp / "bona.csv", bona_rows)
                attack = scores_table(tmp / "attack.csv", attack_rows)
            check_evaluation(tmp, "eval-pad", ["--bonafide", bona, "--attack", attack], "pad_report.json", formats)

    @given(
        role_cells, role_cells, role_cells,
        st.lists(option("--fmr", st.one_of(rates, huge_integers)), max_size=3), format_lists,
    )
    @settings(max_examples=200)
    def test_eval_vuln(self, mated_cells, nonmated_cells, attack_cells, fmr_options, formats):
        with tempfile.TemporaryDirectory() as name:
            tmp = pathlib.Path(name)
            argv = []
            for role, label, cells in (
                ("--mated", "mated", mated_cells),
                ("--nonmated", "nonmated", nonmated_cells),
                ("--attack", "attackmated", attack_cells),
            ):
                argv += [role, scores_table(tmp / f"{label}.csv", [(label, cell) for cell in cells])]
            argv += [arg for fmr in fmr_options for arg in fmr]
            check_evaluation(tmp, "eval-vuln", argv, "vuln_report.json", formats)

    @given(
        st.lists(st.tuples(st.sampled_from(["bonafide", "attack"]), score_cells, score_cells), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=200)
    def test_fuse(self, rows, data):
        wa = data.draw(st.one_of(rates, huge_integers))
        # the complement of wa, when it is a float, makes weights that sum to 1
        wb = data.draw(st.one_of(rates, st.just(repr(1.0 - float(wa)))))
        weights = data.draw(option("--wa", st.just(wa))) + data.draw(option("--wb", st.just(wb)))
        with tempfile.TemporaryDirectory() as name:
            tmp = pathlib.Path(name)
            a = scores_table(tmp / "a.csv", [(label, cell) for label, cell, _ in rows])
            b = scores_table(tmp / "b.csv", [(label, cell) for label, _, cell in rows])
            out = tmp / "fused.csv"
            code, stdout, err = run_captured(["fuse", "--a", a, "--b", b, "--out", str(out), *weights])
            check_streams("fuse", code, stdout, err)
            if code == 0:
                fused = parse_scores(out.read_bytes(), Polarity.HIGHER_IS_BONA_FIDE)
                assert fused.sample_ids == tuple(f"r{k}" for k in range(len(rows)))
                assert np.isfinite(fused.values).all()


    @given(pixel_grids(), landmark_rows, some_options(min_valid))
    @settings(max_examples=100)
    def test_dv_score(self, pixels, rows, options):
        with tempfile.TemporaryDirectory() as name:
            depth, landmarks = capture_files(pathlib.Path(name), "c", pixels, rows)
            code, out, err = run_captured(["dv-score", "--depth", depth, "--landmarks", landmarks, *options])
        check_streams("dv-score", code, out, err)
        if code == 0:
            score, n_valid = out.split("\t")
            assert out == f"{float(score)!r}\t{int(n_valid)}\n" and math.isfinite(float(score))

    @given(
        st.lists(st.tuples(pixel_grids(), landmark_rows), min_size=1, max_size=2),
        st.lists(st.tuples(st.integers(0, 1), label_names), min_size=1, max_size=4),
        some_options(min_valid),
    )
    @settings(max_examples=50)
    def test_dv_batch(self, captures, rows, options):
        # at most 4 rows make one chunk, scored in this process
        with tempfile.TemporaryDirectory() as name:
            tmp = pathlib.Path(name)
            paths = [capture_files(tmp, f"c{k}", *capture) for k, capture in enumerate(captures)]
            lines = [f"r{k},{','.join(paths[c % len(paths)])},{label}\n" for k, (c, label) in enumerate(rows)]
            manifest = write_file(tmp / "m.csv", "sample_id,depth,landmarks,label\n" + "".join(lines))
            argv = ["dv-batch", "--manifest", manifest, "--out", str(tmp / "dv.csv"), *options]
            code, out, err = run_captured(argv)
            check_streams("dv-batch", code, out, err)
            if code == 0:
                check_scores_file(tmp / "dv.csv", [f"r{k}" for k in range(len(rows))])

    @given(
        feature_rows,
        some_options(
            ("--nu", float_texts_in(0.0, 1.0)),
            ("--tol", float_texts_in(1e-12, 1.0)),
            ("--max-iter", int_texts(1, 1000)),
        ),
        st.booleans(),
    )
    @settings(max_examples=100)
    def test_ocsvm_train(self, rows, options, no_standardize):
        with tempfile.TemporaryDirectory() as name:
            tmp = pathlib.Path(name)
            features = features_table(tmp / "f.csv", rows)
            argv = ["ocsvm-train", "--features", features, "--model", str(tmp / "m.json"), *options]
            code, out, err = run_captured(argv + ["--no-standardize"] * no_standardize)
            check_streams("ocsvm-train", code, out, err)
            if code == 0:
                assert out.startswith(f"trained on {len(rows)} x {len(rows[0])}: ") and out.count("\n") == 1
                model = parse_model((tmp / "m.json").read_bytes())
                arrays = [model.w, model.dual_alphas, model.diagnostics.objective_trace]
                arrays += [] if no_standardize else [model.mean, model.scale]
                assert all(np.isfinite(a).all() for a in arrays) and math.isfinite(model.rho)

    @given(feature_rows, st.booleans(), st.data())
    @settings(max_examples=100)
    def test_ocsvm_score(self, rows, standardize, data):
        # a model mostly of the rows' width; --label, or --labels naming the rows' ids,
        # or some other count of them
        d = data.draw(mostly(st.just(len(rows[0])), st.integers(1, 3)))
        with tempfile.TemporaryDirectory() as name:
            tmp = pathlib.Path(name)
            model = write_file(tmp / "m.json", contract_model(d, standardize))
            argv = ["ocsvm-score", "--model", model, "--features", features_table(tmp / "f.csv", rows),
                    "--out", str(tmp / "s.csv")]
            if data.draw(st.booleans()):
                argv += ["--label", data.draw(label_names)]
            else:
                n = data.draw(mostly(st.just(len(rows)), st.integers(0, 6)))
                lines = [f"r{k},{data.draw(label_names)}\n" for k in range(n)]
                argv += ["--labels", write_file(tmp / "l.csv", "sample_id,label\n" + "".join(lines))]
            code, out, err = run_captured(argv)
            check_streams("ocsvm-score", code, out, err)
            if code == 0:
                check_scores_file(tmp / "s.csv", [f"r{k}" for k in range(len(rows))])

    @given(
        st.sampled_from([kind.value for kind in DepthKind]),
        some_options(
            ("--seed", int_texts(0, 2**64 - 1)),
            ("--width", int_texts(8, 40)),
            ("--height", int_texts(8, 40)),
            ("--base-depth-mm", float_texts_in(1.0, 65535.0)),
            ("--curvature-amp-mm", float_texts_in(0.0, 50.0)),
            ("--wrinkle-amp-mm", float_texts_in(0.0, 50.0)),
            ("--wrinkle-wavelength-px", float_texts_in(0.5, 50.0)),
            ("--noise-sigma-mm", float_texts_in(0.0, 5.0)),
            ("--invalid-fraction", float_texts_in(0.0, 0.99)),
        ),
    )
    @settings(max_examples=100)
    def test_synth_gen_depth(self, kind, options):
        with tempfile.TemporaryDirectory() as name:
            out = pathlib.Path(name) / "gen"
            argv = ["synth-gen", "depth", "--kind", kind, *options, "--output-dir", str(out)]
            code, stdout, err = run_captured(argv)
            check_streams("synth-gen depth", code, stdout, err)
            if code == 0:
                assert sorted(os.listdir(out)) == ["depth.pgm", "landmarks.csv"]
                parse_depth_pgm((out / "depth.pgm").read_bytes())
                assert np.isfinite(parse_landmarks((out / "landmarks.csv").read_bytes()).points).all()

    @given(
        option("--n-bonafide", int_texts(1, 24)),
        option("--n-attack", int_texts(1, 24)),
        some_options(
            ("--seed", int_texts(0, 2**64 - 1)),
            ("--d", int_texts(1, 8)),
            ("--separation", float_texts_in(0.0, 10.0)),
            ("--center-norm", float_texts_in(0.0, 100.0)),
        ),
    )
    @settings(max_examples=100)
    def test_synth_gen_features(self, n_bonafide, n_attack, options):
        with tempfile.TemporaryDirectory() as name:
            out = pathlib.Path(name) / "gen"
            argv = ["synth-gen", "features", *n_bonafide, *n_attack, *options, "--output-dir", str(out)]
            code, stdout, err = run_captured(argv)
            check_streams("synth-gen features", code, stdout, err)
            if code == 0:
                assert sorted(os.listdir(out)) == ["features.csv", "labels.csv"]
                features = parse_features((out / "features.csv").read_bytes())
                labels = parse_labels((out / "labels.csv").read_bytes())
                assert list(labels) == list(features.sample_ids) and np.isfinite(features.values).all()


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


def child_env(**variables) -> dict:
    """This process's environment with ``variables`` set and padeval's source on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                **variables)


def run_child(code: str, timeout: float = 120, cwd=None, **variables) -> str:
    """The stdout of ``code`` run by a child Python, which must exit 0 with nothing on stderr."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env(**variables), timeout=timeout, cwd=cwd)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    return result.stdout


SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")

# each op through cli.run in a child, in its working directory; the OpenBLAS
# core, as diff_outputs names it, then each op's exit code, stdout and stderr
_OPS = """
import contextlib, io, json, sys
sys.path.insert(0, {scripts!r})
import diff_outputs
from padeval.cli import run
streams = []
for argv in {ops!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        streams.append([run(argv), out.getvalue(), err.getvalue()])
print(json.dumps([diff_outputs.blas_core(), streams]))
"""


class TestBlasKernels:
    """Byte identity holds for one OpenBLAS kernel: across kernels, ocsvm-train
    may differ in its last bits but still certifies, and the other ops write
    the same bytes."""

    KERNELS = ("Haswell", "Sandybridge")

    def inputs(self, root):
        """A manifest of eight rows over four captures, scores to fuse with
        dv-batch's, and trial scores; the ops of one pipeline over them."""
        from padeval import TrialLabel

        rng = np.random.default_rng(4)
        kinds = ["curved-face", "planar-shirt", "curved-face", "wrinkled-shirt"]
        ids = [f"s{k}" for k in range(8)]
        labels = [PresentationLabel.BONA_FIDE if k % 2 == 0 else PresentationLabel.ATTACK for k in range(8)]
        write_file(root / "manifest.csv", "sample_id,depth,landmarks,label\n" + "".join(
            f"{sample_id},cap{k % 4}/depth.pgm,cap{k % 4}/landmarks.csv,{label.value}\n"
            for k, (sample_id, label) in enumerate(zip(ids, labels))))
        write_file(root / "other.csv", write_scores(ScoreSet(ids, labels, rng.normal(size=8),
                                                             Polarity.HIGHER_IS_BONA_FIDE)))
        trial_labels = [list(TrialLabel)[k % 3] for k in range(30)]
        write_file(root / "trials.csv", write_scores(ScoreSet([f"t{k}" for k in range(30)], trial_labels,
                                                              rng.normal(size=30), Polarity.HIGHER_IS_MATCH)))
        return [
            ["synth-gen", "features", "--n-bonafide", "300", "--n-attack", "100", "--d", "8", "--seed", "5",
             "--output-dir", "feats"],
            ["ocsvm-train", "--features", "feats/features.csv", "--model", "model.json"],
            *(["synth-gen", "depth", "--kind", kind, "--width", "32", "--height", "32", "--seed", str(k),
               "--output-dir", f"cap{k}"] for k, kind in enumerate(kinds)),
            ["dv-batch", "--manifest", "manifest.csv", "--out", "dv.csv"],
            ["fuse", "--a", "dv.csv", "--b", "other.csv", "--out", "fused.csv"],
            ["eval-pad", "--bonafide", "fused.csv", "--attack", "fused.csv", "--output-dir", "pad"],
            ["eval-vuln", "--mated", "trials.csv", "--nonmated", "trials.csv", "--attack", "trials.csv",
             "--output-dir", "vuln"],
        ]

    def test_only_the_solver_depends_on_the_kernel(self, tmp_path):
        for kernel in self.KERNELS:
            probe = subprocess.run([sys.executable, "-c", _OPS.format(scripts=SCRIPTS, ops=[])], capture_output=True,
                                   text=True, timeout=120, env=child_env(OPENBLAS_CORETYPE=kernel))
            if probe.returncode != 0 or probe.stdout != f'["{kernel}", []]\n':
                pytest.skip(f"OPENBLAS_CORETYPE={kernel} is not confirmed here: {probe.stdout.strip()!r}")
        trees = []
        for kernel in self.KERNELS:
            root = tmp_path / kernel
            root.mkdir()
            ops = self.inputs(root)
            core, streams = json.loads(run_child(_OPS.format(scripts=SCRIPTS, ops=ops), cwd=root,
                                                 OPENBLAS_CORETYPE=kernel))
            assert core == kernel and [code for code, _, _ in streams] == [0] * len(ops)
            model = json.loads((root / "model.json").read_text(encoding="utf-8"))
            diag, n = model["diagnostics"], 400
            assert diag["kkt_residual"] <= OcsvmConfig.tol
            assert diag["n_margin_errors"] <= model["nu"] * n <= diag["n_support"]
            del streams[1]  # ocsvm-train prints its diagnostics
            files = {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*")
                     if path.is_file() and path.name != "model.json"}
            trees.append((streams, files))
        assert trees[0] == trees[1]
        assert {"dv.csv", "fused.csv", "feats/features.csv", "pad/det.svg", "vuln/vuln_report.json"} <= set(trees[0][1])


def test_module_runs_as_a_script():
    result = subprocess.run(
        [sys.executable, "-m", "padeval.cli", "--help"], capture_output=True, text=True, env=child_env(), timeout=120
    )
    with open(os.path.join(GOLDEN_HELP, "padeval.txt"), encoding="utf-8") as fh:
        assert (result.returncode, result.stdout, result.stderr) == (0, fh.read(), "")


def test_main_exits_with_run_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["padeval", "no-such-command"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1
    # as ``python -m padeval.cli``, but in this process: a fresh copy of the
    # module runs its ``__main__`` guard
    monkeypatch.delitem(sys.modules, "padeval.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("padeval.cli", run_name="__main__")
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


def test_feature_draw_memory_per_value_is_bounded(tmp_path, monkeypatch, capsys):
    """synth-gen features at d = 1, where each row's id and label cost most,
    writes labels.csv from the drawn columns one block at a time: about 160
    traced bytes per drawn value at 50,000 rows.  Joining the labels table
    whole from a dict of ids and labels read about 190.
    """
    monkeypatch.setattr(ingest, "_BLOCK_CELLS", 3 * 256)

    def draw(n):
        return ["synth-gen", "features", "--n-bonafide", str(n), "--n-attack", str(n), "--d", "1",
                "--output-dir", str(tmp_path)]

    traced_peak(draw(100))  # the first run pays fixed costs
    assert traced_peak(draw(25000)) / 50000 < 180
    assert capsys.readouterr() == ("", "")


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
    parent's share is traced.  The manifest is parsed into its four columns,
    and the path columns are dropped before the scores are written.  In one
    process it reads about 11.2 at n and 10.4 at 4n, the peak of the
    manifest parse.  The pool reads about 11.7 at n, since its map holds
    every chunk's tuples of arguments until the chunk is scored, and 10.5 at
    4n.  A parse into one object per row read about 14.3 at n in both.
    """
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 14)
    monkeypatch.setattr(ingest, "_BLOCK_CELLS", 3 * 256)
    from padeval import FeatureMatrix, LandmarkSet

    depth, _ = gen_depth(SynthDepthSpec(kind=DepthKind.CURVED_FACE, width=32, height=32, seed=1))
    write_file(tmp_path / "d.pgm", write_depth_pgm(depth))
    grid = [[12.0 + k % 4, 12.0 + k // 4] for k in range(12)]
    write_file(tmp_path / "l.csv", write_landmarks(LandmarkSet(points=np.array(grid))))
    ratios = {"ocsvm-train": [], "ocsvm-score": [], "dv-batch": [], "dv-batch pool": []}
    # the first pool of a process imports the modules that start its workers,
    # concurrent.futures.process among them (about 0.8 MB traced): a fixed
    # cost, so it is paid before the measurements
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
    assert_linear(ratios, {"ocsvm-train": 2.0, "ocsvm-score": 2.0, "dv-batch": 13.0, "dv-batch pool": 13.0})
