"""padeval benchmark: one workload, measured in one fresh process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload eval_scale --seed 1 --seconds 30 --trace 0

The run imports padeval from ``src/``, writes the workload's inputs from
``--seed`` alone (several times, to time set-up by its median), then runs
the workload's CLI command sequence -- a *pass* -- through
``padeval.cli.run`` until ``--seconds`` of passes have been measured (at
least two).  After every pass, outside the timed region, each op's exit
code and outputs are checked (see ``checks.py``) and its output bytes are
compared with the first pass.  A deliberately altered report must fail the
same checks (negative control).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics of
``spans.py``, per-command times from the untraced passes and the tracing
overhead; the spans are written to ``perfbench/_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it record the environment and the sample counts.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys

import spans  # stdlib only; padeval is imported in main() once src/ is on the path

# One BLAS thread: the run starts no threads of its own, and on a small
# shared machine a second BLAS thread adds noise and no speed at these sizes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
MIN_PASSES = 2  # an eval_scale pass takes 9-15 s on a 2-vCPU Xeon; a third makes its runs too long
# Per-command times are reported by the traced run: most commands run on some
# workloads only, and on a shared machine a short op's run-to-run spread can
# exceed the largest bound an end-to-end metric may have.
COMMANDS = ("eval-pad", "eval-vuln", "fuse", "ocsvm-train", "ocsvm-score", "dv-batch")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s"}
    for name in spans.SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({f"{layer}.self_s": "s" for layer in spans.LAYERS})
    units.update(spans.COUNTER_UNITS)
    units.update(
        {
            "ingest.bytes_read": "bytes",
            "ingest.bytes_written": "bytes",
            "core.revalidation_ratio": "ratio",
            **{f"cmd.{name}_s": "s" for name in COMMANDS},
            "error_rate": "ratio",
            "trace.pass_s": "s",
            "trace.untraced_pass_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["eval_scale", "ocsvm_fit", "detector_pipeline"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="measured pass time per run")
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--scale", default="full", choices=["full", "tiny"], help="tiny: self-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Ledger:
    """Attempted and failed ops, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {reason}")


class Bench:
    def __init__(self, args, cli, workloads, checks, tracer) -> None:
        self.args = args
        self.cli = cli
        self.workloads = workloads
        self.checks = checks
        self.tracer = tracer
        self.ledger = Ledger()
        self.setup_times: list[float] = []
        self.setup_deterministic = True
        self.passes: list[dict] = []
        self.reference: list[tuple] = []  # per op: (stdout, {path: digest}) of the first pass
        self.undeclared: dict[str, str | None] = {}
        self.negative_control_caught = False
        self.bytes_read = 0
        self.bytes_written = 0
        self.peak_rss_mb = 0.0

    # -- set-up -----------------------------------------------------------

    def setup(self):
        digests = None
        for rep in range(SETUP_REPEATS):
            shutil.rmtree("inputs", ignore_errors=True)
            gc.collect()
            os.sync()
            if self.tracer:
                self.tracer.install(-1 - rep)
            t = time.perf_counter()
            workload = self.workloads.setup(self.args.workload, self.args.seed, self.args.scale)
            self.setup_times.append(time.perf_counter() - t)
            if self.tracer:
                self.tracer.uninstall()
            current = [_digest(p) for p in workload.inputs]
            self.setup_deterministic &= digests is None or current == digests
            digests = current
        return workload

    # -- passes -----------------------------------------------------------

    def run_pass(self, workload, traced: bool) -> float:
        shutil.rmtree("out", ignore_errors=True)
        os.makedirs("out")
        gc.collect()
        os.sync()  # write back the files made so far, so that no pass pays for it
        if traced:
            self.tracer.install(len(self.passes))
        results = []
        start = time.perf_counter()
        for op in workload.ops:
            buf = io.StringIO()
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.run(op.argv)
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                code = f"raised {exc!r}"
            results.append((time.perf_counter() - t, code, buf.getvalue()))
        wall = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        problems = self.compare(workload, results)
        self.passes.append({"traced": traced, "wall": wall, "ops": [r[0] for r in results], "problems": problems})
        if len(self.passes) == 1:
            os.rename("out", "first_out")  # kept for the content checks after the last pass
        return wall

    def compare(self, workload, results) -> list[str | None]:
        """Per op: exit code and output bytes against the first pass (None when both agree).

        Files in ``out/`` that no op declares are compared too; a difference
        there fails every op of the pass, since it names no single culprit.
        """
        paths = [os.path.join(d, f) for d, _, files in os.walk("out") for f in files]
        tree = {path: _digest(path) for path in paths}
        declared = {path for op in workload.ops for path in op.writes}
        undeclared = {path: digest for path, digest in tree.items() if path not in declared}
        first = not self.reference
        if first:
            self.undeclared = undeclared
        problems = []
        for k, (op, (_, code, stdout)) in enumerate(zip(workload.ops, results)):
            outputs = {path: tree.get(path) for path in op.writes}
            if first:
                self.reference.append((stdout, outputs))
                self.bytes_read += sum(_size(p) for p in op.reads)
                self.bytes_written += sum(_size(p) for p in op.writes)
            if code != 0:
                problems.append(f"exit code {code}")
            elif (stdout, outputs) != self.reference[k]:
                problems.append("output differs from the first pass")
            elif undeclared != self.undeclared:
                problems.append("undeclared output files differ from the first pass")
            else:
                problems.append(None)
        return problems

    def check_outputs(self, workload) -> None:
        """Content checks on the first pass; every pass with the same bytes shares the verdict."""
        shutil.rmtree("out", ignore_errors=True)
        os.rename("first_out", "out")
        content = []
        for k, op in enumerate(workload.ops):
            error = self.passes[0]["problems"][k]
            if error is None:
                try:
                    op.check(self.reference[k][0])
                except Exception as exc:  # a malformed output may break a check in any way
                    error = f"{type(exc).__name__}: {exc}"
            content.append(error)
        for n, record in enumerate(self.passes):
            for k, op in enumerate(workload.ops):
                self.ledger.record(f"pass {n} {op.name}", record["problems"][k] or content[k])
        self.negative_control(workload)

    def negative_control(self, workload) -> None:
        """An eval-pad report with one altered metric must fail the same check."""
        k = max(i for i, op in enumerate(workload.ops) if op.name == "eval-pad")
        path = next(p for p in workload.ops[k].writes if p.endswith("pad_report.json"))
        try:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            report["metrics"]["d_eer"] = report["metrics"]["d_eer"] + 0.01
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
        except (OSError, ValueError, KeyError, TypeError):
            return  # no report to alter: the control stays uncaught and the run incorrect
        try:
            workload.ops[k].check(self.reference[k][0])
        except self.checks.CheckError:
            self.negative_control_caught = True

    def run(self) -> None:
        workload = self.setup()
        self.workload = workload
        measured = 0.0
        while len(self.passes) < MIN_PASSES + (1 if self.tracer else 0) or measured < self.args.seconds:
            # traced runs alternate, starting traced so the first fit's memory growth is seen
            traced = self.tracer is not None and len(self.passes) % 2 == 0
            measured += self.run_pass(workload, traced)
        # before the checks, so that their reference computations cannot set it
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.check_outputs(workload)

    # -- metrics ----------------------------------------------------------

    def _op_times(self, passes, name: str) -> list[float]:
        ks = [k for k, op in enumerate(self.workload.ops) if op.name == name]
        return [sum(p["ops"][k] for k in ks) for p in passes] if ks else []

    def end_to_end(self, startup_s: float) -> dict[str, float]:
        pass_s = _median([p["wall"] for p in self.passes])
        return {
            "setup_s": startup_s + _median(self.setup_times),
            "pass_s": pass_s,
            "rows_per_s": self.workload.rows_per_pass / pass_s,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self, import_s: float) -> dict[str, float]:
        per_pass = self.tracer.per_pass()
        traced = [k for k, p in enumerate(self.passes) if p["traced"]]
        setups = [k for k in per_pass if k < 0]
        untraced = [p for p in self.passes if not p["traced"]]
        out = {}
        for name in per_layer_units():
            source = setups if name.startswith("synth.") else traced
            values = [per_pass[k][name] for k in source if name in per_pass[k]]
            if values:
                out[name] = _median(values)
        rows = out["ingest.parse_scores.rows"]
        out.update(
            {
                "cli.import_s": import_s,
                "ocsvm.fit.rss_growth_mb": max(per_pass[k]["ocsvm.fit.rss_growth_mb"] for k in traced),
                "ingest.bytes_read": self.bytes_read,
                "ingest.bytes_written": self.bytes_written,
                "core.revalidation_ratio": out["core.validate_score_set.records"] / rows if rows else 0.0,
                **{f"cmd.{name}_s": _median(self._op_times(untraced, name)) for name in COMMANDS},
                "error_rate": self.ledger.failed / self.ledger.attempted,
                "trace.pass_s": _median([self.passes[k]["wall"] for k in traced]),
                "trace.untraced_pass_s": _median([p["wall"] for p in untraced]),
            }
        )
        out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
        return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "padeval", "__init__.py")):
        print(f"error: no padeval sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import padeval.cli as cli

    import_s = time.perf_counter() - t
    startup_s = time.perf_counter() - _T0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: padeval was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import numpy

    import checks
    import workloads

    load_before = os.getloadavg()[0]
    tracer = spans.Tracer() if args.trace else None
    bench = Bench(args, cli, workloads, checks, tracer)
    work = os.path.join(BENCH_DIR, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        bench.run()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(work))

    if args.trace:
        values, units = bench.per_layer(import_s), per_layer_units()
    else:
        values, units = bench.end_to_end(startup_s), END_TO_END_UNITS
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "input_sizes": bench.workload.input_sizes,
        "rows_per_pass": bench.workload.rows_per_pass,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "load1_before": load_before,
        "load1_after": os.getloadavg()[0],
    }
    if tracer:
        out_dir = os.path.join(BENCH_DIR, "_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"), env)
    n_traced = sum(p["traced"] for p in bench.passes)
    samples = {
        "passes": len(bench.passes),
        "traced_passes": n_traced,
        "untraced_passes": len(bench.passes) - n_traced,
        "setup_repeats": SETUP_REPEATS,
        "pass_wall_s": [p["wall"] for p in bench.passes],
        "setup_s": bench.setup_times,
    }
    correct = bench.ledger.failed == 0 and bench.negative_control_caught and bench.setup_deterministic
    for reason in bench.ledger.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    if not bench.negative_control_caught:
        print("failed: the negative control (an altered report) passed the checks", file=sys.stderr)
    if not bench.setup_deterministic:
        print("failed: set-up wrote different inputs for the same seed", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    print("negative_control " + ("caught" if bench.negative_control_caught else "MISSED"))
    result = {
        "correct": correct,
        "attempted": bench.ledger.attempted,
        "failed": bench.ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
