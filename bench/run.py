#!/usr/bin/env python3
"""qkdpass benchmark: whole-pass workloads driven through the CLI entry point.

Usage, from the repository root:

    python3 bench/run.py --workload night_pass --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36
    python3 bench/run.py --workload all --smoke --seconds 1

Each run is one process and a closed loop: it calls
``qkdpass.cli_app.main([...])`` in-process, one operation at a time, on
inputs generated from --seed, and checks every operation's outputs.
With --trace 0 it reports the end-to-end metrics of untraced
operations; with --trace 1 it alternates untraced and traced
operations and reports per-layer metrics from the traced ones. The
last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A run that prints that line
exits 0, with "correct": false if an output check failed; a run whose
set-up fails exits non-zero and prints no result. bench/README.md maps
each metric to the layer and workload it serves.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
RUN_ROOT = ROOT / ".bench_run"
WORKLOADS = ("night_pass", "day_pass", "pass_planning")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60.0
CHILD_TIMEOUT_S = 600.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "op_wall_s": "s",
    "op_wall_max_s": "s",
    "window_s_per_cpu_s": "s/cpu_s",
    "peak_rss_mb": "MB",
}

_DETECTOR_SITES = ("onboard", "ground", "beacon")
PER_LAYER = {
    "orbit_dynamics.predict_passes.s": "s",
    "orbit_dynamics.sample_pass.s": "s",
    "orbit_dynamics.propagate.calls": "count",
    "orbit_dynamics.propagate.s": "s",
    "orbit_dynamics.passes_found": "count",
    "orbit_dynamics.elevation_at.calls": "count",
    "orbit_dynamics.elevation_at.s": "s",
    "pat_controller.run_pat.s": "s",
    "pat_controller.steps": "count",
    "pat_controller.us_per_step": "us",
    "pat_controller.lock_fraction": "ratio",
    "polarization_correction.frame_offset_profile.s": "s",
    "polarization_correction.run_polarization_correction.s": "s",
    "polarization_correction.updates": "count",
    "photon_source.generate_pair_stream.s": "s",
    "photon_source.pairs": "count",
    "photon_source.us_per_pair": "us",
    "photon_source.bytes_per_pair": "B",
    "channel_link.build_link_profile.s": "s",
    "channel_link.apply_channel.s": "s",
    "channel_link.survivors": "count",
    "channel_link.background": "count",
    "channel_link.survival_ratio": "ratio",
    "quantum_receiver.measure_polarization.s": "s",
    **{f"quantum_receiver.apply_detector.{site}.{what}": unit
       for site in _DETECTOR_SITES
       for what, unit in (("s", "s"), ("events_in", "count"),
                          ("events_out", "count"))},
    "quantum_receiver.beacon_clock_sync.s": "s",
    "quantum_receiver.beacon_clock_sync.matched": "count",
    "quantum_receiver.find_coincidences.s": "s",
    "quantum_receiver.find_coincidences.ns_per_tag": "ns",
    "quantum_receiver.coincidences": "count",
    "bbm92_pipeline.simulate_pass.s": "s",
    "bbm92_pipeline.simulate_pass.self_s": "s",
    "bbm92_pipeline.sift.s": "s",
    "bbm92_pipeline.estimate_qber.s": "s",
    "bbm92_pipeline.sifted_bits": "count",
    "bbm92_pipeline.secret_bits": "count",
    "bbm92_pipeline.us_per_pair": "us",
    "scenario.load_scenario.s": "s",
    "cli_app.main.self_s": "s",
    "ledger.ground_signal_in": "count",
    "ledger.ground_signal_detected": "count",
    "ledger.disclosed": "count",
    **{f"warnings.{category}": "count" for category in
       ("StaleElements", "LowElevation", "LowCounts", "LowSample", "other")},
    "trace.overhead_s": "s",
}

# Exact counts: identical on every traced operation of one seed.
EXACT = [name for name, unit in PER_LAYER.items() if unit == "count"]

# Photon ledger, in pipeline order: (stage, per-layer metric).
LEDGER = (
    ("pairs", "photon_source.pairs"),
    ("channel_survivors", "channel_link.survivors"),
    ("downlink_signal_in", "ledger.ground_signal_in"),
    ("ground_signal_detected", "ledger.ground_signal_detected"),
    ("ground_detected", "quantum_receiver.apply_detector.ground.events_out"),
    ("onboard_detected", "quantum_receiver.apply_detector.onboard.events_out"),
    ("beacon_matched", "quantum_receiver.beacon_clock_sync.matched"),
    ("coincidences", "quantum_receiver.coincidences"),
    ("sifted", "bbm92_pipeline.sifted_bits"),
    ("disclosed", "ledger.disclosed"),
    ("secret", "bbm92_pipeline.secret_bits"),
)

# Spans that run before the photon chain inside simulate_pass.
_PRE_PHOTON_SPANS = (
    "orbit_dynamics.predict_passes", "orbit_dynamics.sample_pass",
    "pat_controller.run_pat", "polarization_correction.frame_offset_profile",
    "polarization_correction.run_polarization_correction",
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    limit = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > limit:
            os.environ[var] = str(limit)


def git_revision() -> str:
    """HEAD of a git checkout at ROOT, read without leaving ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# -- set-up ----------------------------------------------------------------

def setup(workload: str, seed: int, directory: Path, smoke: bool) -> dict:
    """Import the package and write the workload's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import qkdpass
    if not Path(qkdpass.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"qkdpass imported from {qkdpass.__file__}, "
                          f"not from {ROOT / 'src'}")
    import inputs
    from qkdpass import cli_app  # noqa: F401  (the operation's entry point)
    return inputs.write_inputs(workload, seed, directory, smoke)


def measure_setup(args, run_dir: Path, probes: int) -> list[float]:
    """Seconds from process start to ready-to-operate, in fresh processes."""
    times = []
    for k in range(probes):
        cmd = [sys.executable, str(SCRIPT), "--setup-probe",
               str(run_dir / f"probe{k}"), "--workload", args.workload,
               "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
        shutil.rmtree(run_dir / f"probe{k}", ignore_errors=True)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


# -- operations ------------------------------------------------------------

class Workload:
    """Runs one workload's operation and checks its outputs."""

    def __init__(self, name: str, inputs: dict):
        from qkdpass.scenario import load_scenario
        self.name = name
        self.inputs = inputs
        first = load_scenario(inputs["scenarios"][0])
        self.visibility = first.source.visibility
        self.sample_fraction = first.protocol.sample_fraction
        self.reference: str | None = None   # first report.json, byte for byte

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        from qkdpass import cli_app
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli_app.main(argv)
        return code, captured.getvalue()

    def run(self, out: Path) -> dict:
        """One timed operation: wall s, cpu s, window s and failures."""
        out.mkdir(parents=True)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outcome = (self._planning(out) if self.name == "pass_planning"
                       else self._simulate(out))
        except Exception:
            traceback.print_exc()
            outcome = {"failures": ["operation raised"], "window_s": 0.0}
        outcome["wall_s"] = time.perf_counter() - wall0
        outcome["cpu_s"] = time.process_time() - cpu0
        return outcome

    def _simulate(self, out: Path) -> dict:
        code, _ = self._cli(["simulate", "--scenario",
                             self.inputs["scenarios"][0], "--pass", "0",
                             "--out", str(out)])
        if code != 0:
            return {"failures": [f"simulate exited {code}"], "window_s": 0.0}
        return {"failures": [], "window_s": 0.0}

    def _planning(self, out: Path) -> dict:
        stdouts = []
        for k, scenario in enumerate(self.inputs["scenarios"]):
            code, text = self._cli(["predict", "--scenario", scenario,
                                    "--out", str(out / f"predict{k}")])
            if code != 0:
                return {"failures": [f"predict {k} exited {code}"],
                        "window_s": 0.0}
            stdouts.append(text)
        with open(out / "predict0" / "passes.csv", newline="") as handle:
            passes = list(csv.DictReader(handle))
        best = max(passes, key=lambda row: float(row["max_elevation_deg"]))
        code, text = self._cli(["link-budget", "--scenario",
                                self.inputs["scenarios"][0],
                                "--pass", str(int(float(best["index"]))),
                                "--out", str(out / "link")])
        if code != 0:
            return {"failures": [f"link-budget exited {code}"], "window_s": 0.0}
        stdouts.append(text)
        return {"failures": [], "window_s": float(best["duration_s"]),
                "stdouts": stdouts}

    def check(self, out: Path, outcome: dict) -> list[str]:
        """Output checks; fills in the simulated window of a simulate op."""
        import checks
        failures = list(outcome["failures"])
        if failures:
            return failures
        if self.name == "pass_planning":
            stdouts = outcome.pop("stdouts")
            for k, text in enumerate(stdouts[:-1]):
                failures += checks.check_predict(text, out / f"predict{k}")
            return failures + checks.check_link_budget(stdouts[-1], out / "link")
        report, failures = checks.read_report(out)
        if report is None:
            return failures
        outcome["window_s"] = float(report.get("quantum_window_duration_s", 0.0))
        failures += checks.check_report(report, self.visibility,
                                        self.sample_fraction)
        text = (out / "report.json").read_text()
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            failures.append("report.json differs from the first operation's")
        return failures


# -- metrics ---------------------------------------------------------------

def layer_metrics(tracer, op: int) -> dict[str, float]:
    """Per-layer values of one traced operation."""
    own = tracer.self_times()
    totals: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for index, span in enumerate(tracer.spans):
        if span.op != op:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
        self_s[span.name] = self_s.get(span.name, 0.0) + own[index]
    counts = tracer.counts[op]

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    values = {name: float(counts.get(name, 0)) for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith(".s") and name[:-2] in totals:
            values[name] = totals[name[:-2]]
    for name in ("bbm92_pipeline.simulate_pass", "cli_app.main"):
        values[name + ".self_s"] = self_s.get(name, 0.0)
    pairs = values["photon_source.pairs"]
    values["pat_controller.us_per_step"] = ratio(
        values["pat_controller.run_pat.s"], values["pat_controller.steps"], 1e6)
    values["photon_source.us_per_pair"] = ratio(
        values["photon_source.generate_pair_stream.s"], pairs, 1e6)
    values["photon_source.bytes_per_pair"] = ratio(
        counts.get("photon_source.bytes", 0), pairs)
    values["channel_link.survival_ratio"] = ratio(
        values["channel_link.survivors"], pairs)
    values["quantum_receiver.find_coincidences.ns_per_tag"] = ratio(
        values["quantum_receiver.find_coincidences.s"],
        counts.get("quantum_receiver.find_coincidences.tags", 0), 1e9)
    photon_chain_s = values["bbm92_pipeline.simulate_pass.s"] - sum(
        totals.get(name, 0.0) for name in _PRE_PHOTON_SPANS)
    values["bbm92_pipeline.us_per_pair"] = ratio(photon_chain_s, pairs, 1e6)
    return values


def end_to_end_metrics(setup_times, ops) -> dict[str, float]:
    """Medians over warm ops; the tail is the slowest op, the cold one too.

    The first op of a process also pays lazy imports and first-touch page
    faults, which a CLI user pays on every invocation; op_wall_max_s keeps
    it, the medians leave it out.
    """
    warm = ops[1:] or ops
    return {
        "setup_s": statistics.median(setup_times),
        "op_wall_s": statistics.median(op["wall_s"] for op in warm),
        "op_wall_max_s": max(op["wall_s"] for op in ops),
        "window_s_per_cpu_s": statistics.median(
            op["window_s"] / op["cpu_s"] for op in warm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# -- one workload run ------------------------------------------------------

def run_workload(args) -> int:
    run_dir = RUN_ROOT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                          f"-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_times = measure_setup(args, run_dir, 1 if args.smoke else SETUP_PROBES)
        inputs = setup(args.workload, args.seed, run_dir / "inputs", args.smoke)
    except (RuntimeError, ImportError, OSError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    print("inputs: " + json.dumps(inputs["params"], sort_keys=True))
    workload = Workload(args.workload, inputs)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    ops, failures = [], []
    begin = time.perf_counter()
    while True:
        k = len(ops)
        traced = tracer is not None and k % 2 == 1
        out = run_dir / f"op{k}"
        if traced:
            tracer.begin_op(k)
            tracer.install()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcome = workload.run(out)
            tracer.uninstall()
            for warning in caught:
                category = warning.category.__name__
                key = (f"warnings.{category}" if f"warnings.{category}"
                       in PER_LAYER else "warnings.other")
                tracer.count(key)
        else:
            outcome = workload.run(out)
        outcome["traced"] = traced
        outcome["failures"] = workload.check(out, outcome)
        shutil.rmtree(out, ignore_errors=True)
        for message in outcome["failures"]:
            print(f"op {k} failed: {message}", file=sys.stderr)
        ops.append(outcome)
        elapsed = time.perf_counter() - begin
        # a warm op after the cold first one; in a traced run, a warm
        # untraced op after the traced one to compare it with
        enough = len(ops) >= (3 if tracer else 2)
        if enough and elapsed + outcome["wall_s"] > args.seconds:
            break
    shutil.rmtree(run_dir / "inputs", ignore_errors=True)

    failed = sum(1 for op in ops if op["failures"])
    plain = [op for op in ops if not op["traced"]]
    if tracer is None:
        metrics = end_to_end_metrics(setup_times, plain)
        units = END_TO_END
    else:
        traced_ops = [k for k, op in enumerate(ops) if op["traced"]]
        per_op = [layer_metrics(tracer, k) for k in traced_ops]
        for name in EXACT:
            if len({values[name] for values in per_op}) > 1:
                failures.append(f"count {name} differs between traced ops")
        metrics = {name: statistics.median(v[name] for v in per_op)
                   for name in PER_LAYER}
        # op 0 is the cold one; the overhead compares warm ops only
        metrics["trace.overhead_s"] = (
            statistics.median(ops[k]["wall_s"] for k in traced_ops)
            - statistics.median(op["wall_s"] for op in plain[1:]))
        units = PER_LAYER
        tracer.write(run_dir / "spans.jsonl")
        print("ledger: " + " -> ".join(
            f"{stage}={int(metrics[name])}" for stage, name in LEDGER))
    for message in failures:
        print(f"run failed: {message}", file=sys.stderr)

    attempted = len(ops)
    print(f"{args.workload}: {attempted} ops, {failed} failed, "
          f"error_rate={failed / attempted:.4g} ratio, "
          f"op walls (s) {[round(op['wall_s'], 3) for op in ops]}")
    if tracer is None:
        for name, unit in units.items():
            print(f"  {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "environment": env, "inputs": inputs["params"],
         "ops": [{key: op[key] for key in ("wall_s", "cpu_s", "window_s",
                                           "traced", "failures")}
                 for op in ops],
         "result": result}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table, one exit status."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(SCRIPT), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
        results[name] = result
    print(json.dumps(results))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, for self-tests")
    parser.add_argument("--setup-probe", metavar="DIR", type=Path,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    if args.setup_probe:
        setup(args.workload, args.seed, args.setup_probe, args.smoke)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
