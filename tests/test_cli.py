"""Command-line interface: subcommands, outputs, exit codes."""
from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qkdpass
from qkdpass.cli_app import (EXIT_CONFIG, EXIT_INPUT, EXIT_OK,
                             EXIT_SIMULATION, main)
from qkdpass.orbit_dynamics import format_tle
from qkdpass.quantum_receiver import read_tags_binary, read_tags_csv
from qkdpass.scenario import load_scenario
from conftest import write_demo_inputs, zenith_tle


def run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip()


def test_cli_import_leaves_scipy_out():
    # the runtime needs numpy only; scipy is the tests' oracle and costs
    # seconds of import on every invocation. The process pool is loaded
    # only by simulate --ensemble.
    src = str(Path(qkdpass.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c",
         "import qkdpass.cli_app, sys; "
         "print('scipy' in sys.modules, 'concurrent.futures.process' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120, check=True)
    assert done.stdout.split() == ["False", "False"]


def test_predict_writes_table_and_csv(tmp_path, capsys):
    cfg, _ = write_demo_inputs(tmp_path)
    assert run(["predict", "--scenario", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "aos_utc" in out
    table = tmp_path / "out" / "passes.csv"
    rows = list(csv.DictReader(table.read_text().splitlines()))
    assert rows, "expected at least one pass within a day"
    assert float(rows[0]["max_elevation_deg"]) > 10.0
    assert rows[0]["aos_utc"].startswith("2024-03-01")


def test_predict_json_format(tmp_path):
    cfg, _ = write_demo_inputs(tmp_path)
    assert run(["predict", "--scenario", cfg, "--format", "json"]) == EXIT_OK
    rows = json.loads((tmp_path / "out" / "passes.json").read_text())
    assert rows and {"index", "aos_utc", "duration_s"} <= set(rows[0])


# recorded while the pass search still converted one datetime per instant
# (168 h of passes; the rate column has no other byte-level check)
PREDICT_SHA256 = {
    "90.0": {
        "passes.csv":
            "4bccbf0b369b3563f7fc5fdf6ec7068663a84f5378871be836599bc3cf127d2d",
        "passes.json":
            "3a9a115f28d7a222e8b8abea3380aa49df4c3f576df1535c39f40ad2ffd3ddbf",
    },
    "51.6": {
        "passes.csv":
            "9693944a57a76c60756dddf1a989fd6862d09f62a687489c13f3c6edf13548d9",
        "passes.json":
            "3d246b5fbb08d23250434b8b6d9c16e02d0b6376acb55fc0b0084257e6eb9d8b",
    },
    "97.5": {
        "passes.csv":
            "251fb9658c2d213a2e3d25c87a848658667cd4f7b2421de9eddb024c64f0a6d7",
        "passes.json":
            "002e8683fe4f301cf46b4e382213f1ec131666e161f06459366d2494a341275b",
    },
}


def _predict_digests(tmp_path, inclination: str) -> dict[str, str]:
    tle = tmp_path / "sat.tle"
    tle.write_text("\n".join(format_tle(zenith_tle(inclination=float(inclination)))) + "\n")
    cfg, _ = write_demo_inputs(tmp_path, scenario=[f'tle_path = "{tle}"'],
                               prediction=["search_hours = 168"])
    for fmt in ("csv", "json"):
        assert run(["predict", "--scenario", cfg, "--format", fmt]) == EXIT_OK
    return {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in ("passes.csv", "passes.json")}


@pytest.mark.parametrize("inclination", sorted(PREDICT_SHA256))
def test_predict_bytes_are_pinned(tmp_path, capsys, inclination):
    assert _predict_digests(tmp_path, inclination) == PREDICT_SHA256[inclination]


# recorded when the PAT fine loop began to draw each update's step-end noise
# directly
LINK_BUDGET_SHA256 = {
    "link.csv": "c139edd6e1ca2835dd98b3f8c9a7cffcfa2a1695afac7a5217fdf1eec8dc14d6",
    "stdout": "2fc87c0bbe2bc11c0da909d491a88e1e4036a7edb154ca25250b61bb951fde44",
}


def test_link_budget_bytes_are_pinned(tmp_path, capsys):
    cfg, _ = write_demo_inputs(tmp_path)
    assert run(["link-budget", "--scenario", cfg]) == EXIT_OK
    digests = {
        "link.csv": hashlib.sha256((tmp_path / "out" / "link.csv").read_bytes()).hexdigest(),
        "stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
    }
    assert digests == LINK_BUDGET_SHA256


def test_tracer_patches_and_restores_cli_names(monkeypatch):
    # bench/tracing.py wraps functions at the names cli_app and the
    # pipeline resolve; a renamed call site must fail here, in tier-1
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import Tracer
    tracer = Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def test_predict_no_passes_is_success(tmp_path, capsys):
    cfg, _ = write_demo_inputs(
        tmp_path, prediction=["min_elevation_deg = 89.9"]
    )
    assert run(["predict", "--scenario", cfg]) == EXIT_OK
    (tmp_path / "out" / "passes.csv").exists()


def test_simulate_outputs(tmp_path, capsys):
    cfg, _ = write_demo_inputs(tmp_path)
    assert run(["simulate", "--scenario", cfg, "--format", "csv"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "sifted=" in printed and "qber=" in printed and "secret=" in printed
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["sifted_bits"] > 0
    assert report["package_version"]
    assert 0.0 <= report["qber_estimate"] <= 1.0
    # the resolved scenario reloads to the exact run configuration
    resolved = load_scenario(out / "resolved.cfg")
    assert resolved.seed == 7
    assert resolved.protocol.max_source_events == 500000
    for telemetry in ("pat.csv", "pcs.csv", "link.csv"):
        header = (out / telemetry).read_text().splitlines()[0]
        assert header.startswith("time_s,")
    ground = read_tags_csv(out / "tags_ground.csv")
    onboard = read_tags_csv(out / "tags_onboard.csv")
    assert len(ground) > 0 and len(onboard) > 0


def test_scripted_frame_offset_drives_pcs(tmp_path):
    cfg, _ = write_demo_inputs(
        tmp_path, pcs=["scripted_constant_deg = 30"], scenario=["pat_dt_s = 0.1"],
        protocol=["max_source_events = 50000"],
    )
    assert run(["simulate", "--scenario", cfg]) == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "out" / "pcs.csv").read_text().splitlines()))
    assert rows and all(float(r["theta_true_deg"]) == 30.0 for r in rows)


def test_simulate_report_byte_identical(tmp_path):
    cfg, _ = write_demo_inputs(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["simulate", "--scenario", cfg, "--format", "csv",
                "--out", str(out_a)]) == EXIT_OK
    assert run(["simulate", "--scenario", cfg, "--format", "csv",
                "--out", str(out_b)]) == EXIT_OK
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "tags_ground.csv").read_bytes() == (out_b / "tags_ground.csv").read_bytes()


def test_simulate_seed_override_changes_key(tmp_path):
    cfg, _ = write_demo_inputs(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["simulate", "--scenario", cfg, "--out", str(out_a)]) == EXIT_OK
    assert run(["simulate", "--scenario", cfg, "--seed", "8",
                "--out", str(out_b)]) == EXIT_OK
    a = json.loads((out_a / "report.json").read_text())
    b = json.loads((out_b / "report.json").read_text())
    assert a["sifted_bits"] != b["sifted_bits"]


def test_simulate_binary_tags(tmp_path):
    cfg, _ = write_demo_inputs(tmp_path)
    assert run(["simulate", "--scenario", cfg, "--format", "bin"]) == EXIT_OK
    tags = read_tags_binary(tmp_path / "out" / "tags_ground.bin")
    assert len(tags) > 0
    assert np.all(np.diff(tags.times_s) >= 0.0)


def test_missing_scenario_file(tmp_path):
    assert run(["predict", "--scenario", str(tmp_path / "ghost.cfg")]) == EXIT_CONFIG


PASS_COMMANDS = ["predict", "simulate", "link-budget"]


@pytest.mark.parametrize("command", PASS_COMMANDS)
def test_corrupt_tle_is_input_error(tmp_path, capsys, command):
    cfg, tle = write_demo_inputs(tmp_path)
    lines = Path(tle).read_text().splitlines()
    lines[1] = lines[1][:-1] + ("0" if lines[1][-1] != "0" else "1")
    Path(tle).write_text("\n".join(lines) + "\n")
    assert run([command, "--scenario", cfg]) == EXIT_INPUT
    assert "TLE error" in capsys.readouterr().err


@pytest.mark.parametrize("command", PASS_COMMANDS)
@pytest.mark.parametrize("section, line", [
    ("prediction", "search_hours = 0"),
    ("prediction", "search_hours = -1"),
    ("prediction", "search_hours = 200"),
    ("prediction", "profile_step_s = 0"),
    ("prediction", "profile_step_s = -1"),
    ("pcs", "update_interval_s = 0"),
    ("scenario", "pat_dt_s = 0"),
    ("sync", "bin_s = 0"),
    ("sync", "bin_s = -1e-7"),
    ("sync", 'bin_s = "fast"'),
    ("sync", "bin_s = 1e-14"),  # 1e10 fold bins per beacon period
    ("sync", "max_offset_s = 0"),
    ("sync", "beacon_jitter_rms_s = -1e-9"),
    ("sync", "min_matched = 1"),
    ("sync", "min_matched = -5"),
    ("protocol", "coincidence_window_s = -1e-9"),
    ("protocol", 'coincidence_window_s = "wide"'),
    ("protocol", "sample_fraction = 0"),
    ("protocol", "sample_fraction = 1.5"),
    ("protocol", "max_source_events = 0"),
    ("protocol", "max_source_events = -10"),
    ("prediction", "min_elevation_deg = 0"),
    ("prediction", "min_elevation_deg = -5"),
    ("prediction", "min_elevation_deg = 90"),
    ("scenario", 'seed = "abc"'),
    ("scenario", "seed = [1]"),
    ("scenario", "seed = 1.5"),
    ("scenario", "seed = true"),
    ("scenario", "tle_path = 5"),
    ("scenario", "output_dir = 5"),
    ("scenario", "tle_lines = [1, 2]"),
    ("sync", "min_matched = 2.5"),
    ("sync", "min_matched = 200.0"),
    ("protocol", "max_source_events = 1.5"),
    ("protocol", "max_source_events = true"),
    ("protocol", "ad_anticorrelated = 3"),
    ("protocol", 'ad_anticorrelated = "yes"'),
    ("pat", "dropout_limit = 5.5"),
    ("link", "spot_radius_arcsec = 0"),
    ("link", "spot_radius_arcsec = -3"),
    ("link", "stop_radius_arcsec = -1"),
    # a subsection is not a key of its parent section
    ("pat", "mount = 3"),
    ("pcs", "polarimeter = 5"),
    ("pat", "wfov = [1, 2]"),
])
def test_invalid_value_is_config_error(tmp_path, capsys, command, section, line):
    cfg, _ = write_demo_inputs(tmp_path, **{section: [line]})
    assert run([command, "--scenario", cfg]) == EXIT_CONFIG
    assert "scenario error" in capsys.readouterr().err


def test_source_check_noise_free(tmp_path, capsys):
    cfg, _ = write_demo_inputs(tmp_path)
    assert run(["source-check", "--scenario", cfg, "--noise-free"]) == EXIT_OK
    assert "visibility=0.98" in capsys.readouterr().out
    rows = list(csv.DictReader((tmp_path / "out" / "fringe.csv").read_text().splitlines()))
    assert len(rows) == 91  # 0..180 in 2 degree steps


def test_source_check_noisy_json(tmp_path, capsys):
    cfg, _ = write_demo_inputs(tmp_path)
    assert run(["source-check", "--scenario", cfg, "--format", "json",
                "--integration", "0.5"]) == EXIT_OK
    payload = json.loads((tmp_path / "out" / "fringe.json").read_text())
    assert payload["visibility"] == pytest.approx(0.98, abs=0.02)
    assert len(payload["counts"]) == 91


def test_source_check_rejects_zero_integration(tmp_path, capsys):
    cfg, _ = write_demo_inputs(tmp_path)
    assert run(["source-check", "--scenario", cfg,
                "--integration", "0"]) == EXIT_CONFIG
    assert "scenario error" in capsys.readouterr().err


def test_link_budget_outputs(tmp_path, capsys):
    cfg, _ = write_demo_inputs(tmp_path)
    assert run(["link-budget", "--scenario", cfg]) == EXIT_OK
    assert "best_total_db=" in capsys.readouterr().out
    rows = list(csv.DictReader((tmp_path / "out" / "link.csv").read_text().splitlines()))
    assert len(rows) > 300  # one row per profile second over the pass
    t = np.array([float(r["transmittance"]) for r in rows])
    assert np.all((t >= 0.0) & (t <= 1.0))


def test_simulate_bad_pass_index(tmp_path, capsys):
    cfg, _ = write_demo_inputs(tmp_path)
    assert run(["simulate", "--scenario", cfg, "--pass", "99"]) == EXIT_SIMULATION
    assert "pass index" in capsys.readouterr().err


def test_simulate_no_pass(tmp_path, capsys):
    cfg, _ = write_demo_inputs(
        tmp_path, prediction=["min_elevation_deg = 89.9"]
    )
    assert run(["simulate", "--scenario", cfg]) == EXIT_SIMULATION
    assert "no pass" in capsys.readouterr().err


def test_link_budget_bad_index(tmp_path, capsys):
    cfg, _ = write_demo_inputs(tmp_path)
    assert run(["link-budget", "--scenario", cfg, "--pass", "42"]) == EXIT_SIMULATION
    assert "pass index" in capsys.readouterr().err


def test_link_budget_model_failure_is_simulation_error(tmp_path, capsys):
    # AOS is refined only to 0.1 s, so the first profile sample of a pass
    # above 1e-6 deg can sit below the horizon, where the link model fails
    cfg, _ = write_demo_inputs(
        tmp_path, prediction=["min_elevation_deg = 1e-6"]
    )
    assert run(["link-budget", "--scenario", cfg]) == EXIT_SIMULATION
    assert "[channel_link]" in capsys.readouterr().err


def test_link_budget_no_pass(tmp_path, capsys):
    cfg, _ = write_demo_inputs(
        tmp_path, prediction=["min_elevation_deg = 89.9"]
    )
    assert run(["link-budget", "--scenario", cfg]) == EXIT_SIMULATION
    assert "no pass" in capsys.readouterr().err


def test_init_writes_loadable_example(tmp_path, capsys):
    target = tmp_path / "fresh.example"
    assert run(["init", "--out", str(target)]) == EXIT_OK
    scenario = load_scenario(target)
    assert scenario.tle_path == "satellite.tle"
    assert f"wrote {target}" in capsys.readouterr().out


def test_ensemble_runs_ordered_seeds(tmp_path, capsys):
    cfg, _ = write_demo_inputs(
        tmp_path, protocol=["max_source_events = 200000"]
    )
    assert run(["simulate", "--scenario", cfg, "--ensemble", "3"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.count("seed=") == 3
    rows = list(csv.DictReader((tmp_path / "out" / "ensemble.csv").read_text().splitlines()))
    seeds = [int(float(r["seed"])) for r in rows]
    assert seeds == [7, 8, 9]
    assert all(int(float(r["sifted_bits"])) > 0 for r in rows)


@pytest.mark.parametrize("extra, message", [
    (["--ensemble", "-1"], "at least one seed"),
    (["--ensemble", "0"], "at least one seed"),
    (["--ensemble", "2", "--format", "bin"], "--format"),
])
def test_ensemble_rejects_bad_use(tmp_path, capsys, extra, message):
    # no seed to run, or tag files that one run of many would write, is a
    # configuration error: nothing runs and nothing is written
    cfg, _ = write_demo_inputs(tmp_path)
    assert run(["simulate", "--scenario", cfg, *extra]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


GOLDEN_DEMO = Path(__file__).parent / "golden_demo.json"
GOLDEN_SAMPLES = 100  # strided values kept per telemetry column


def _column_digest(values: np.ndarray) -> dict:
    """Row count, sums that see every value and its position, strided values."""
    stride = -(-len(values) // GOLDEN_SAMPLES)
    position = np.arange(len(values)) / len(values)
    return {"rows": len(values), "stride": stride,
            "sum": float(np.sum(values)), "sum_sq": float(np.sum(values * values)),
            "position_sum": float(np.sum(position * values)),
            "values": values[::stride].tolist()}


def demo_digest(out: Path) -> dict:
    """report.json (without package_version) and a digest of every
    pat.csv and link.csv column of one simulate run."""
    report = json.loads((out / "report.json").read_text())
    report.pop("package_version")
    digest = {"report.json": report}
    for name in ("pat.csv", "link.csv"):
        rows = list(csv.reader((out / name).read_text().splitlines()))
        columns = np.array(rows[1:], dtype=float).T
        digest[name] = {col: _column_digest(values)
                        for col, values in zip(rows[0], columns)}
    return digest


def assert_matches_golden(got, want, where: str = "") -> None:
    """Integers, strings and nulls exactly; floats to 1e-12 relative."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), where
    else:
        assert type(got) is type(want) and got == want, where


# sha256 of the demo's pat.csv per seed, recorded when the PAT fine loop
# began to draw each update's step-end noise directly
PAT_CSV_SHA256 = {
    "7": "b8a299f1d67e130aa7384643c83db865dc691708c0483ae304aff9348006bc47",
    "11": "860379f87d5b771f3b650a136b542d5aefd97fa8826649f122b990800c0a361e",
}


@pytest.mark.parametrize("seed", ["7", "11"])
def test_demo_outputs_match_golden(tmp_path, seed):
    """The demo scenario reproduces the report and telemetry recorded in
    tests/golden_demo.json, and pat.csv bit for bit (pcs.csv is pinned
    by PCS_CSV_SHA256 below; the tag files are not pinned)."""
    cfg, _ = write_demo_inputs(tmp_path)
    out = tmp_path / "out"
    assert run(["simulate", "--scenario", cfg, "--seed", seed]) == EXIT_OK
    golden = json.loads(GOLDEN_DEMO.read_text())
    assert_matches_golden(demo_digest(out), golden[seed], seed)
    assert hashlib.sha256((out / "pat.csv").read_bytes()).hexdigest() == PAT_CSV_SHA256[seed]


# [pcs] lines per case, and the sha256 of the demo's pcs.csv at seed 7;
# recorded while the pipeline still unpacked [pcs] into keyword arguments.
# The geometric profiles were recorded again when the frame geometry
# became array operations: row dot products summed left to right instead
# of BLAS, so theta moved by up to 4e-14 deg and some residual_deg cells
# in their 12th digit.
PCS_CSV_SHA256 = {
    "geometric": (
        [], "530616e810b74aeb7d153a1262cbd765fe1c4feb55ea6ce675344aa67b9a092f"),
    "body_yaw": (
        ["body_yaw_deg = 12"],
        "070c39ab7a6c1eb2253dcc58123699cc71e333fbbece2b01ac654a53356f9d33"),
    "scripted_ramp": (
        ["scripted_ramp_deg = [-10, 20]", "uncompensated_offset_deg = 2"],
        "eb100a3bb94c2c585aa5018eb5038ddd395381da8c2de6044faf05f3a984c82b"),
}


@pytest.mark.parametrize("case", sorted(PCS_CSV_SHA256))
def test_pcs_csv_bytes_are_pinned(tmp_path, case):
    """The demo's frame profile and correction series, bit for bit, for
    the geometric profile, a body yaw and a biased scripted ramp."""
    lines, want = PCS_CSV_SHA256[case]
    cfg, _ = write_demo_inputs(tmp_path, pcs=lines)
    assert run(["simulate", "--scenario", cfg, "--seed", "7"]) == EXIT_OK
    assert hashlib.sha256((tmp_path / "out" / "pcs.csv").read_bytes()).hexdigest() == want


def _background_run_digests(tmp_path) -> dict[str, str]:
    cfg, _ = write_demo_inputs(
        tmp_path, link=["sky_background_rate_zenith = 2e5"],
        protocol=["max_source_events = 200000"])
    out = tmp_path / "out"
    assert run(["simulate", "--scenario", cfg, "--format", "bin"]) == EXIT_OK
    report = (out / "report.json").read_text().splitlines(keepends=True)
    # the version string is the only line that changes between releases
    report = "".join(line for line in report if '"package_version"' not in line)
    return {"report.json": hashlib.sha256(report.encode()).hexdigest(),
            **{name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("tags_ground.bin", "tags_onboard.bin")}}


# recorded when the sky background began to be drawn a block at a time
# (sifted=238, 30,356 ground and 92,706 onboard tags; most ground tags
# are sky background): its times became running sums of exponentials in
# the cumulated rate, over the receiver's gate rather than the source
# window, and its channel codes the bits of raw words. The onboard tags
# are those recorded when the pair chain began to run in blocks. The
# report was recorded again when the clock fit moved from np.polyfit to
# blockwise sums: only sync_offset_s (by 3.9e-17 s) and sync_drift (by
# 2.8e-16) changed.
BACKGROUND_RUN_SHA256 = {
    "report.json":
        "bb15ea2eb6d3c2d6cb3d8fa259676b56d53b3829cb391dfb332c2eee7aa5dbe4",
    "tags_ground.bin":
        "9de9e25a6d11ce3e2b9038fb62a981312a2e5cb89a3dd10089a493e7d4896eab",
    "tags_onboard.bin":
        "911dda509a7eb84ca7aca4fe8f4f14fe475bd15b80e48a17f6d8083e203cb06d",
}


def test_background_run_is_byte_identical(tmp_path):
    """A demo run with sky background reproduces its report and both tag
    files bit for bit: this pins the background arrivals, both detector
    chains and the channel thinning, which the golden digest above does
    not see."""
    assert _background_run_digests(tmp_path) == BACKGROUND_RUN_SHA256
