"""Command-line front end for scenario-driven pass simulation.

Subcommands: predict (pass table), simulate (full chain for one
pass), source-check (ground-test fringe scan of the pair source),
link-budget (loss decomposition without photon statistics), and init
(write a fully resolved example scenario).

Exit codes: 0 success, 2 scenario or configuration problem, 3 bad
input data (TLE files), 4 simulation failure (including no pass or a
pass index outside the prediction table). All outputs are
byte-reproducible for a fixed scenario, seed, and package version.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bbm92_pipeline import PassResult, find_passes, link_budget, simulate_pass
# not called here: bench/tracing.py patches these four names in this module
from .bbm92_pipeline import build_link_profile, predict_passes, run_pat, sample_pass  # noqa: F401
from .channel_link import LinkProfile
from .errors import QkdPassError, SimulationError, TleParseError
from .orbit_dynamics import max_angular_rates
from .photon_source import polarizer_scan, scan_fringe_mean, scan_visibility
from .quantum_receiver import write_tags_binary, write_tags_csv, write_tags_json
from .scenario import Scenario, ScenarioError, load_scenario, save_scenario, \
    write_example

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_SIMULATION = 4


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """One line per row: string columns as they are, numbers as %.12g."""
    columns = [np.asarray(c) for c in columns]
    text = [c.dtype.kind == "U" for c in columns]
    line = ",".join("%s" if t else "%.12g" for t in text) + "\n"
    cells = zip(*[c.tolist() if t else c.astype(float).tolist()
                  for c, t in zip(columns, text)])
    body = line * len(columns[0]) % tuple(itertools.chain.from_iterable(cells))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + body)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _out_dir(scenario: Scenario, args) -> Path:
    out = Path(args.out if args.out else scenario.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


def _pass_rows(passes, tle, site) -> list[dict]:
    rates = max_angular_rates(passes, tle, site).tolist()
    return [
        {
            "index": i,
            "aos_utc": w.aos.isoformat(),
            "tca_utc": w.tca.isoformat(),
            "los_utc": w.los.isoformat(),
            "duration_s": float(w.duration_s),
            "max_elevation_deg": float(w.max_elevation_deg),
            "max_angular_rate_dps": rate,
        }
        for i, (w, rate) in enumerate(zip(passes, rates))
    ]


def cmd_predict(args) -> int:
    scenario = _load(args)
    tle, passes = find_passes(scenario)
    rows = _pass_rows(passes, tle, scenario.site)
    print(f"{'idx':>3} {'aos_utc':<25} {'tca_utc':<25} {'dur_s':>7} "
          f"{'max_el':>7} {'rate_dps':>8}")
    for r in rows:
        print(f"{r['index']:>3} {r['aos_utc']:<25} {r['tca_utc']:<25} "
              f"{r['duration_s']:>7.1f} {r['max_elevation_deg']:>7.2f} "
              f"{r['max_angular_rate_dps']:>8.3f}")
    out = _out_dir(scenario, args)
    if args.format == "json":
        _write_json(out / "passes.json", rows)
    else:
        header = ["index", "aos_utc", "tca_utc", "los_utc", "duration_s",
                  "max_elevation_deg", "max_angular_rate_dps"]
        _write_csv(out / "passes.csv", header,
                   [[r[k] for r in rows] for k in header])
    return EXIT_OK


def _write_telemetry(result: PassResult, out: Path) -> None:
    pat = result.pat
    _write_csv(out / "pat.csv",
               ["time_s", "phase", "residual_arcsec"],
               [pat.times_s, pat.phases.astype(float), pat.residual_arcsec])
    pcs = result.pcs
    _write_csv(out / "pcs.csv",
               ["time_s", "theta_true_deg", "theta_hat_deg", "residual_deg"],
               [pcs.update_times_s, pcs.theta_true_deg, pcs.theta_hat_deg,
                np.asarray(pcs.residual_at(pcs.update_times_s))])
    _write_link(result.link, out / "link.csv")


def _write_link(link: LinkProfile, path: Path) -> None:
    _write_csv(path,
               ["time_s", "elevation_deg", "range_km", "geometric_db",
                "atmospheric_db", "pointing_db", "optics_db", "transmittance",
                "background_rate_hz"],
               [link.times_s, link.elevation_deg, link.range_km,
                link.geometric_loss_db, link.atmospheric_loss_db,
                link.pointing_loss_db, link.optics_loss_db,
                link.transmittance, link.background_rate])


def _ensemble_worker(payload) -> tuple[int, int, float, int]:
    scenario_path, seed, pass_index = payload
    scenario = dataclasses.replace(load_scenario(scenario_path), seed=seed)
    report = simulate_pass(scenario, pass_index=pass_index).report
    return seed, report.sifted_bits, report.qber_estimate, report.secret_bits


def cmd_simulate(args) -> int:
    if args.ensemble is not None and args.ensemble < 1:
        raise ScenarioError(f"--ensemble needs at least one seed, got {args.ensemble}")
    if args.ensemble and args.format:
        raise ScenarioError("--format exports one run's tags; it does not go "
                            "with --ensemble")
    scenario = _load(args)
    out = _out_dir(scenario, args)

    if args.ensemble:
        # the only user of a process pool: a plain run does not import it
        from concurrent.futures import ProcessPoolExecutor
        seeds = [scenario.seed + k for k in range(args.ensemble)]
        jobs = [(args.scenario, s, args.pass_index) for s in seeds]
        with ProcessPoolExecutor() as pool:
            rows = sorted(pool.map(_ensemble_worker, jobs))
        _write_csv(out / "ensemble.csv",
                   ["seed", "sifted_bits", "qber", "secret_bits"],
                   [np.array(column, dtype=float) for column in zip(*rows)])
        for seed, sifted, qber, secret in rows:
            print(f"seed={seed} sifted={sifted} qber={qber:.6g} secret={secret}")
        return EXIT_OK

    result = simulate_pass(scenario, pass_index=args.pass_index)
    report = result.report.to_dict()
    report["package_version"] = __version__
    _write_json(out / "report.json", report)
    save_scenario(scenario, out / "resolved.cfg")
    _write_telemetry(result, out)
    if args.format:
        write = {"csv": write_tags_csv, "json": write_tags_json,
                 "bin": write_tags_binary}[args.format]
        # the chain runs again, and each arm is written a block at a time
        sinks = [write(out / f"tags_{arm}.{args.format}") for arm in ("onboard", "ground")]
        for blocks in result.tag_blocks():
            for sink, tags in zip(sinks, blocks):
                sink.send(tags)
        for sink in sinks:
            sink.close()
    r = result.report
    print(f"sifted={r.sifted_bits} qber={r.qber_estimate:.6g} "
          f"secret={r.secret_bits}")
    return EXIT_OK


def cmd_source_check(args) -> int:
    scenario = _load(args)
    angles = np.arange(0.0, 181.0, 2.0)
    if args.integration <= 0.0:
        raise ScenarioError(
            f"integration must be positive, got {args.integration}")
    if args.noise_free:
        counts = scan_fringe_mean(scenario.source, angles, args.integration)
    else:
        counts = polarizer_scan(scenario.source, angles, args.integration,
                                seed=scenario.seed)
    vis = scan_visibility(angles, counts)
    out = _out_dir(scenario, args)
    if args.format == "json":
        _write_json(out / "fringe.json", {
            "angle_deg": [float(a) for a in angles],
            "counts": [float(c) for c in counts],
            "visibility": float(vis),
        })
    else:
        _write_csv(out / "fringe.csv", ["angle_deg", "counts"],
                   [angles, np.asarray(counts, dtype=float)])
    print(f"visibility={float(vis):.6g}")
    return EXIT_OK


def cmd_link_budget(args) -> int:
    scenario = _load(args)
    link = link_budget(scenario, args.pass_index)
    _write_link(link, _out_dir(scenario, args) / "link.csv")
    best = int(np.argmax(link.transmittance))
    print(f"samples={len(link.times_s)} "
          f"best_total_db={-10.0 * np.log10(link.transmittance[best]):.3f} "
          f"at_t={float(link.times_s[best]):.1f}s "
          f"elevation={float(link.elevation_deg[best]):.2f}deg")
    return EXIT_OK


def cmd_init(args) -> int:
    path = Path(args.out if args.out else "scenario.example")
    if path.is_dir():
        path = path / "scenario.example"
    write_example(path)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdpass",
        description="Satellite-to-ground entanglement QKD pass simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_scenario=True):
        if needs_scenario:
            p.add_argument("--scenario", required=True,
                           help="scenario file (.cfg sectioned text or .json)")
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")
        p.add_argument("--out", default=None,
                       help="output directory (default: scenario output_dir)")

    p = sub.add_parser("predict", help="list passes over the ground site")
    common(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="run the full chain for one pass")
    common(p)
    p.add_argument("--pass", dest="pass_index", type=int, default=0,
                   help="pass index from the prediction table")
    p.add_argument("--format", choices=["csv", "json", "bin"], default=None,
                   help="also export the raw time tags in this format")
    p.add_argument("--ensemble", type=int, default=None,
                   help="run N seeds (seed..seed+N-1) and write ensemble.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("source-check",
                       help="ground-test polarizer scan of the pair source")
    common(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--integration", type=float, default=1.0,
                   help="dwell time per polarizer angle in seconds")
    p.add_argument("--noise-free", action="store_true",
                   help="report expected counts without shot noise")
    p.set_defaults(func=cmd_source_check)

    p = sub.add_parser("link-budget",
                       help="loss decomposition over a pass, no photons")
    common(p)
    p.add_argument("--pass", dest="pass_index", type=int, default=0)
    p.set_defaults(func=cmd_link_budget)

    p = sub.add_parser("init", help="write a fully resolved example scenario")
    common(p, needs_scenario=False)
    p.set_defaults(func=cmd_init)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TleParseError as exc:
        print(f"TLE error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except QkdPassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
