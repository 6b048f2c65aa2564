#!/usr/bin/env python3
"""The repo benchmark: host cost of simulating, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (and through it libgpulat.a) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench. Every run then:

  --trace 0  runs the Table I accuracy probes once, then the workload's
             cells back to back in one process for S seconds (closed
             loop, one client), and prints the end-to-end metrics;
  --trace 1  runs the cells in the link-wrapped build, armed on every
             other cell, then untraced cells alternating between the two
             engine.tickJobs values, each process for S/2 seconds, and
             prints the per-layer metrics.

Between cells both builds time a fixed host-speed probe, and the
end-to-end times are scaled by it (README.md, "Host-speed
normalization"). Every cell's record must equal its pinned golden
byte for byte. The last stdout line is the JSON result; README.md
defines every metric.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402

# How one benchmark workload maps onto a registry workload. --seed N
# selects input seed default_seed + N % SEED_SLOTS: goldens are pinned
# for exactly those seeds, so every cell is checked on every seed.
# Slot 7 is held out of tuning (README.md).
SEED_SLOTS = 8

WORKLOADS = {
    "bfs_latency": {"registry": "bfs", "default_seed": 1, "tick_jobs": 1},
    "gemm_tj2": {"registry": "gemm", "default_seed": 10, "tick_jobs": 2},
}

# Set-up samples per run beyond the timed cells' own set-ups.
SETUP_SAMPLES = 4
# Per-process limit; a run makes at most three processes and must end
# within 180 s.
PROCESS_TIMEOUT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def workload_seed(workload, seed):
    return WORKLOADS[workload]["default_seed"] + seed % SEED_SLOTS


def golden_path(workload, wseed):
    return HERE / "golden" / workload / ("seed-%d.json" % wseed)


def spec_args(workload, wseed, tick_jobs):
    w = WORKLOADS[workload]
    return ["--workload", w["registry"], "--param", "seed=%d" % wseed,
            "--set", "engine.tickJobs=%d" % tick_jobs]


def build():
    """Configure once, then bring both binaries up to date."""
    build_dir = (Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
                 / "perfbench")
    # The compiler's temporary files stay inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp.resolve()))
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True, timeout=300, env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4",
                    "--target", "perfbench_cells", "perfbench_traced"],
                   stdout=sys.stderr, check=True, timeout=850, env=env)
    return build_dir


def run_binary(path, args):
    """Run one benchmark process to completion; its parsed lines."""
    proc = subprocess.run([str(path), *args], stdout=subprocess.PIPE,
                          text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s %s exited with %d"
                           % (path.name, " ".join(args), proc.returncode))
    return analysis.parse_lines(proc.stdout)


def check_cells(cells, golden, label):
    """Verification and golden equality per cell; the passing count."""
    passed = 0
    for cell in cells:
        problem = None
        if not cell["correct"]:
            problem = "failed CPU-reference verification"
        else:
            problem = analysis.golden_diff(cell["record"], golden)
        if problem:
            log("FAIL %s cell %d: %s" % (label, cell["index"], problem))
        else:
            passed += 1
    return passed


def cell_walls(out):
    return [t["wall_s"] for t in analysis.top_spans(out["spans"])
            if t["name"] == "cell"]


def diagnostics(label, out, loadavg):
    """Host-noise record of one process, to explain an outlying run."""
    p = out["process"]
    probes = [t["wall_s"] for t in analysis.top_spans(out["spans"])
              if t["name"] == "hostref"]
    return ("%s: involuntary_csw=%d cpu/wall=%.3f loadavg_at_start=%.2f "
            "hostref_s=%.4f..%.4f cell_walls_s=[%s]" % (
                label, p["nivcsw"], p["cpu_s"] / p["wall_s"], loadavg,
                min(probes), max(probes),
                " ".join("%.3f" % w for w in cell_walls(out))))


def context_line(cell):
    return ("simulated per cell: %d cycles, %d warp instructions, "
            "IPC %.3f, %d launches" % (
                cell["cycles"], cell["instructions"],
                cell["instructions"] / cell["cycles"], cell["launches"]))


def print_table(metrics, units, raw=None):
    for name, value in metrics.items():
        line = "  %-30s %14.6g %s" % (name, value, units[name])
        if raw and raw[name] != value:
            line += "  (as measured: %.6g)" % raw[name]
        print(line)


def run_untraced(bins, args, golden, loadavg):
    w = WORKLOADS[args.workload]
    wseed = workload_seed(args.workload, args.seed)
    acc = run_binary(bins / "perfbench_cells", ["accuracy"])
    out = run_binary(bins / "perfbench_cells", [
        "cells", *spec_args(args.workload, wseed, w["tick_jobs"]),
        "--seconds", str(args.seconds),
        "--setup-samples", str(SETUP_SAMPLES)])
    cells = out["cell"]
    passed = check_cells(cells, golden, args.workload)
    bad_probes = analysis.probe_failures(acc["probe"])
    for p in bad_probes:
        log("FAIL Table I probe %s %s: measured %.1f, paper %.0f"
            % (p["gpu"], p["unit"], p["measured"], p["paper"]))
    e2e = (out["spans"], out["process"], acc["probe"], passed)
    metrics = analysis.end_to_end(cells, *e2e)
    raw = analysis.end_to_end(cells, *e2e, normalize=False)
    units = {n: u for n, (u, _) in analysis.END_TO_END.items()}
    print("%s, seed slot %d (workload seed %d), %d timed cells, times "
          "scaled to a %.3f s host-speed probe:"
          % (args.workload, args.seed % SEED_SLOTS, wseed, len(cells),
             analysis.HOST_REF_S))
    print("  " + context_line(cells[0]))
    print_table(metrics, units, raw)
    print("  " + diagnostics("host", out, loadavg))
    failed = (len(cells) - passed) + len(bad_probes)
    attempted = len(cells) + len(acc["probe"])
    return failed == 0, attempted, failed, metrics, units


def run_traced(bins, args, golden, loadavg):
    w = WORKLOADS[args.workload]
    wseed = workload_seed(args.workload, args.seed)
    other_jobs = 1 if w["tick_jobs"] == 2 else 2
    spec = spec_args(args.workload, wseed, w["tick_jobs"])
    half = str(args.seconds / 2)
    traced = run_binary(bins / "perfbench_traced", [
        "cells", *spec, "--seconds", half])
    untraced = run_binary(bins / "perfbench_cells", [
        "cells", *spec, "--alternate-set", "engine.tickJobs=%d" % other_jobs,
        "--seconds", half])

    cells = traced["cell"] + untraced["cell"]
    passed = check_cells(cells, golden, args.workload)
    armed = [c for c in traced["cell"] if "trace" in c]
    problems = [p for c in armed for p in analysis.tracer_problems(c)]
    for p in problems:
        log("FAIL tracer self-check: %s" % p)

    walls = analysis.scaled_cell_walls(untraced["spans"])
    tj = {jobs: [walls[c["index"]] for c in untraced["cell"]
                 if c["tick_jobs"] == jobs] for jobs in (1, 2)}
    layers = analysis.per_layer(traced["cell"], traced["spans"],
                                traced["calibration"], tj[1], tj[2])
    metrics = {name: layers[name] for name in analysis.PER_LAYER}
    print("%s, seed slot %d (workload seed %d), traced build: %d armed "
          "+ %d bare cells, untraced: %d at tickJobs=1 + %d at tickJobs=2"
          % (args.workload, args.seed % SEED_SLOTS, wseed, len(armed),
             len(traced["cell"]) - len(armed), len(tj[1]), len(tj[2])))
    print("  " + context_line(armed[0]))
    print("  calibration: %s" % traced["calibration"])
    print("  tracing cost per armed cell: %.3f s modeled, %.1f%% measured "
          "(trace.overhead_pct); the gap bounds the error in "
          "engine.self_s" % (layers["modeled_overhead_s"],
                             layers["trace.overhead_pct"]))
    print_table(metrics, analysis.PER_LAYER)
    for label, out in (("traced", traced), ("untraced", untraced)):
        print("  " + diagnostics(label, out, loadavg))
    failed = len(cells) - passed + (1 if problems else 0)
    return failed == 0, len(cells), failed, metrics, analysis.PER_LAYER


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    loadavg = os.getloadavg()[0]
    started = time.monotonic()
    wseed = workload_seed(args.workload, args.seed)
    try:
        golden = golden_path(args.workload, wseed).read_text()
        bins = build()
        runner = run_traced if args.trace else run_untraced
        correct, attempted, failed, metrics, units = runner(
            bins, args, golden, loadavg)
    except (OSError, subprocess.SubprocessError, RuntimeError) as e:
        log("perfbench: %s" % e)
        return 1
    log("perfbench: %s done in %.1f s" % (args.workload,
                                          time.monotonic() - started))
    print(analysis.result_line(correct, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
