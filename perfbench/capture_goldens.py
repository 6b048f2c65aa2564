#!/usr/bin/env python3
"""Re-pin the benchmark's goldens from the `gpulat` CLI.

    python3 perfbench/capture_goldens.py [--build-dir DIR]

Builds the CLI through perfbench's own build tree and writes, for
every workload and seed slot, the exact bytes of

    gpulat run --workload W seed=S --set engine.tickJobs=J --json FILE

to perfbench/golden/<workload>/seed-<S>.json. Re-pin only when a
change is meant to alter simulated results; the benchmark fails any
cell whose record differs from its golden.
"""

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=".bench_build/perfbench")
    args = parser.parse_args()

    build_dir = Path(args.build_dir)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4",
                    "--target", "gpulat_cli"], check=True)
    cli = build_dir / "gpulat" / "gpulat"

    for name, w in run.WORKLOADS.items():
        for slot in range(run.SEED_SLOTS):
            wseed = run.workload_seed(name, slot)
            path = run.golden_path(name, wseed)
            path.parent.mkdir(parents=True, exist_ok=True)
            subprocess.run([str(cli), "run", "--workload", w["registry"],
                            "seed=%d" % wseed, "--set",
                            "engine.tickJobs=%d" % w["tick_jobs"],
                            "--json", str(path), "--no-table"],
                           check=True)
            print("pinned", path.relative_to(HERE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
