#!/usr/bin/env python3
"""Build the end-to-end benchmark from source if needed, then run one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--threads T] [--scale full|smoke]

Everything after the script name is passed to cpm_benchmark unchanged, plus
--trace-dir pointing into the build directory. The build directory is
$CARGO_TARGET_DIR/cpm_e2e (default .bench_build/cpm_e2e); a relative
CARGO_TARGET_DIR is taken from the repository root. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. Exits
non-zero without a result when the simulator sources are missing or the
build fails.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SETTLE_S = 10.0


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "cpm_e2e"


def build(bdir: pathlib.Path) -> pathlib.Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (bdir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(bdir), "-j", jobs, "--target", "cpm_benchmark"],
        stdout=sys.stderr, check=True)
    return bdir / "cpm_benchmark"


def mtime(path: pathlib.Path) -> float:
    return path.stat().st_mtime if path.exists() else 0.0


def main() -> int:
    bdir = build_dir()
    before = mtime(bdir / "cpm_benchmark")
    try:
        binary = build(bdir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    if mtime(binary) != before:
        # A run started right after compiling measured half the usual speed:
        # flush the build's dirty pages and let the machine settle first.
        os.sync()
        time.sleep(SETTLE_S)
    traces = bdir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    done = subprocess.run(
        [str(binary), *sys.argv[1:], "--trace-dir", str(traces)])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
