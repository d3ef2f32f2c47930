#!/usr/bin/env python3
"""Vectorization guard: fail when a tagged kernel loop stops vectorizing.

A kernel loop is tagged by the comment line directly above it (blank and
comment lines in between are allowed):

    // vectorize: power.chip_power_batch
    for (std::size_t i = 0; i < n; ++i) {

For every source file under SRC_ROOT that carries a tag, the script takes
the file's compile command from BUILD_DIR/compile_commands.json (the target's
real flags), recompiles it to /dev/null with -fno-lto added (so the
optimizer runs at compile time, not at link time) and
-fopt-info-vec-optimized, and requires GCC to report "loop vectorized" on
the line of every tagged loop. It exits 1 naming each loop that did not
vectorize.

On x86-64 each tagged loop is one body built into two wrappers, a baseline
one and an AVX2 one (src/util/isa.h), so the loop must be reported at both
widths: 16-byte vectors (SSE2) and 32-byte vectors (AVX2). The recompile
turns epilogue vectorization off, so a 16-byte report cannot come from the
AVX2 loop's remainder. When the compile command picks an ISA itself
(-march=, as the CPM_SIMD build does), the baseline wrapper is built for that
ISA too, and only the 32-byte report is required.

The reports are GCC's, and the promise is about optimized builds, so the
script exits 77 (ctest's skip code, SKIP_RETURN_CODE) with a message for
any other compiler, for a build type other than Release, and for a
sanitizer build.

    scripts/check_vectorized.py --build-dir BUILD_DIR --compiler-id ID \\
        --build-type TYPE --cxx-flags FLAGS SRC_ROOT
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import shlex
import subprocess
import sys

SKIP = 77
TAG = re.compile(r"^\s*//\s*vectorize:\s*(\S+)")
LOOP = re.compile(r"^\s*for\s*\(")
REPORT = re.compile(
    r"^(.*?):(\d+):\d+: optimized: loop vectorized(?: using (\d+) byte)?")
X86_64 = platform.machine().lower() in ("x86_64", "amd64")


def tagged_loops(path: pathlib.Path) -> list[tuple[str, int]]:
    """(tag, 1-based line of the loop) for each tag in `path`."""
    loops = []
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        match = TAG.match(line)
        if not match:
            continue
        for j in range(i + 1, len(lines)):
            if LOOP.match(lines[j]):
                loops.append((match.group(1), j + 1))
                break
            stripped = lines[j].strip()
            if stripped and not stripped.startswith("//"):
                loops.append((match.group(1), -1))  # tag not above a loop
                break
    return loops


def compile_commands(build_dir: pathlib.Path) -> dict[str, dict]:
    db = build_dir / "compile_commands.json"
    if not db.is_file():
        sys.exit(f"check_vectorized: {db} not found "
                 "(configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON)")
    entries = {}
    for entry in json.loads(db.read_text()):
        path = pathlib.Path(entry["directory"], entry["file"]).resolve()
        entries.setdefault(str(path), entry)
    return entries


def compile_args(entry: dict) -> list[str]:
    return entry.get("arguments") or shlex.split(entry["command"])


def required_widths(entry: dict) -> set[int]:
    """Vector widths in bytes at which every tagged loop must be reported."""
    if not X86_64:
        return set()
    if any(arg.startswith("-march=") for arg in compile_args(entry)):
        return {32}
    return {16, 32}


def vectorized_lines(entry: dict) -> tuple[dict[int, set[int]], str]:
    """Line -> vector widths (bytes; 0 if GCC names none) of the loops GCC
    reports vectorized in entry's file."""
    args = compile_args(entry)
    if "-o" in args:
        args[args.index("-o") + 1] = os.devnull
    args += ["-fno-lto", "-fopt-info-vec-optimized",
             "--param=vect-epilogues-nomask=0"]
    done = subprocess.run(args, cwd=entry["directory"], capture_output=True,
                          text=True, check=False)
    if done.returncode != 0:
        return {}, done.stderr
    target = pathlib.Path(entry["directory"], entry["file"]).resolve()
    lines: dict[int, set[int]] = {}
    for line in done.stderr.splitlines():
        match = REPORT.match(line)
        if match and pathlib.Path(entry["directory"],
                                  match.group(1)).resolve() == target:
            lines.setdefault(int(match.group(2)), set()).add(
                int(match.group(3) or 0))
    return lines, ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", required=True, type=pathlib.Path)
    parser.add_argument("--compiler-id", required=True)
    parser.add_argument("--build-type", required=True)
    parser.add_argument("--cxx-flags", default="")
    parser.add_argument("src_root", type=pathlib.Path)
    opts = parser.parse_args()

    if opts.compiler_id != "GNU":
        print(f"check_vectorized: skipped: compiler is {opts.compiler_id}, "
              "the guard reads GCC's -fopt-info reports")
        return SKIP
    if opts.build_type != "Release" or "-fsanitize" in opts.cxx_flags:
        print(f"check_vectorized: skipped: build type {opts.build_type!r} "
              f"with flags {opts.cxx_flags!r}; the kernels are promised to "
              "vectorize in Release builds without sanitizers")
        return SKIP

    entries = compile_commands(opts.build_dir)
    failures = []
    checked = 0
    for path in sorted(opts.src_root.resolve().rglob("*.cpp")):
        loops = tagged_loops(path)
        if not loops:
            continue
        entry = entries.get(str(path))
        if entry is None:
            failures.append(f"{path}: no compile command in the build")
            continue
        lines, error = vectorized_lines(entry)
        if error:
            failures.append(f"{path}: recompiling failed:\n{error}")
            continue
        widths = required_widths(entry)
        for tag, line in loops:
            checked += 1
            missing = sorted(widths - lines.get(line, set()))
            if line < 0:
                failures.append(f"{path}: tag '{tag}' is not above a loop")
            elif line not in lines:
                failures.append(
                    f"{path}:{line}: loop '{tag}' is not vectorized")
            elif missing:
                failures.append(
                    f"{path}:{line}: loop '{tag}' is not vectorized with "
                    + " or ".join(f"{w}-byte" for w in missing)
                    + " vectors (each tagged kernel needs a baseline and an "
                    "AVX2 wrapper, see src/util/isa.h)")
            else:
                found = ", ".join(f"{w}-byte" for w in sorted(lines[line]))
                print(f"vectorized: {tag} ({path.name}:{line}; {found})")
    if checked == 0 and not failures:
        failures.append(f"no '// vectorize:' tags under {opts.src_root}")
    for failure in failures:
        print(f"check_vectorized: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
