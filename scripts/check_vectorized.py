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

A tagged loop must also read and write memory only at addresses affine in
the loop index (contiguous or shifted columns): GCC vectorizes a load
through an index array too, as a gather (emulated with scalar loads at
SSE2), which would pass the report check while losing what the tag
promises. The recompile also writes GCC's vectorizer details dump, and any
"evolution of base/offset is not affine" data reference on a line inside a
tagged loop's body fails the loop.

On x86-64 each tagged loop is one body built into three wrappers, a
baseline, an AVX2 and an AVX-512 one (util::dispatch_kernel in
src/util/isa.h), so the loop must be reported at all three widths: 16-byte
vectors (SSE2), 32-byte vectors (AVX2) and 64-byte vectors (AVX-512). The
recompile turns epilogue vectorization off, so a narrower report cannot
come from a wider loop's remainder. When the compile command picks an ISA
itself (-march=, as the CPM_SIMD build does), the baseline wrapper is built
for that ISA too, and only the 32- and 64-byte reports are required.

AVX-512F includes FMA, so the AVX-512 wrappers stay bit-identical to the
others only while FP contraction is off (-ffp-contract=off on cpm_util).
On x86-64 the recompile therefore also writes an object file, and the
script disassembles it (objdump) and fails any AVX-512 wrapper that holds
a vfmadd*, vfmsub*, vfnmadd* or vfnmsub* instruction, and any tagged file
whose object has no AVX-512 wrapper at all. Both checks read the compiler's
output only, so they hold on hosts without AVX-512.

The reports are GCC's, and the promise is about optimized builds, so the
script exits 77 (ctest's skip code, SKIP_RETURN_CODE) with a message for
any other compiler, for a build type other than Release, and for a
sanitizer build.

    scripts/check_vectorized.py --build-dir BUILD_DIR --compiler-id ID \\
        --build-type TYPE --cxx-flags FLAGS SRC_ROOT
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import platform
import re
import shlex
import shutil
import subprocess
import sys
import tempfile

SKIP = 77
TAG = re.compile(r"^\s*//\s*vectorize:\s*(\S+)")
NOT_AFFINE = re.compile(
    r"(\S+?):(\d+):\d+: missed:\s+failed: evolution of (?:base|offset) "
    r"is not affine")
LOOP = re.compile(r"^\s*for\s*\(")
REPORT = re.compile(
    r"^(.*?):(\d+):\d+: optimized: loop vectorized(?: using (\d+) byte)?")
X86_64 = platform.machine().lower() in ("x86_64", "amd64")
# objdump -d -C: a function's first line, and an instruction line.
FUNCTION = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INSN = re.compile(r"^\s*[0-9a-f]+:\s+(\S+)")
AVX512_WRAPPER = re.compile(r"KernelWrappers<&?(.*?)>::avx512\b")
FMA = re.compile(r"^vfn?m(?:add|sub)")


def loop_end(lines: list[str], start: int) -> int:
    """1-based line of the brace that closes the loop on lines[start]."""
    depth = 0
    opened = False
    for k in range(start, len(lines)):
        code = lines[k].split("//", 1)[0]
        depth += code.count("{") - code.count("}")
        opened = opened or "{" in code
        if opened and depth <= 0:
            return k + 1
    return len(lines)


def tagged_loops(path: pathlib.Path) -> list[tuple[str, int, int]]:
    """(tag, first and last 1-based line of the loop) for each tag in
    `path`; the first line is -1 when the tag is not above a loop."""
    loops = []
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        match = TAG.match(line)
        if not match:
            continue
        for j in range(i + 1, len(lines)):
            if LOOP.match(lines[j]):
                loops.append((match.group(1), j + 1, loop_end(lines, j)))
                break
            stripped = lines[j].strip()
            if stripped and not stripped.startswith("//"):
                loops.append((match.group(1), -1, -1))
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
        return {32, 64}
    return {16, 32, 64}


def avx512_wrappers(obj: pathlib.Path) -> tuple[dict[str, set[str]], str]:
    """Kernel body -> the FMA mnemonics in its AVX-512 wrappers (empty
    when none), from `obj`'s disassembly; or an error."""
    objdump = shutil.which("objdump")
    if objdump is None:
        return {}, "objdump not found (binutils): cannot check for FMA"
    done = subprocess.run([objdump, "-d", "-C", "--no-show-raw-insn",
                           str(obj)], capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        return {}, done.stderr
    wrappers: dict[str, set[str]] = {}
    current = None
    for line in done.stdout.splitlines():
        function = FUNCTION.match(line)
        if function:
            wrapper = AVX512_WRAPPER.search(function.group(1))
            current = wrapper.group(1) if wrapper else None
            if current is not None:
                wrappers.setdefault(current, set())
            continue
        insn = INSN.match(line)
        if current is not None and insn and FMA.match(insn.group(1)):
            wrappers[current].add(insn.group(1))
    return wrappers, ""


@dataclasses.dataclass
class Compiled:
    """What one recompile of a tagged file reports."""
    # Line -> vector widths (bytes; 0 if GCC names none) of the loops GCC
    # reports vectorized.
    lines: dict[int, set[int]] = dataclasses.field(default_factory=dict)
    # Lines of data references not affine in their loop's index.
    not_affine: set[int] = dataclasses.field(default_factory=set)
    # Kernel body -> FMA mnemonics in its AVX-512 wrapper (x86-64 only).
    avx512: dict[str, set[str]] = dataclasses.field(default_factory=dict)
    error: str = ""


def recompile(entry: dict) -> Compiled:
    """Recompiles entry's file with the vectorizer reports on and reads
    them, and on x86-64 the object's AVX-512 wrappers."""
    result = Compiled()
    args = compile_args(entry)
    target = pathlib.Path(entry["directory"], entry["file"]).resolve()

    def in_target(name: str) -> bool:
        return pathlib.Path(entry["directory"], name).resolve() == target

    with tempfile.TemporaryDirectory() as tmp:
        dump = pathlib.Path(tmp, "vect.txt")
        obj = pathlib.Path(tmp, "kernel.o")
        if "-o" in args:
            args[args.index("-o") + 1] = str(obj)
        else:
            args += ["-o", str(obj)]
        args += ["-fno-lto", "-fopt-info-vec-optimized",
                 "--param=vect-epilogues-nomask=0",
                 f"-fdump-tree-vect-details={dump}"]
        done = subprocess.run(args, cwd=entry["directory"],
                              capture_output=True, text=True, check=False)
        if done.returncode != 0:
            result.error = done.stderr
            return result
        details = dump.read_text(errors="replace") if dump.is_file() else ""
        if X86_64:
            result.avx512, result.error = avx512_wrappers(obj)
    for line in done.stderr.splitlines():
        match = REPORT.match(line)
        if match and in_target(match.group(1)):
            result.lines.setdefault(int(match.group(2)), set()).add(
                int(match.group(3) or 0))
    result.not_affine = {int(match.group(2))
                         for match in NOT_AFFINE.finditer(details)
                         if in_target(match.group(1))}
    return result


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
        compiled = recompile(entry)
        if compiled.error:
            failures.append(f"{path}: recompiling failed:\n{compiled.error}")
            continue
        lines, not_affine = compiled.lines, compiled.not_affine
        if X86_64 and not compiled.avx512:
            failures.append(
                f"{path}: no AVX-512 kernel wrapper in the object (each "
                "tagged kernel runs through util::dispatch_kernel, see "
                "src/util/isa.h)")
        for body, fused in sorted(compiled.avx512.items()):
            if fused:
                failures.append(
                    f"{path}: the AVX-512 wrapper of {body} has fused "
                    "multiply-adds (" + ", ".join(sorted(fused)) + "), so "
                    "it no longer matches the other tiers bit for bit: FP "
                    "contraction must be off (-ffp-contract=off on "
                    "cpm_util, src/util/CMakeLists.txt)")
        clean = sorted(body for body, fused in compiled.avx512.items()
                       if not fused)
        if clean:
            print(f"no FMA in the AVX-512 wrappers of {path.name}: "
                  + ", ".join(clean))
        widths = required_widths(entry)
        for tag, line, last in loops:
            checked += 1
            missing = sorted(widths - lines.get(line, set()))
            indexed = sorted(k for k in not_affine if line <= k <= last)
            if line < 0:
                failures.append(f"{path}: tag '{tag}' is not above a loop")
            elif indexed:
                failures.append(
                    f"{path}:{line}: loop '{tag}' accesses memory through "
                    "an address that is not affine in the loop index (an "
                    "index array: a gather) on line "
                    + ", ".join(str(k) for k in indexed))
            elif line not in lines:
                failures.append(
                    f"{path}:{line}: loop '{tag}' is not vectorized")
            elif missing:
                failures.append(
                    f"{path}:{line}: loop '{tag}' is not vectorized with "
                    + " or ".join(f"{w}-byte" for w in missing)
                    + " vectors (each tagged kernel needs a baseline, an "
                    "AVX2 and an AVX-512 wrapper, see src/util/isa.h)")
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
