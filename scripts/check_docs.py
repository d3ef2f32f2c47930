#!/usr/bin/env python3
"""Doc-rot linter: fail when documentation references things that no longer
exist in the tree.

Checked, over README.md and every docs/*.md:

  * file/directory paths in backticks or markdown links
    (`src/core/pic.h`, [text](docs/SIMULATOR.md)) -- must exist;
  * CLI flags in backticks (`--metrics-out`) -- must appear as a string
    literal somewhere under src/, examples/, bench/, tests/, tools/, or
    belong to a small allowlist of external tools' flags (cmake, ctest,
    perfetto);
  * build-system target names matching the project's naming scheme
    (bench_*, fuzz_*, *_tests, lint, cpm_lint*, layers_md, tidy,
    check_docs) -- must be declared in a CMakeLists.txt;
  * C++ qualified names in backticks (`core::ChipPlant`,
    `PowerModel::chip_power_batch()`) -- the last identifier of the chain
    must appear in the code under src/, bench/, examples/, tests/ or
    tools/; `{a,b}` shorthand (`ClusterResult::invariant_{checks,violations}`)
    expands to one name per alternative;
  * every file in docs/ must be reachable from README.md via markdown
    links or backticked `docs/...` references (no orphan docs).

Run directly (scripts/check_docs.py [REPO_ROOT]), via the `check_docs`
CMake target, or through scripts/verify.sh; exits 1 on any dangling
reference, listing each one.
"""
from __future__ import annotations

import pathlib
import re
import sys

# Flags documented for tools we invoke but do not implement.
EXTERNAL_FLAGS = {
    "--preset", "--target", "--build", "--output-on-failure", "--fast",
    "--gtest_filter", "--benchmark_min_time", "--benchmark_filter",
    "--test-dir", "--scenarios", "--seed", "--replay", "--baseline",
    "--tolerance", "--min-wall-s", "--aggregate", "--expect", "--floor",
}

# Project naming schemes that identify a token as a build target.
TARGET_RE = re.compile(
    r"^(bench_\w+|fuzz_\w+|\w+_tests|lint|cpm_lint\w*|layers_md|tidy"
    r"|check_docs)$")

# A qualified C++ name: one or more `ns::` qualifiers, then the named
# identifier (group 1), which may carry `{a,b}` alternatives.
QUALIFIED_RE = re.compile(
    r"(?<![\w:])(?:[A-Za-z_]\w*::)+~?((?:\w|\{\w+(?:,\w+)*\})+)")
BRACE_RE = re.compile(r"\{(\w+(?:,\w+)*)\}")

CODE_EXT = {
    ".h", ".cpp", ".cc", ".py", ".sh", ".md", ".json", ".jsonl", ".yml",
    ".yaml", ".csv", ".txt", ".cmake",
}


def doc_files(root: pathlib.Path) -> list[pathlib.Path]:
    files = [root / "README.md"]
    files += sorted((root / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def extract_tokens(text: str) -> list[str]:
    """Backtick spans plus markdown link destinations."""
    tokens = re.findall(r"`([^`\n]+)`", text)
    tokens += re.findall(r"\]\(([^)\s#]+)\)", text)
    return tokens


def looks_like_path(token: str) -> bool:
    if any(c in token for c in "*<>|{} ") or token.startswith("-"):
        return False
    if "://" in token:  # URL, not a tree path
        return False
    path = pathlib.PurePosixPath(token)
    if "/" in token:
        # Only slash-tokens with a code extension, or directory-ish tokens
        # pointing into the tree's known top levels, count as path claims.
        top = path.parts[0]
        if top not in {"src", "docs", "tests", "bench", "examples",
                       "scripts", "tools", "build", "build-asan",
                       "build-tsan", ".github"}:
            return False
        return path.suffix in CODE_EXT or path.suffix == ""
    return path.suffix == ".md"  # bare README.md / ROADMAP.md style refs


def gather_cli_flags(root: pathlib.Path) -> set[str]:
    """Every --flag string literal defined anywhere in the tree's code."""
    flags: set[str] = set()
    for pattern in ("src/**/*", "examples/**/*", "bench/**/*", "tests/**/*",
                    "tools/**/*", "scripts/*"):
        for path in root.glob(pattern):
            if not path.is_file() or path.suffix not in {".cpp", ".h", ".py",
                                                         ".sh"}:
                continue
            flags.update(re.findall(r"--[a-zA-Z][a-zA-Z0-9-]*",
                                    path.read_text(errors="replace")))
    return flags


def gather_identifiers(root: pathlib.Path) -> set[str]:
    """Every identifier-shaped word in the tree's code."""
    names: set[str] = set()
    for top in ("src", "bench", "examples", "tests", "tools"):
        for path in (root / top).rglob("*"):
            if path.is_file() and (path.suffix in {".h", ".cpp", ".py", ".sh"}
                                   or path.name == "CMakeLists.txt"):
                names.update(re.findall(r"[A-Za-z_]\w*",
                                        path.read_text(errors="replace")))
    return names


def expand_braces(name: str) -> list[str]:
    """`invariant_{checks,violations}` -> both full names."""
    match = BRACE_RE.search(name)
    if not match:
        return [name]
    return [expanded
            for alt in match.group(1).split(",")
            for expanded in expand_braces(
                name[:match.start()] + alt + name[match.end():])]


def gather_cmake_targets(root: pathlib.Path) -> set[str]:
    targets: set[str] = set()
    for path in root.rglob("CMakeLists.txt"):
        if "build" in path.parts:
            continue
        text = path.read_text(errors="replace")
        for macro in ("add_executable", "add_library", "add_custom_target",
                      "cpm_bench", "cpm_test"):
            targets.update(re.findall(macro + r"\(\s*(\w+)", text))
        # ctest test names (add_test(NAME fuzz_smoke ...)) are referenced in
        # docs the same way build targets are.
        targets.update(re.findall(r"add_test\(\s*NAME\s+(\w+)", text))
    return targets


def check_reachability(root: pathlib.Path) -> list[str]:
    """BFS over markdown links/backtick refs starting at README.md."""
    reachable: set[pathlib.Path] = set()
    frontier = [root / "README.md"]
    while frontier:
        doc = frontier.pop()
        if doc in reachable or not doc.is_file():
            continue
        reachable.add(doc)
        for token in extract_tokens(doc.read_text(errors="replace")):
            if not token.endswith(".md"):
                continue
            for candidate in (root / token, doc.parent / token):
                if candidate.is_file():
                    frontier.append(candidate.resolve())
    errors = []
    for doc in sorted((root / "docs").glob("*.md")):
        if doc.resolve() not in reachable:
            errors.append(f"docs/{doc.name}: not reachable from README.md")
    return errors


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else \
        pathlib.Path(__file__).resolve().parent.parent
    cli_flags = gather_cli_flags(root)
    targets = gather_cmake_targets(root)
    identifiers = gather_identifiers(root)

    errors: list[str] = []
    checked = 0
    for doc in doc_files(root):
        rel = doc.relative_to(root)
        for token in extract_tokens(doc.read_text(errors="replace")):
            token = token.strip()
            # C++ name claims: `ns::Name`, `Class::method()`, ...
            for match in QUALIFIED_RE.finditer(token):
                checked += 1
                for name in expand_braces(match.group(1)):
                    if name not in identifiers:
                        errors.append(f"{rel}: C++ name {match.group(0)} "
                                      f"({name}) not found in the code")
            # CLI flag claim: `--flag` or `--flag VALUE`.
            flag_match = re.match(r"^(--[a-zA-Z][a-zA-Z0-9-]*)( |=|$)", token)
            if flag_match:
                flag = flag_match.group(1)
                checked += 1
                if flag not in cli_flags and flag not in EXTERNAL_FLAGS:
                    errors.append(f"{rel}: flag {flag} not defined anywhere")
                continue
            # Build-target claim.
            if TARGET_RE.match(token):
                checked += 1
                if token not in targets:
                    errors.append(f"{rel}: cmake target {token} not declared")
                continue
            # Path claim.
            if looks_like_path(token):
                checked += 1
                if token.startswith("build"):
                    continue  # build-tree outputs exist only after a build
                if not (root / token).exists():
                    errors.append(f"{rel}: path {token} does not exist")

    errors.extend(check_reachability(root))

    for error in errors:
        print(f"check_docs: {error}", file=sys.stderr)
    print(f"check_docs: {checked} references checked in "
          f"{len(doc_files(root))} docs, {len(errors)} dangling")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
