#!/usr/bin/env python3
"""doc_check: keep the docs honest about the CLI surface and the tree.

Six checks, all gating in CI (.github/workflows/ci.yml "docs" job):

1. Flag coverage — every `--flag` string literal that a binary under
   bench/ or tools/ actually parses must be mentioned in README.md or
   EXPERIMENTS.md. Removing a flag's documentation (or documenting a flag
   that was renamed in code only) fails the build.

2. Flag existence — every flag-table row (`| `--name ...`) in README.md
   or EXPERIMENTS.md must name a flag that some .cpp under bench/, tools/,
   examples/ or src/ parses: a "--name" literal or a FlagSet
   get_*("name", ...) call. A row left behind by a deleted flag fails.

3. Schema coverage — every report schema literal ("reese-*-vN") a bench
   emits must be mentioned in README.md or EXPERIMENTS.md, so a new or
   renamed report format cannot ship undocumented.

4. Link integrity — every intra-repo markdown link in the top-level *.md
   files and docs referenced from them must point at a file that exists.

5. Bench targets — every `bench/<name>` without a file extension in
   README.md, EXPERIMENTS.md, DESIGN.md or the verify skill must name an
   executable that bench/CMakeLists.txt defines. A reference to a deleted
   or renamed bench binary fails.

6. Source paths — every path under src/, tests/, tools/, bench/ or
   examples/ with a file extension, and every src-relative one such as
   sim/campaign.h, that README.md, EXPERIMENTS.md, DESIGN.md or the verify
   skill names must exist. Each member of a name.{h,cpp} brace form must
   exist, and a glob such as name.* or *.srv must match at least one file.
   A reference to a deleted or renamed source file fails.

Usage: python3 tools/doc_check.py [repo_root]
Exit status 0 when every check passes, 1 otherwise.
"""

import glob
import os
import re
import sys


# A flag "counts" when the source compares or documents it as an argument:
# string literals like "--jobs" / "--jobs=..." in bench/*.cpp, tools/*.cpp.
FLAG_LITERAL = re.compile(r'"(--[a-z][a-z0-9-]*)=?"')

# A FlagSet getter reading a flag, e.g. flags.get_string("trace-out", "").
FLAGSET_GETTER = re.compile(r'\bget_[a-z0-9]+\(\s*"([a-z][a-z0-9-]*)"')

# A flag-table row in the docs: | `--name ARG` | default | meaning |
FLAG_TABLE_ROW = re.compile(r"^\| `(--[a-z][a-z0-9-]*)", re.MULTILINE)

# Docs whose flag tables and mentions are checked.
FLAG_DOCS = ("README.md", "EXPERIMENTS.md")

# A report schema "counts" when a bench emits it as a JSON string literal,
# e.g. \"schema\": \"reese-cavf-v1\" in bench/*.cpp.
SCHEMA_LITERAL = re.compile(r'\\"(reese-[a-z0-9-]+-v\d+)\\"')

# [text](target) markdown links; images share the syntax via a leading '!'.
MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# External or intra-page targets that are not files on disk.
NON_FILE_PREFIXES = ("http://", "https://", "mailto:", "#")

# A bench binary named in prose or a command line, e.g. `bench/reese_figs`
# or ./build/bench/fault_coverage; bench/reese_figs.cpp (a file) and
# bench/cpp/ (a directory) are not binaries.
BENCH_BINARY = re.compile(r"(?<![\w-])bench/(\w+)(?![\w/-]|\.\w)")

# Executables bench/CMakeLists.txt defines: reese_bench(name) and
# add_executable(name ...).
BENCH_EXECUTABLE = re.compile(r"\b(?:reese_bench|add_executable)\((\w+)")

# Docs whose bench binary names and source paths are checked.
BENCH_DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md",
              os.path.join(".claude", "skills", "verify", "SKILL.md"))

# Top-level directories whose paths the docs name from the repo root.
ROOTED_DIRS = ("src", "tests", "tools", "bench", "examples")

# A path token: an optional ./, a leading directory, then path characters,
# then an optional {a,b} brace form. Not preceded by a path character, so
# perfbench/... and build/bench/... do not yield bench/... tokens.
PATH_TOKEN = (r"(?<![\w/.*{{-])(?:\./)?"
              r"((?:{dirs})/[\w/.*-]*(?:\{{[\w.,]+\}})?)")

# A final path component with a file extension (or an extension glob).
HAS_EXTENSION = re.compile(r"\.(?:\w+|\*)$")


def collect_flags(repo_root):
    """Map flag -> sorted list of source files that parse it."""
    flags = {}
    for subdir in ("bench", "tools"):
        directory = os.path.join(repo_root, subdir)
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".cpp"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            for flag in FLAG_LITERAL.findall(text):
                flags.setdefault(flag, set()).add(os.path.join(subdir, name))
    return {flag: sorted(sources) for flag, sources in flags.items()}


def collect_parsed_flags(repo_root):
    """Every flag that some .cpp under bench/, tools/, examples/ or src/
    parses, as a "--name" literal or a FlagSet get_*("name", ...) call."""
    parsed = set()
    for subdir in ("bench", "tools", "examples", "src"):
        for root, _dirs, names in os.walk(os.path.join(repo_root, subdir)):
            for name in names:
                if not name.endswith(".cpp"):
                    continue
                with open(os.path.join(root, name), encoding="utf-8") as handle:
                    text = handle.read()
                parsed.update(FLAG_LITERAL.findall(text))
                parsed.update("--" + flag
                              for flag in FLAGSET_GETTER.findall(text))
    return parsed


def check_flag_rows(repo_root):
    parsed = collect_parsed_flags(repo_root)
    errors = []
    for name in FLAG_DOCS:
        with open(os.path.join(repo_root, name), encoding="utf-8") as handle:
            text = handle.read()
        for flag in FLAG_TABLE_ROW.findall(text):
            if flag not in parsed:
                errors.append(
                    f"{name}: flag-table row {flag} names a flag that no .cpp "
                    f"under bench/, tools/, examples/ or src/ parses")
    return errors


def collect_schemas(repo_root):
    """Map report schema -> sorted list of bench sources that emit it."""
    schemas = {}
    directory = os.path.join(repo_root, "bench")
    if not os.path.isdir(directory):
        return schemas
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".cpp"):
            continue
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for schema in SCHEMA_LITERAL.findall(text):
            schemas.setdefault(schema, set()).add(os.path.join("bench", name))
    return {schema: sorted(sources) for schema, sources in schemas.items()}


def check_flag_coverage(repo_root):
    doc_paths = [os.path.join(repo_root, name) for name in FLAG_DOCS]
    documented = ""
    for path in doc_paths:
        with open(path, encoding="utf-8") as handle:
            documented += handle.read()

    errors = []
    for flag, sources in sorted(collect_flags(repo_root).items()):
        if flag not in documented:
            errors.append(
                f"flag {flag} (parsed by {', '.join(sources)}) is not "
                f"documented in README.md or EXPERIMENTS.md")
    for schema, sources in sorted(collect_schemas(repo_root).items()):
        if schema not in documented:
            errors.append(
                f"schema {schema} (emitted by {', '.join(sources)}) is not "
                f"documented in README.md or EXPERIMENTS.md")
    return errors


def markdown_files(repo_root):
    """Top-level *.md plus any docs/ markdown; skip build and .git trees."""
    found = []
    for entry in sorted(os.listdir(repo_root)):
        path = os.path.join(repo_root, entry)
        if entry.endswith(".md") and os.path.isfile(path):
            found.append(path)
    docs_dir = os.path.join(repo_root, "docs")
    if os.path.isdir(docs_dir):
        for root, _dirs, names in os.walk(docs_dir):
            for name in sorted(names):
                if name.endswith(".md"):
                    found.append(os.path.join(root, name))
    return found


def check_links(repo_root):
    errors = []
    for md_path in markdown_files(repo_root):
        base = os.path.dirname(md_path)
        with open(md_path, encoding="utf-8") as handle:
            text = handle.read()
        for target in MARKDOWN_LINK.findall(text):
            if target.startswith(NON_FILE_PREFIXES):
                continue
            # Strip an intra-file anchor: DESIGN.md#section -> DESIGN.md.
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = os.path.normpath(os.path.join(base, file_part))
            if not os.path.exists(resolved):
                rel = os.path.relpath(md_path, repo_root)
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def check_bench_binaries(repo_root):
    with open(os.path.join(repo_root, "bench", "CMakeLists.txt"),
              encoding="utf-8") as handle:
        defined = set(BENCH_EXECUTABLE.findall(handle.read()))
    errors = []
    for name in BENCH_DOCS:
        path = os.path.join(repo_root, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                for binary in BENCH_BINARY.findall(line):
                    if binary not in defined:
                        errors.append(
                            f"{name}:{number}: bench/{binary} is not an "
                            f"executable bench/CMakeLists.txt defines")
    return errors


def expand_braces(path):
    """common/http.{h,cpp} -> [common/http.h, common/http.cpp]."""
    match = re.search(r"\{([\w.,]+)\}", path)
    if match is None:
        return [path]
    return [path[:match.start()] + member + path[match.end():]
            for member in match.group(1).split(",")]


def missing_paths(line, pattern, base):
    """Paths `pattern` finds in `line` that resolve to nothing under base."""
    missing = []
    for token in pattern.findall(line):
        for path in expand_braces(token.rstrip(".-")):
            if not HAS_EXTENSION.search(path.rsplit("/", 1)[-1]):
                continue  # a directory or a binary, not a source file
            full = os.path.join(base, path)
            found = glob.glob(full) if "*" in path else os.path.exists(full)
            if not found:
                missing.append(path)
    return missing


def check_source_paths(repo_root):
    src = os.path.join(repo_root, "src")
    modules = sorted(name for name in os.listdir(src)
                     if os.path.isdir(os.path.join(src, name)))
    rooted = re.compile(PATH_TOKEN.format(dirs="|".join(ROOTED_DIRS)))
    src_relative = re.compile(PATH_TOKEN.format(dirs="|".join(modules)))
    errors = []
    for name in BENCH_DOCS:
        path = os.path.join(repo_root, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                missing = (missing_paths(line, rooted, repo_root) +
                           missing_paths(line, src_relative, src))
                for target in missing:
                    errors.append(f"{name}:{number}: {target} does not exist")
    return errors


def main():
    repo_root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    errors = (check_flag_coverage(repo_root) + check_flag_rows(repo_root) +
              check_links(repo_root) + check_bench_binaries(repo_root) +
              check_source_paths(repo_root))
    for error in errors:
        print(f"doc_check: {error}", file=sys.stderr)
    if errors:
        print(f"doc_check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("doc_check: ok (flags documented and parsed, links resolve, "
          "bench binaries and source paths exist)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
