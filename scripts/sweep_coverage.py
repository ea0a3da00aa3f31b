#!/usr/bin/env python3
"""Print which simulator code the paper sweeps reach.

Build sweep_runner with coverage, run the sweeps, then point this
script at the build tree:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
          -DCMAKE_CXX_FLAGS="--coverage -O1"
    cmake --build build-cov -j --target sweep_runner
    (cd build-cov/bench && ./sweep_runner --sweep all --jobs 4)
    python3 scripts/sweep_coverage.py build-cov

The script runs `gcov -j` (GCC's JSON output) on every .gcda under
BUILD_DIR/src and BUILD_DIR/bench and merges the counts per source
line, keeping the highest count any translation unit recorded: a
header line runs if any unit that inlined it ran it. The bench units
count too, because the linker may keep sweep_runner's copy of an
inline function, and only the kept copy's counters move. For the
files under the repository's src/ it prints

  * each file's executed and total lines;
  * the functions no sweep called, one line per definition (a
    template counts as called if any instantiation was; lambdas are
    left out);
  * each .cc that has a .gcno but no .gcda, i.e. one not linked into
    the binary that ran.

The sweep job pool updates the counters from several threads without
atomics, so a count can be low; a zero is still exact, and zeros are
all the lists need. The script reports; it exits 0 whatever it finds.
"""

import argparse
import gzip
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def source_of(object_path, build_src):
    """src/-relative source path of a .gcno/.gcda under BUILD_DIR/src
    (CMake names them CMakeFiles/<target>.dir/<source>.<ext>)."""
    rel = os.path.relpath(os.path.splitext(object_path)[0], build_src)
    parts = rel.split(os.sep)
    if len(parts) > 2 and parts[0] == "CMakeFiles":
        parts = parts[2:]
    return os.path.join("src", *parts)


def short_name(demangled):
    """A function's qualified name without its return type, template
    arguments or parameters."""
    if "operator" in demangled:
        return demangled
    name = demangled.replace("(anonymous namespace)", "{anonymous}")
    kept, depth = [], 0
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            kept.append(ch)
    return "".join(kept).split("(", 1)[0].split(" ")[-1]


def gcov_json(gcda, workdir):
    """The parsed `gcov -j` report of one .gcda."""
    subprocess.run(["gcov", "-j", os.path.abspath(gcda)], cwd=workdir,
                   check=True, stdout=subprocess.DEVNULL)
    out = [f for f in os.listdir(workdir) if f.endswith(".gcov.json.gz")]
    if len(out) != 1:
        sys.exit(f"gcov wrote {out} for {gcda}")
    path = os.path.join(workdir, out[0])
    with gzip.open(path, "rt") as f:
        doc = json.load(f)
    os.remove(path)
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", help="coverage build tree")
    args = ap.parse_args()

    build = os.path.abspath(args.build_dir)
    build_src = os.path.join(build, "src")
    gcdas, unlinked = [], []
    for top in (build_src, os.path.join(build, "bench")):
        for root, _, files in os.walk(top):
            for f in files:
                path = os.path.join(root, f)
                if f.endswith(".gcda"):
                    gcdas.append(path)
                elif (top == build_src and f.endswith(".gcno") and
                      not os.path.exists(path[:-len(".gcno")] + ".gcda")):
                    unlinked.append(source_of(path, build_src))
    if not gcdas:
        sys.exit(f"no .gcda under {build}: run the sweeps first")

    lines = {}  # file -> {line: highest count}
    funcs = {}  # (file, start line) -> [highest count, name]
    with tempfile.TemporaryDirectory() as workdir:
        for gcda in sorted(gcdas):
            doc = gcov_json(gcda, workdir)
            cwd = doc.get("current_working_directory", "")
            for entry in doc["files"]:
                path = os.path.normpath(os.path.join(cwd, entry["file"]))
                if not path.startswith(SRC + os.sep):
                    continue
                rel = os.path.relpath(path, REPO)
                per_line = lines.setdefault(rel, {})
                for ln in entry["lines"]:
                    n = ln["line_number"]
                    per_line[n] = max(per_line.get(n, 0), ln["count"])
                for fn in entry["functions"]:
                    name = fn.get("demangled_name", fn["name"])
                    if "{lambda(" in name:
                        continue
                    seen = funcs.setdefault((rel, fn["start_line"]),
                                            [0, short_name(name)])
                    seen[0] = max(seen[0], fn["execution_count"])

    total = sum(len(v) for v in lines.values())
    executed = sum(1 for v in lines.values() for c in v.values() if c)
    pct = 100.0 * executed / total if total else 0.0
    print(f"sweep coverage of src/: {executed} of {total} lines "
          f"({pct:.1f}%)")
    print()
    print("lines executed / total, per file:")
    for rel in sorted(lines):
        v = lines[rel]
        ran = sum(1 for c in v.values() if c)
        print(f"  {ran:5d} / {len(v):5d}  {rel}")
    print()
    never = sorted((k, name) for k, (c, name) in funcs.items() if c == 0)
    print(f"functions no sweep called ({len(never)}):")
    for (rel, start), name in never:
        print(f"  {rel}:{start}  {name}")
    print()
    print(f"sources not linked into the binary ({len(unlinked)}):")
    for rel in sorted(unlinked):
        print(f"  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
