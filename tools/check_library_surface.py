#!/usr/bin/env python3
"""Library-surface gate: every function src/ defines must be linked by a program.

Builds the bench/ and examples/ harnesses plus perfbench at -O0 with
-ffunction-sections -fdata-sections and links them with -Wl,--gc-sections,
so each binary keeps exactly the library functions it can reach. Then it
diffs the strong `reduce::` functions libreduce_core.a defines against the
union of what those binaries keep. A defined function no binary keeps must
be named in tools/library_surface.allow with a reason; any other one fails
the check, and so does an allow entry that names nothing left unlinked.

    python3 tools/check_library_surface.py [--build-dir DIR] [--jobs N]

Allow-list lines read `<qualified name>  # <reason>`, the name without its
parameter list (one entry covers every overload). Blank lines and lines
starting with `#` are ignored. Needs cmake, a C++20 compiler, GNU nm and
c++filt, and Google Benchmark (for bench_micro_accel).

Exit status: 0 when the surface matches, 1 on an unlisted or stale name,
2 on a build or tool failure.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

from check_docs import cmake_targets

REPO = Path(__file__).resolve().parent.parent
ALLOW_FILE = REPO / "tools" / "library_surface.allow"

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

TRAILING_QUALIFIERS = re.compile(r"\s*(?:const|volatile|noexcept|&&|&)\s*$")


def run(cmd, **kwargs):
    try:
        return subprocess.run(cmd, check=True, **kwargs)
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"check_library_surface: {' '.join(map(str, cmd))} failed: {exc}",
              file=sys.stderr)
        raise SystemExit(2)


def build(source, out, targets, jobs):
    if not (out / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(source), "-B", str(out), *FLAGS], stdout=subprocess.DEVNULL)
    run(["cmake", "--build", str(out), "-j", str(jobs), "--target", *targets],
        stdout=subprocess.DEVNULL)


def function_name(demangled):
    """`ns::f(int) const` -> `ns::f`: strips the trailing parameter list."""
    text = demangled
    while True:
        stripped = TRAILING_QUALIFIERS.sub("", text)
        if stripped == text:
            break
        text = stripped
    if not text.endswith(")"):
        return text
    depth = 0
    for i in range(len(text) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(text[i], 0)
        if depth == 0:
            return text[:i]
    return text


def defined_functions(path, strong_only):
    """Demangled names of the text symbols `path` defines."""
    kinds = "T" if strong_only else "TW"
    out = run(["nm", "--defined-only", str(path)], capture_output=True, text=True).stdout
    mangled = sorted({parts[2] for parts in (line.split() for line in out.splitlines())
                      if len(parts) == 3 and parts[1] in kinds})
    demangled = run(["c++filt"], input="\n".join(mangled), capture_output=True,
                    text=True).stdout.splitlines()
    return set(demangled)


def load_allow():
    allow = {}
    bad = []
    for number, line in enumerate(ALLOW_FILE.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, sep, reason = line.partition("#")
        if not sep or not reason.strip() or not name.strip():
            bad.append(f"{ALLOW_FILE.name}:{number}: expected '<name>  # <reason>'")
            continue
        allow[name.strip()] = reason.strip()
    return allow, bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=str(REPO / "build-surface"),
                        help="scratch build tree (default: build-surface/)")
    parser.add_argument("--jobs", type=int, default=max(1, min(4, os.cpu_count() or 1)))
    args = parser.parse_args()
    root = Path(args.build_dir).resolve()

    targets = sorted(t for t in cmake_targets() if t.startswith(("bench_", "example_")))
    build(REPO, root / "root", ["reduce_core", *targets], args.jobs)
    build(REPO / "perfbench", root / "perfbench", ["perfbench"], args.jobs)
    binaries = [root / "root" / t for t in targets] + [root / "perfbench" / "perfbench"]

    library = {f for f in defined_functions(root / "root" / "libreduce_core.a", True)
               if f.startswith("reduce::")}
    kept = set()
    for binary in binaries:
        kept |= defined_functions(binary, False)
    unlinked = {function_name(f) for f in library - kept}

    allow, problems = load_allow()
    problems += [f"unlinked and not allow-listed: {name}"
                 for name in sorted(unlinked - allow.keys())]
    problems += [f"stale allow entry (linked or gone): {name}"
                 for name in sorted(allow.keys() - unlinked)]
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"check_library_surface: {len(library)} library functions, "
          f"{len(binaries)} programs, {len(unlinked)} unlinked names "
          f"({len(allow)} allow-listed), {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
