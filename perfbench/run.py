#!/usr/bin/env python3
"""The repo benchmark: time to retrain a chip lot end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mlp_lot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

A run builds the benchmark (perfbench/CMakeLists.txt compiles the checkout's
src/ plus the benchmark sources into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set), runs one workload, checks that
the printed metrics are exactly the ones BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1), and prints the
result object as the last line of stdout. Build output and progress go to
stderr. Each run also writes a report (host facts, run identity, digests,
per-chip outcomes, and with --trace 1 the spans and the per-layer roofline
table) to <build>/reports/.

--selftest builds, runs the helper self-tests, and smoke-runs every workload
twice plus once traced at minimal size, requiring identical output digests.

Exit status: 0 on success; non-zero on a build failure, a correctness
failure or a malformed result — never because of a timing.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("mlp_lot", "vgg_lot", "mlp_dist")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "core" / "fleet_executor.h").is_file():
        raise SystemExit(f"run.py: no library sources under {ROOT / 'src'}; "
                         "run from the root of a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code a
    result came from even when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", BENCH_DIR) for p in d.rglob("*")
             if p.is_file() and p.suffix in (".h", ".cpp", ".py", ".txt")]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(out, workload, seed, seconds, trace, smoke=False, extra=()):
    """Runs one benchmark invocation; returns (exit code, stdout lines)."""
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    cmd = [str(out / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(out / "tmp"), "--report", str(out / "reports" / f"{tag}.json"),
           *extra]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{tag}: no result within {RUN_TIMEOUT_S} s")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def check_result(line, trace):
    """Returns the result object restricted to the metrics BENCHMARK.json
    declares for the mode (the binary reports more, e.g. every layer of the
    roofline; those stay in the report file), or raises ValueError."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive whole number")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number")
    expected = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    missing = sorted(set(expected) - set(got))
    wrong = sorted(n for n in expected if n in got and got[n] != expected[n])
    if missing or wrong:
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"wrong unit {wrong}")
    result["metrics"] = {name: result["metrics"][name] for name in expected}
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            raise ValueError(f"metric {name} has no numeric value")
    return result


def digest_of(lines):
    for line in lines:
        if line.startswith("# digest "):
            return line.split()[2]
    return None


def selftest(out):
    ok = subprocess.run([str(out / "perfbench_selftest")]).returncode == 0
    for workload in WORKLOADS:
        digests = []
        for trace in (0, 0, 1):
            code, lines = run_binary(out, workload, 7, 1, trace, smoke=True)
            if code != 0:
                log(f"{workload} smoke (trace {trace}) exited {code}")
                ok = False
            digests.append(digest_of(lines))
        stable = digests[0] is not None and len(set(digests)) == 1
        log(f"{workload} smoke digests {digests}: {'stable' if stable else 'UNSTABLE'}")
        ok = ok and stable
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2
    if args.selftest:
        return selftest(out)

    code, lines = run_binary(out, args.workload, args.seed, args.seconds, args.trace,
                             extra=("--git-commit", git_commit(),
                                    "--source-digest", source_digest()))
    if not lines:
        log(f"benchmark printed nothing (exit {code})")
        return code or 1
    for line in lines[:-1]:
        print(line)
    try:
        result = check_result(lines[-1], args.trace)
    except (ValueError, KeyError, AttributeError) as err:
        log(f"malformed result: {err}")
        return 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
