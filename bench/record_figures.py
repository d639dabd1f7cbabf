#!/usr/bin/env python3
"""Appends one row to BENCH_figures.json: host cost of every figure bench.

Runs the 24 figure/table benches (bench_fig04 .. bench_fig26 and
bench_table4) of one build at FABRICSIM_JOBS=4, one after the other,
and records for each its wall time, CPU time (user + system), peak RSS
and the SHA-256 of its stdout. fig11 prints the host wall time of each
run in its last column; that column is left out of the hash, so equal
hashes mean every simulated number printed is equal. The row also
names the commit the build was configured from (the source tree named
by its CMakeCache.txt, -dirty if that tree has changes other than the
output file), the compiler, the build type and the host's hardware
concurrency. The kernel counts a child's peak RSS from before
it execs, so a bench smaller than this interpreter reads the
interpreter's size (about 18 MB).

This is a trajectory, not a CI gate: wall time on shared CI hosts is
noise. Compare rows only when they come from the same host, and run
nothing else heavy meanwhile.

Usage:
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j
  python3 bench/record_figures.py --build build-release --label change
"""

import argparse
import glob
import hashlib
import json
import os
import re
import subprocess
import tempfile
import time

BENCHES = [
    "bench_fig04_best_block_size",
    "bench_fig05_minmax_failures",
    "bench_fig06_latency_throughput",
    "bench_fig07_mvcc_blocksize",
    "bench_fig08_mvcc_arrival",
    "bench_fig09_endorsement_blocksize",
    "bench_fig10_phantom_blocksize",
    "bench_fig11_database_type",
    "bench_fig12_num_orgs",
    "bench_fig13_endorsement_policy",
    "bench_fig14_workloads",
    "bench_fig15_zipf_skew",
    "bench_fig16_network_delay",
    "bench_fig17_fabricpp_blocksize",
    "bench_fig18_fabricpp_chaincodes",
    "bench_fig19_fabricpp_workloads",
    "bench_fig20_streamchain_rate",
    "bench_fig21_streamchain_throughput",
    "bench_fig22_streamchain_workloads",
    "bench_fig23_streamchain_ramdisk",
    "bench_fig24_fabricsharp",
    "bench_fig25_fabricsharp_workloads",
    "bench_fig26_system_comparison",
    "bench_table4_database_type",
]

JOBS = 4
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A fig11 data row: database, four simulated columns, then the host
# wall time in ms.
FIG11_ROW = re.compile(r"^(\S+(?: +[-\d.]+){4}) +\d+$")


def simulated_stdout(bench, out):
    if bench != "bench_fig11_database_type":
        return out
    lines = out.decode().split("\n")
    return "\n".join(FIG11_ROW.sub(r"\1", line) for line in lines).encode()


def run_bench(binary):
    env = dict(os.environ, FABRICSIM_JOBS=str(JOBS))
    env.pop("FABRICSIM_FULL", None)
    with tempfile.TemporaryDirectory() as cwd:  # benches may write files
        start = time.monotonic()
        with subprocess.Popen([binary], stdout=subprocess.PIPE, cwd=cwd,
                              env=env) as proc:
            out = proc.stdout.read()
            # wait4 reaps the child and returns its own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, wall, usage


def cmake_cache(build, key):
    with open(os.path.join(build, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def compiler(build):
    for path in glob.glob(os.path.join(build, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            return ident.group(1) + " " + version.group(1)
    return "unknown"


def source_commit(build, out):
    src = os.path.realpath(cmake_cache(build, "CMAKE_HOME_DIRECTORY"))

    def git(*args):
        return subprocess.run(["git", "-C", src, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    # The rows file may live in the source tree; appending to it is not a
    # change to the source that was built.
    rel = os.path.relpath(os.path.realpath(out), src)
    spec = [] if rel.startswith("..") else ["--", ".", ":(exclude)" + rel]
    try:
        commit = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "-uno", *spec)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # not a git checkout, e.g. a git archive export
    return commit + ("-dirty" if dirty else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True,
                        help="cmake build directory holding bench/")
    parser.add_argument("--label", required=True,
                        help="what the row measures, e.g. parent or change")
    parser.add_argument("--out", default=os.path.join(REPO,
                                                      "BENCH_figures.json"))
    args = parser.parse_args()

    benches = {}
    failed = []
    for bench in BENCHES:
        out, code, wall, usage = run_bench(
            os.path.join(args.build, "bench", bench))
        if code != 0:
            failed.append(bench)
        benches[bench] = {
            "wall_s": round(wall, 3),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
            "max_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
            "stdout_sha256": hashlib.sha256(
                simulated_stdout(bench, out)).hexdigest(),
            "exit_code": code,
        }
        print(f"{bench:40s} {wall:8.2f} s", flush=True)

    row = {
        "label": args.label,
        "commit": source_commit(args.build, args.out),
        "compiler": compiler(args.build),
        "build_type": cmake_cache(args.build, "CMAKE_BUILD_TYPE"),
        "hardware_concurrency": os.cpu_count(),
        "fabricsim_jobs": JOBS,
        "total_wall_s": round(sum(b["wall_s"] for b in benches.values()), 3),
        "total_cpu_s": round(sum(b["cpu_s"] for b in benches.values()), 3),
        "benches": benches,
    }
    doc = {"schema_version": 1, "kind": "fabricsim.bench_figures", "rows": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["rows"].append(row)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"total {row['total_wall_s']:.2f} s wall, "
          f"{row['total_cpu_s']:.2f} s CPU -> {args.out}")
    if failed:
        print("FAILED: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
