#!/usr/bin/env python3
"""The tuning benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --regenerate

Run from the repository root (or any checkout of it). On first use it
builds perfbench/ -- and with it the library in src/ -- into
.bench_build/perfbench. It then times set-up, runs the workload's tuning
sessions through TuningSession::run for --seconds, checks every session's
output, prints every metric by name with its unit, and prints one JSON
result as its last line. It exits 1 when an output check fails and 2 when
it cannot build or run at all.

--seed sets the order the sessions run in and the seeds of the independent
re-simulation check; the sessions themselves always tune with the paper
protocol's seed, so their outputs can be pinned. --trace 1 runs one
untraced and one traced pass and reports the per-layer metrics instead.
--regenerate rewrites perfbench/expected.tsv from serial in-process runs.
README.md describes the workloads, metrics and checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_build" / "perfbench-runs"
EXPECTED = BENCH / "expected.tsv"
WORKLOADS = ("paper-serial", "dacapo-random-4t", "specjvm-durable-2t")
SETUP_REPEATS = 11
RUN_TIMEOUT_S = 170

UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "evals_per_s": "1/s",
    "runs_per_s": "1/s", "improvement_pct": "%", "improvement_max_pct": "%",
    "peak_rss_mb": "MB",
}


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        die("build failed")
    return BUILD / "perfbench"


def common_args(workload, seed):
    return ["--workload", workload, "--seed", str(seed), "--dir", str(RUNS),
            "--expected", str(EXPECTED)]


def time_setup(binary, workload, seed):
    """Median, over fresh launches, of the program's time to prepare a pass."""
    samples = [run_program(binary, "setup", workload, seed, 0)[-1]["setup_s"]
               for _ in range(SETUP_REPEATS)]
    return statistics.median(samples), len(samples)


def run_program(binary, mode, workload, seed, seconds):
    """Runs the measuring program; relays its notes, returns its records."""
    command = [str(binary), mode, *common_args(workload, seed)]
    if mode == "run":
        command += ["--seconds", str(seconds)]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            die(f"{mode} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"{mode} exited with code {proc.returncode}")
    records = []
    for line in out.splitlines():
        if line.startswith("{"):
            records.append(json.loads(line))
        elif line:
            print(line)
    return records


def show(name, value, unit, note=""):
    print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def describe_quality(passes):
    """T2/T3-style summary of the first pass's validated improvements."""
    sessions = passes[0]["sessions"]
    groups = {"SPECjvm2008 startup": [s for s in sessions if "/startup." in s["key"]],
              "DaCapo": [s for s in sessions if "/startup." not in s["key"]]}
    for label, group in groups.items():
        if not group:
            continue
        values = sorted((100 * s["improvement"] for s in group), reverse=True)
        top = "/".join(f"{v:.1f}" for v in values[:3])
        print(f"# {label}: {len(values)} sessions, average "
              f"{statistics.mean(values):.1f}%, top three {top}%, max {values[0]:.1f}%")


def end_to_end(passes, setup_s, setup_n):
    sessions = sum(len(p["sessions"]) for p in passes)
    failed = sum(p["failed"] for p in passes)

    def med(f):
        return statistics.median(f(p) for p in passes)

    metrics = {
        "setup_s": setup_s,
        "wall_s": med(lambda p: p["wall_s"]),
        "cpu_s": med(lambda p: p["cpu_s"]),
        "evals_per_s": med(lambda p: p["evaluations"] / p["wall_s"]),
        "runs_per_s": med(lambda p: p["runs"] / p["wall_s"]),
        "improvement_pct": med(lambda p: 100 * statistics.mean(
            s["improvement"] for s in p["sessions"])),
        "improvement_max_pct": med(lambda p: 100 * max(
            s["improvement"] for s in p["sessions"])),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    n = len(passes)
    notes = {
        "setup_s": f"median of {setup_n} set-ups",
        "wall_s": f"median of {n} passes, {len(passes[0]['sessions'])} sessions each",
        "cpu_s": f"median of {n} passes, user+sys incl. reaped workers",
        "evals_per_s": f"median of {n} passes",
        "runs_per_s": f"median of {n} passes",
        "improvement_pct": f"median of {n} passes",
        "improvement_max_pct": f"median of {n} passes",
        "peak_rss_mb": "process and reaped children",
    }
    for name, value in metrics.items():
        show(name, value, UNITS[name], notes[name])
    show_fractions(passes)
    return metrics, sessions, failed


def show_fractions(passes):
    """failed_frac and diverged_frac, with their bases. They are printed,
    not returned as metrics: both are 0 on a healthy run of most workloads
    (see README.md)."""
    sessions = sum(len(p["sessions"]) for p in passes)
    for name, count in (("failed", sum(p["failed"] for p in passes)),
                        ("diverged", sum(p["diverged"] for p in passes))):
        print(f"{name}_frac = {count / sessions:.6g}  "
              f"({count} {name} / {sessions} sessions run)")


def per_layer(plain, traced, layers):
    metrics = {}
    for m in layers["metrics"]:
        metrics[m["name"]] = (m["value"], m["unit"])
        note = f"n={m['samples']}" + (f", {m['detail']}" if m["detail"] else "")
        show(m["name"], m["value"], m["unit"], note)
    print(f"# tracing overhead = {layers['tracing_overhead']:.4f}  "
          f"(traced wall_s {traced['wall_s']:.3f} / untraced wall_s {plain['wall_s']:.3f})")
    print("# traced digests equal untraced, no process left: "
          + ("yes" if layers["checks_ok"] else "NO"))
    return metrics


def benchmark(args):
    binary = build()
    RUNS.mkdir(parents=True, exist_ok=True)
    if args.trace:
        records = run_program(binary, "trace", args.workload, args.seed, args.seconds)
        plain, traced, layers = records
        metrics = per_layer(plain, traced, layers)
        show_fractions([plain, traced])
        describe_quality([plain])
        attempted = len(plain["sessions"]) + len(traced["sessions"])
        failed = plain["failed"] + traced["failed"]
        correct = failed == 0 and layers["checks_ok"]
    else:
        setup_s, setup_n = time_setup(binary, args.workload, args.seed)
        passes = run_program(binary, "run", args.workload, args.seed, args.seconds)
        raw, attempted, failed = end_to_end(passes, setup_s, setup_n)
        describe_quality(passes)
        metrics = {name: (value, UNITS[name]) for name, value in raw.items()}
        correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def regenerate():
    binary = build()
    done = subprocess.run([str(binary), "reference"], stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        die("reference run failed")
    header = (
        "# Pinned serial in-process references of the perfbench workloads.\n"
        "# Regenerate: python3 perfbench/run.py --regenerate\n"
        "# Columns: session, trajectory digest, rows, validated improvement\n"
        "# (%.17g), digest of all rows but the tail, tail rows\n"
        "# (fingerprint:objective-bits:stop:phase; '-' for strict sessions).\n"
    )
    EXPECTED.write_text(header + done.stdout)
    print(f"wrote {EXPECTED}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true")
    args = parser.parse_args()
    if args.regenerate:
        return regenerate()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
