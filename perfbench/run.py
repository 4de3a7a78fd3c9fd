#!/usr/bin/env python3
"""Benchmark for the revenue-maximisation system.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload flixster-rma --seed 1 --seconds 25 --trace 0

The first run builds the program and the benchmark with sbt into the
checkout (`target/`, `perfbench/target/`, `.bench_build/`); later runs reuse
the build while the sources are unchanged. Each run starts a fresh JVM, checks
every allocation it makes, and prints the result object as the last line:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.

Record every workload (untraced and traced) into one file, and print the
baseline table from such a file:

    python3 perfbench/run.py --record perfbench/results/seed-b728b68.json --seed 1 --seconds 25
    python3 perfbench/run.py --table perfbench/results/seed-b728b68.json

`lastfm-ticarm` runs like the others but is not part of BENCHMARK.json (see
Workloads.scala).
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["flixster-rma", "dblp-wc-subsim", "lastfm-ticarm"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
MAIN_CLASS = "repro.perfbench.Main"

# JDK 17 module opens that spark-submit would pass (same list as build.sbt).
JVM_OPENS = [
    f"--add-opens={p}=ALL-UNNAMED"
    for p in [
        "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
        "java.base/java.io", "java.base/java.net", "java.base/java.nio",
        "java.base/java.util", "java.base/java.util.concurrent",
        "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
        "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
        "java.base/sun.util.calendar",
    ]
] + ["-Djdk.reflect.useDirectMethodHandle=false"]


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_proc(cmd, cwd, timeout, stdout, stderr):
    """Run `cmd` in its own process group; on timeout kill the whole group and
    wait for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def source_stamp(root):
    """Hash of every build input, so a changed source triggers a rebuild."""
    h = hashlib.sha256()
    skip = {".git", ".bench_build", "target", "results"}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            if name.endswith((".scala", ".java", ".sbt", ".properties")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def ensure_build(root, build_dir):
    stamp_file = os.path.join(build_dir, "stamp")
    cp_file = os.path.join(build_dir, "classpath")
    stamp = source_stamp(root)
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as f:
                    return f.read()
    tmp = os.path.join(build_dir, "sbt-tmp")
    os.makedirs(tmp, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    with open(log, "w") as logf:
        rc, out = run_proc(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
             f"-Djava.io.tmpdir={tmp}", "-J-XX:-UsePerfData",
             "compile", "export Runtime/fullClasspath"],
            cwd=os.path.join(root, "perfbench"), timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=logf)
    text = out.decode(errors="replace")
    with open(log, "a") as logf:
        logf.write(text)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    cp = lines[-1].strip() if lines else ""
    if rc != 0 or not cp or not all(os.path.exists(p) for p in cp.split(os.pathsep)):
        die(f"build failed (exit {rc}); see {log}")
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp


def driver_mem():
    """SPARK_DRIVER_MEM if set, else half of physical memory clamped to 2..8 GB."""
    mem = os.environ.get("SPARK_DRIVER_MEM")
    if mem:
        return mem
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:"))
        return f"{min(8, max(2, kb // 2097152))}g"
    except (OSError, StopIteration, ValueError):
        return "2g"


def commit_of(root):
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return "unknown"


def expected_metrics(root, trace):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(root, workload, seed, seconds, trace):
    """Run one workload in a fresh JVM; return (stdout lines, result, report)."""
    build_dir = os.path.join(root, ".bench_build")
    cp = ensure_build(root, build_dir)
    work = os.path.join(build_dir, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    tag = f"{workload}-s{seed}-t{trace}"
    report = os.path.join(build_dir, "reports", f"{tag}.json")
    os.makedirs(os.path.dirname(report), exist_ok=True)
    log = os.path.join(build_dir, "logs", f"{tag}.log")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    mem = driver_mem()
    # A fixed heap (-Xms = -Xmx), so every run resizes no heap and the GC
    # work a solve pays depends on the program, not on how far G1 had grown.
    cmd = (["java", f"-Xms{mem}", f"-Xmx{mem}", "-XX:-UsePerfData"] + JVM_OPENS +
           [f"-Djava.io.tmpdir={tmp}", "-cp", cp, MAIN_CLASS,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", work, "--report", report,
           "--commit", commit_of(root), "--driver-mem", mem])
    with open(log, "w") as logf:
        rc, out = run_proc(cmd, cwd=root, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE, stderr=logf)
    lines = out.decode(errors="replace").splitlines()
    if rc != 0:
        with open(log) as f:
            tail = f.read()[-3000:]
        die(f"{workload} exited with {rc}; log {log}:\n{tail}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"{workload} printed no result line")
    with open(report) as f:
        return lines, result, json.load(f)


def validate(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(f"result has keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        die("attempted/failed must be whole numbers, attempted >= 1")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            die(f"metric {name} is not a finite number")
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            die(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}")


def fmt(x, nd=2):
    return f"{x:.{nd}f}"


def print_table(path):
    """ROADMAP baseline table from a `--record` file."""
    with open(path) as f:
        rec = json.load(f)
    runs = {(r["meta"]["workload"], r["meta"]["trace"]): r for r in rec["runs"]}
    names = [w for w in WORKLOADS if (w, True) in runs and (w, False) in runs]
    meta = runs[(names[0], False)]["meta"]
    print(f"commit {meta['commit']}, {meta['spark_master']} (nproc {meta['nproc']}), "
          f"driver memory {meta['spark_driver_mem']}, {meta['jvm']}, seed {meta['seed']}")
    rows = []

    def row(label, f):
        rows.append([label] + [f(runs[(w, False)], runs[(w, True)]) for w in names])

    def colls(t):
        return t["rma"]["collections"]

    row("env build (s)", lambda u, t: fmt(u["end_to_end"]["setup_s"]))
    row("solve: cold / warm median (s)",
        lambda u, t: f"{fmt(u['solve_s'][0])} / {fmt(u['end_to_end']['solve_s'])}")
    row("RMA.run (s)", lambda u, t: fmt(t["rma"]["run_s"]))
    row("iterations, |R1|", lambda u, t: f"{t['rma']['iterations']}, {t['rma']['num_sets']:,}")
    row("theta_max", lambda u, t: f"{t['rma']['theta_max']:.2e}")
    row("beta at stop (lambda-eps)",
        lambda u, t: f"{t['rma']['beta']:.3f} ({t['rma']['lambda'] - t['rma']['eps']:.3f})")
    row("|R1| collection: job / append / index (s)",
        lambda u, t: " / ".join(fmt(colls(t)[0][k]) for k in ("job_s", "append_s", "index_s")))
    row("incidences (avg RR size)",
        lambda u, t: f"{colls(t)[0]['incidences'] / 1e6:.1f}M "
                     f"({colls(t)[0]['incidences'] / colls(t)[0]['sets']:.1f})")
    row("Search.rmWithOracle (s)", lambda u, t: fmt(t["rma"]["search_s"]))
    row("revenue", lambda u, t: f"{u['end_to_end']['revenue']:.0f}")
    row("RR sets per solve / peak",
        lambda u, t: f"{u['end_to_end']['rr_sets']:,.0f} / {u['end_to_end']['rr_sets_peak']:,.0f}")
    widths = [max(len(r[i]) for r in rows + [[""] + names]) for i in range(len(names) + 1)]
    print(" | ".join(h.ljust(w) for h, w in zip([""] + names, widths)))
    print("-+-".join("-" * w for w in widths))
    for r in rows:
        print(" | ".join(c.ljust(w) for c, w in zip(r, widths)))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", metavar="FILE", help="run every workload, traced and untraced, into FILE")
    ap.add_argument("--table", metavar="FILE", help="print the baseline table from a --record FILE")
    a = ap.parse_args()

    if a.table:
        print_table(a.table)
        return
    root = os.getcwd()
    for needed in ("build.sbt", os.path.join("src", "main", "scala"), os.path.join("perfbench", "build.sbt")):
        if not os.path.exists(os.path.join(root, needed)):
            die(f"run from the root of a checkout: {needed} is missing", code=2)
    if a.record:
        runs = []
        for w in WORKLOADS:
            for t in (0, 1):
                t0 = time.time()
                _, result, report = run_workload(root, w, a.seed, a.seconds, t)
                print(f"{w} trace={t}: {time.time() - t0:.0f} s, correct={result['correct']}",
                      file=sys.stderr)
                runs.append(report)
        with open(a.record, "w") as f:
            json.dump({"runs": runs}, f, indent=1)
        print_table(a.record)
        return
    if not a.workload:
        die("--workload is required", code=2)
    lines, result, _ = run_workload(root, a.workload, a.seed, a.seconds, a.trace)
    validate(result, expected_metrics(root, a.trace))
    for ln in lines[:-1]:
        print(ln)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
