#!/usr/bin/env python3
"""Runs one benchmark workload against the repository checkout it sits in.

    python3 perfbench/run.py --workload deep-d4 --seed 1 --seconds 30 --trace 0

The first call in a checkout builds the library and the benchmark program with
sbt (perfbench/build.sbt); later calls reuse that build while the sources are
unchanged. The JVM then runs one workload and prints the environment, the
checks and every metric as text, and as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Build outputs, traces and Spark's scratch files go to $CARGO_TARGET_DIR
(default .bench_build) under the checkout. Needs SPARK_HOME, sbt and java.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Sources whose change requires a rebuild.
SOURCES = [ROOT / "src" / "main", ROOT / "jobs", BENCH / "src", BENCH / "build.sbt", BENCH / "project" / "build.properties"]
WORKLOADS = ["deep-d4", "sweep-d12", "dist-d4"]
# The VFree/FilterV recursions need a deep stack (as in the root build's tests).
JVM_OPTS = ["-Xss64m", "-Xms3g", "-Xmx3g", "-XX:+ExitOnOutOfMemoryError"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    h = hashlib.sha256()
    for src in SOURCES:
        files = sorted(p for p in src.rglob("*") if p.is_file()) if src.is_dir() else [src]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def build(out):
    """Compiles with sbt once per source state; returns (runtime classpath, source stamp)."""
    stamp_file, cp_file = out / "build.stamp", out / "classpath.txt"
    stamp = source_stamp()
    if stamp_file.exists() and cp_file.exists() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip(), stamp
    env = dict(os.environ, PERFBENCH_TARGET=str(out / "sbt-target"))
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=BENCH, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail("build failed")
    cps = [line for line in proc.stdout.splitlines() if "sbt-target" in line and not line.startswith("[")]
    if not cps:
        fail("build printed no classpath")
    cp_file.write_text(cps[-1].strip())
    stamp_file.write_text(stamp)
    return cps[-1].strip(), stamp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="relabels the stand-in's vertices and timestamps (default: none, as generated)")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no library sources under {ROOT / 'src' / 'main' / 'scala'}")
    if not os.environ.get("SPARK_HOME"):
        fail("SPARK_HOME is not set")
    out = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    tmp = out / "tmp"
    (tmp / "spark").mkdir(parents=True, exist_ok=True)
    classpath, stamp = build(out)

    jvm = ["java", *JVM_OPTS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={tmp / 'spark'}",
           f"-Dspark.sql.warehouse.dir={tmp / 'warehouse'}",
           "-Dspark.ui.enabled=false",
           "-Dspark.driver.host=127.0.0.1",
           "-Dfile.encoding=UTF-8",
           f"-Dperfbench.out={out}",
           f"-Dperfbench.build={stamp[:16]}",
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        jvm += ["--seed", str(args.seed)]
    proc = subprocess.Popen(jvm, cwd=ROOT, stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    sys.exit(code)


if __name__ == "__main__":
    main()
