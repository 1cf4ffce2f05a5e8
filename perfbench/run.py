#!/usr/bin/env python3
"""Run one benchmark workload of the EmbDI pipeline and print its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload pair-fz --seed 0 --seconds 20 --trace 0

The first call builds the program from source (sbt, in perfbench/) and
caches the class path under perfbench/.build; later calls reuse it while
the sources are unchanged. The benchmark itself runs in one JVM
(perfbench/src/main/scala/repro/perfbench/Main.scala); its progress goes to
stderr and the last line of stdout is the result object:

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. A self-describing record of the run (config, seeds, git sha,
cores, heap, versions, counts, samples) is written to
perfbench/.work/results/<workload>-seed<seed>-trace<0|1>.json.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / ".build"
WORK = BENCH / ".work"
MAIN_CLASS = "repro.perfbench.Main"
WORKLOADS = ("pair-fz", "match-im", "smoke")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads from the checkout, in a stable order."""
    roots = [ROOT / "src" / "main", BENCH / "src" / "main"]
    files = [BENCH / "build.sbt", BENCH / "project" / "build.properties", BENCH / "jvm.options"]
    for r in roots:
        files += sorted(p for p in r.rglob("*") if p.is_file())
    return files


def sources_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the group and wait."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout), proc
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, proc


def build():
    """Compile with sbt unless the cached class path matches the sources."""
    digest = sources_digest()
    stamp, cp_file = BUILD / "stamp", BUILD / "classpath"
    if stamp.exists() and cp_file.exists() and stamp.read_text() == digest:
        return cp_file.read_text().strip()
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    t0 = time.time()
    with open(log, "w") as out:
        code, _ = run_group(
            ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true",
             "compile", "export Runtime/fullClasspath"],
            BUILD_TIMEOUT_S, cwd=BENCH, stdout=out, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL)
    if code != 0:
        sys.stderr.write(log.read_text()[-4000:])
        fail(f"build failed (exit {code}); see {log}")
    lines = [l.strip() for l in log.read_text().splitlines()]
    cps = [l for l in lines if os.pathsep in l and "classes" in l and not l.startswith("[")]
    if not cps:
        fail(f"build printed no class path; see {log}")
    cp_file.write_text(cps[-1])
    stamp.write_text(digest)
    print(f"perfbench: built in {time.time() - t0:.0f} s", file=sys.stderr)
    return cps[-1]


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src", "perfbench"],
                           capture_output=True, text=True).stdout.strip()
    return r.stdout.strip() + ("-dirty" if dirty else "") if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"program sources not found under {ROOT / 'src' / 'main' / 'scala'}")
    if shutil.which("java") is None:
        fail("java not found on PATH")
    if "SPARK_HOME" not in os.environ or not (Path(os.environ["SPARK_HOME"]) / "jars").is_dir():
        fail("SPARK_HOME must point at a Spark distribution with a jars/ directory")

    classpath = build()

    results = WORK / "results"
    tmp, spark_local = WORK / "tmp", WORK / "spark-local"
    for d in (results, tmp, spark_local):
        d.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, record = results / f"{name}.result.json", results / f"{name}.json"
    result.unlink(missing_ok=True)

    jvm_opts = [l.strip() for l in (BENCH / "jvm.options").read_text().splitlines() if l.strip()]
    cmd = ["java", *jvm_opts,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={spark_local}",
           f"-Dspark.sql.warehouse.dir={WORK / 'warehouse'}",
           "-cp", classpath, MAIN_CLASS,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--result", str(result), "--record", str(record), "--git-sha", git_sha()]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(spark_local))
    code, _ = run_group(cmd, RUN_TIMEOUT_S, cwd=WORK, env=env,
                        stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if code is None:
        fail(f"benchmark process exceeded {RUN_TIMEOUT_S} s and was killed", 3)
    if code not in (0, 1) or not result.exists():
        fail(f"benchmark process failed (exit {code})", code or 2)
    print(result.read_text().strip(), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
