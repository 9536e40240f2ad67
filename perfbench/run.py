#!/usr/bin/env python3
"""ARDA benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kraken_rifs --seed 1 --seconds 10 --trace 0

It builds the program and the benchmark from source with sbt (offline)
into .bench_build/ the first time, or whenever a source file changed,
then runs one JVM (perfbench.Main). The last line of standard output is
the JSON result: {"correct", "attempted", "failed", "metrics"}. The line
before it ("info") holds the end-to-end quantities that carry no bound.
Build and Spark logs go to standard error.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("kraken_rifs", "school_l_tr", "taxi_rifs")

# Whole-run limit for one measurement, build excluded.
RUN_LIMIT_S = 170
# Fixed driver heap, so that peak heap compares across machines.
HEAP = "3g"

# Everything the compiled program depends on: the repository's build and
# main sources, and the benchmark's own build and sources.
SOURCES = ("build.sbt", "project", "src/main", "jobs",
           "perfbench/build.sbt", "perfbench/project", "perfbench/src")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def walk(path):
    """Files under `path`, sorted, without build outputs."""
    if os.path.isfile(path):
        return [path]
    out = []
    for d, dirs, files in os.walk(path):
        dirs[:] = [x for x in dirs if x not in ("target", "project")]
        out += [os.path.join(d, f) for f in files]
    return sorted(out)


def source_stamp():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        for f in walk(path):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def classpath():
    """The runtime classpath, building first if the sources changed."""
    stamp_file = os.path.join(BUILD, "classpath.json")
    stamp = source_stamp()
    try:
        with open(stamp_file) as fh:
            cached = json.load(fh)
        cp = cached["classpath"]
        built = all(os.path.exists(e) for e in cp.split(os.pathsep) if e.startswith(ROOT))
        if cached["stamp"] == stamp and built:
            return cp
    except (OSError, ValueError, KeyError):
        pass
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true",
           "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={os.path.join(BUILD, 'sbt-global')}",
           f"-Dsbt.ivy.home={os.path.join(BUILD, 'ivy')}",
           f"-Djna.tmpdir={os.path.join(BUILD, 'tmp')}",
           f"-Djava.io.tmpdir={os.path.join(BUILD, 'tmp')}", "-J-XX:-UsePerfData",
           "compile", "export Runtime/fullClasspath"]
    print(f"perfbench: building ({' '.join(cmd)})", file=sys.stderr)
    p = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                       stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    sys.stderr.write(p.stdout)
    lines = [l.strip() for l in p.stdout.splitlines() if l.strip()]
    # `export` prints the classpath, which starts with this build's classes.
    if p.returncode != 0 or not lines or not lines[-1].startswith(os.path.join(HERE, "target")):
        fail(f"build failed (sbt exit {p.returncode})", 1)
    cp = lines[-1]
    with open(stamp_file, "w") as fh:
        json.dump({"stamp": stamp, "classpath": cp}, fh)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    for rel in ("build.sbt", "src/main/scala"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"no {rel} at {ROOT}: run from the root of a source checkout")

    cp = classpath()
    work = os.path.join(BUILD, "run")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # -UsePerfData: no hsperfdata files outside the checkout.
    cmd = ["java", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--work", work]
    # Own process group, so a timeout stops the JVM and anything it started.
    p = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"run exceeded {RUN_LIMIT_S} s", 1)
    lines = out.splitlines()
    result = [l for l in lines if l.startswith('{"correct"')]
    for l in lines:
        if l not in result:
            print(l)
    if p.returncode != 0 or len(result) != 1:
        fail(f"benchmark JVM exit {p.returncode}", 1)
    print(result[0])


if __name__ == "__main__":
    main()
