#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run builds the program and
the benchmark driver from source with sbt (into perfbench/target; the
classpath is cached in .bench_build); later runs rebuild only when a source
file changed. Each run starts one JVM (see BenchMain.scala), checks the
outputs, compares their fingerprint with earlier runs of the same workload
and seed, stores a result file under .bench_build/results and prints the
summary as its last line of standard output.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import aggregate  # noqa: E402

WORKLOADS = {
    # workload -> seed used when --seed is omitted (the NetSpec's own seed)
    "flow-bitcoin": 11,
    "solve-prosper": 37,
    "pattern-prosper": 37,
}
HEAP = "3g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# The module opens spark-submit passes; without them Spark fails on JDK 17.
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources(root):
    """Every file the build reads, in a stable order."""
    bench = root / "perfbench"
    files = [bench / "build.sbt", bench / "project" / "build.properties"]
    for d in (root / "src" / "main" / "scala", bench / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def build(root, out):
    """Compiles program and driver when a source changed; returns the classpath."""
    if not (root / "src" / "main" / "scala" / "repro").is_dir():
        fail(f"no program sources under {root / 'src/main/scala'}; run from the root of a checkout")
    digest = hashlib.sha256()
    for f in sources(root):
        digest.update(str(f.relative_to(root)).encode())
        digest.update(f.read_bytes())
    stamp = digest.hexdigest()
    cp_file, stamp_file = out / "classpath.txt", out / "build.stamp"
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return cp_file.read_text()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    print("perfbench: building with sbt", file=sys.stderr)
    p = subprocess.run(cmd, cwd=root / "perfbench", env=env, stdin=subprocess.DEVNULL,
                       capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    lines = [ln for ln in p.stdout.splitlines() if ln.strip()]
    if p.returncode != 0 or not lines or "classes" not in lines[-1]:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        fail("build failed")
    cp_file.write_text(lines[-1].strip())
    stamp_file.write_text(stamp)
    return lines[-1].strip()


def git_sha(root):
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def check_fingerprints(root, out, workload, seed, prints):
    """Problems found: repetitions that disagree, or a disagreement with the
    committed fingerprint or with an earlier run in this checkout."""
    if not prints:
        return ["no fingerprint recorded"]
    problems = [f"repetition {i} fingerprint {fp} != {prints[0]}"
                for i, fp in enumerate(prints[1:], 1) if not aggregate.same_fingerprint(fp, prints[0])]
    key = f"{workload}/{seed}"
    expected = json.loads((root / "perfbench" / "expected_fingerprints.json").read_text())
    if key in expected and not aggregate.same_fingerprint(prints[0], expected[key]):
        problems.append(f"fingerprint {prints[0]} != committed {expected[key]}")
    store = out / "fingerprints" / f"{workload}-{seed}.json"
    if store.exists():
        earlier = json.loads(store.read_text())
        if not aggregate.same_fingerprint(prints[0], earlier):
            problems.append(f"fingerprint {prints[0]} != earlier run {earlier}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(prints[0], sort_keys=True))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    seed = WORKLOADS[a.workload] if a.seed is None else a.seed

    root = pathlib.Path.cwd()
    out = root / ".bench_build"
    out.mkdir(parents=True, exist_ok=True)
    classpath = build(root, out)

    raw_file = out / f"raw-{os.getpid()}.json"
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
           + ["-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
              f"-Dlog4j2.configurationFile={root / 'perfbench' / 'log4j2.properties'}",
              "-Dspark.driver.host=127.0.0.1", f"-Dspark.local.dir={out / 'spark-local'}",
              "-cp", classpath, "repro.perfbench.BenchMain",
              "--workload", a.workload, "--seed", str(seed), "--seconds", str(a.seconds),
              "--trace", str(a.trace), "--out", str(raw_file)])
    started = time.time()
    try:
        p = subprocess.run(cmd, cwd=root, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    if p.returncode != 0 or not raw_file.exists():
        fail(f"{a.workload} exited with code {p.returncode}")
    raw = json.loads(raw_file.read_text())
    raw_file.unlink()

    failures = list(raw["failures"])
    problems = check_fingerprints(root, out, a.workload, seed, raw["fingerprints"])
    values = aggregate.metrics(raw, bool(a.trace))
    for msg in (failures + problems)[:20]:
        print(f"perfbench: {msg}", file=sys.stderr)
    correct = not failures and not problems

    config = dict(raw["config"], git_sha=git_sha(root), heap=HEAP, host=platform.node(),
                  python=platform.python_version(), trace=a.trace, wall_s=time.time() - started)
    result = {"config": config, "fingerprint": raw["fingerprints"][0] if raw["fingerprints"] else None,
              "correct": correct, "attempted": raw["attempted"], "failed": len(failures),
              "failures": failures[:100], "problems": problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    results = out / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{a.workload}-seed{seed}-trace{a.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(result, indent=1))
    print(aggregate.summary(correct, raw["attempted"], len(failures), values))


if __name__ == "__main__":
    main()
