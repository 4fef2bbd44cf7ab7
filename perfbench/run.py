"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload insert-zipf --seed 1 --seconds 10 --trace 0

Run from the checkout root. The first run builds the program and the
benchmark from source (see build.py). The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}; the lines before
it give the run context, every figure with its unit, and any failed query.
The full record (context, per-pass times, failures, spans of a traced run)
is written under the build directory, in perfbench/results/.

--scale tiny is for the benchmark's own tests.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
import build  # noqa: E402

HERE = build.HERE
JAVA_TIMEOUT_S = 170

# JDK 17 module opens that the Spark launcher would otherwise add.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    return p.parse_args(argv)


def main(argv):
    args = parse(argv)
    try:
        classes = build.build()
        jars = build.spark_jars()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = build.build_dir() / "perfbench"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    out = work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = (["java", "-Xmx3g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
            "-Dspark.driver.host=127.0.0.1"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in OPENS]
           + ["-cp", os.pathsep.join([str(classes)] + jars), "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace,
              "--scale", args.scale, "--out", str(out)])
    # Spark would put its scratch space in these directories instead of the
    # build directory, which may be outside the checkout.
    env = {k: v for k, v in os.environ.items() if k not in ("SPARK_LOCAL_DIRS", "LOCAL_DIRS")}
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=JAVA_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {JAVA_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        # Also on SIGTERM or Ctrl-C: never leave the JVM running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.rstrip("\n").splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"benchmark exited with {proc.returncode}")
        result = json.loads(lines[-1] if lines else "")
        if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("last line is not a result")
    except ValueError as e:
        sys.stderr.write(stdout)
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
