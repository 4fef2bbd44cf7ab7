"""Build file of the benchmark: compiles the program's sources and the
benchmark's own into one class directory, with the Scala compiler that
ships in the Spark distribution (so no build tool or network is needed).

    python3 perfbench/build.py          # from the checkout root

The build is skipped when neither the sources nor the Spark jars changed.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BuildError(Exception):
    pass


def build_dir() -> Path:
    """Where build outputs and results go: $CARGO_TARGET_DIR, else .bench_build."""
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def spark_jars() -> list:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(os.path.realpath(submit)).parent.parent)
    jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar"))) if home else []
    if not jars:
        raise BuildError("no Spark jars found: set SPARK_HOME or put spark-submit on PATH")
    return jars


def sources() -> list:
    program = ROOT / "src" / "main" / "scala"
    if not program.is_dir():
        raise BuildError(f"program sources not found under {program}")
    found = sorted(program.rglob("*.scala")) + sorted((HERE / "src").rglob("*.scala"))
    return [str(p) for p in found]


def build() -> Path:
    """Compile if needed; return the class directory."""
    jars = spark_jars()
    srcs = sources()
    stamp = hashlib.sha256()
    for path in srcs:
        stamp.update(os.path.relpath(path, ROOT).encode())
        stamp.update(Path(path).read_bytes())
    for jar in jars:
        stamp.update(os.path.basename(jar).encode())
    digest = stamp.hexdigest()

    out = build_dir() / "perfbench"
    classes = out / "classes"
    stamp_file = out / "classes.stamp"
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == digest:
        return classes

    tmp = out / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cp = os.pathsep.join(jars)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", cp, "scala.tools.nsc.Main",
           "-classpath", cp, "-d", str(tmp), "-nowarn"] + srcs
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if done.returncode != 0:
        raise BuildError(f"scalac exited with {done.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp_file.write_text(digest)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except (BuildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        sys.exit(1)
