#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from anywhere; the checkout root is this file's parent directory:

    python3 perfbench/run.py --workload train-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare old.json new.json

The Go program in perfbench/ is built from source into the build directory
($CARGO_TARGET_DIR when set, else .bench_build/ at the checkout root), with
its Go build cache and temporary files kept there too, and then run with the
same arguments. Its standard output is passed through; the last line is the
JSON result. A failed build exits with code 3 and prints no result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(build):
    env = dict(os.environ)
    for sub in ("gocache", "gopath", "config", "tmp"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    return env


def source_digest():
    """The git commit when the checkout is a repository, else a digest of
    the Go sources and module files."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    skip = {".git", os.path.basename(build_dir())}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 3
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: %s holds no go.mod; run from a checkout of the repository" % ROOT,
              file=sys.stderr)
        return 3
    build = build_dir()
    env = go_env(build)
    binary = os.path.join(build, "perfbench")
    b = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if b.returncode != 0:
        sys.stderr.write(b.stdout)
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 3
    env["PERFBENCH_COMMIT"] = source_digest()
    try:
        p = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
