#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload pr_seq --seed 1 --seconds 30 --trace 0

The Go program in this directory is built from source into .bench_build/
(build cache and temporary files included), then run with the arguments
given here plus the run metadata this script can see: the git commit,
when the tree is a git checkout, and a digest of the Go sources. Its exit
code is passed through. Nothing is read or written outside the repository
apart from the Go toolchain itself.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def git_commit():
    """Reads HEAD from .git without running git, or returns "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the path and bytes of every Go source and module file."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    exe = os.path.join(BUILD, "perfbench-bin")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["--commit", git_commit(), "--source-sha256", source_digest()]
    return subprocess.run([exe] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
