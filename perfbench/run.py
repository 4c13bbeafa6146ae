#!/usr/bin/env python3
"""Build the session server and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_long --seed 1 --seconds 15 --trace 0

Both are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). Build output goes to stderr; the benchmark's report,
ending in one JSON line, goes to stdout. The exit code is the build's
or the benchmark's.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(env, args):
    cmd = ["cargo", "build", "--release", "--offline", "-q"] + args
    done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(done.returncode or 1)


def source_digest(root):
    """A digest of the simulator and benchmark sources, standing in for a
    commit id where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("crates", "boards", "perfbench", "Cargo.toml", "Cargo.lock"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit_id(root):
    """The checkout's git commit, or a digest of its sources when it is
    not the top of a git repository."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], root):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + source_digest(root)


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("perfbench: run from the repository root (no Cargo.toml here)")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    build(env, ["--manifest-path", os.path.join(root, "Cargo.toml"),
                "-p", "disc-serve", "--bin", "disc_served"])
    build(env, ["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    exe = os.path.join(target, "release", "perfbench")
    server = os.path.join(target, "release", "disc_served")
    cmd = [exe, "--server", server, "--root", root, "--commit", commit_id(root)] + sys.argv[1:]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
