#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload pinned --seed 1 --seconds 20 --trace 0

Every argument is passed to the command unchanged. The Go build cache, the
binary and the traced run's files all go under .bench_build/ in the
repository root, so nothing is written outside it; the command runs with
the same environment, since the traced run reads its CPU profile through
`go tool pprof`. The exit code is the
command's; a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

# The command keeps itself within 180 s; this only guards a hung process.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def git_commit(root, env):
    """Return HEAD (with -dirty for tracked edits), or "unknown" outside git."""
    try:
        rev = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
        if rev.returncode != 0:
            return "unknown"
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                               env=env, capture_output=True, text=True, timeout=30)
        return rev.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod above %s; the simulator's sources are missing" % here,
              file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    home = os.path.join(out, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    ldflags = "-X main.buildCommit=" + git_commit(root, env)
    try:
        build = subprocess.run(["go", "build", "-buildvcs=false", "-ldflags", ldflags, "-o", binary, "."],
                               cwd=here, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        # The traced run calls `go tool pprof`; it gets the same environment.
        return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
