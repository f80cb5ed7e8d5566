#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The OCaml benchmark lives in this directory and builds only under the
`perfbench` dune profile, so the repository's default `dune build` and
`dune runtest` aliases never include it. The build goes to
`.bench_build/dune` in the checkout; dune's own incremental build makes a
repeated run's build a no-op. The benchmark's scratch files go to
`.bench_build/perfbench`. Every argument is passed through unchanged, and
the benchmark's exit code is this script's exit code. A failed build
exits with code 2 and prints no result.
"""

import os
import subprocess
import sys


def build(root: str, build_root: str, env: dict) -> bool:
    try:
        done = subprocess.run(
            [
                "dune", "build", "--root", root, "--profile", "perfbench",
                "--build-dir", os.path.join(build_root, "dune"),
                "./perfbench/perfbench.exe",
            ],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=840,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main() -> int:
    root = os.getcwd()
    build_root = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(build_root, "perfbench"), exist_ok=True)
    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    exe = os.path.join(build_root, "dune", "default", "perfbench", "perfbench.exe")
    if not build(root, build_root, env):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
