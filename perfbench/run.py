#!/usr/bin/env python3
"""Build the benchmark and the daemon from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The build goes to
$CARGO_TARGET_DIR (default .bench_build) in release profile; build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    for need in ("dune-project", "lib", "bin", "test/golden/fig-3.6.txt"):
        if not os.path.exists(os.path.join(root, need)):
            sys.stderr.write(
                "perfbench: %s not found; run from the root of a checkout of the repository\n"
                % need
            )
            return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    targets = ["perfbench/bench.exe", "bin/dpmr_serve.exe"]
    # the shared dune cache lives outside the checkout; keep the build inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile", "release"]
        + ["./" + t for t in targets],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    out = os.path.join(build_dir, "default")
    bench = subprocess.run(
        [os.path.join(out, "perfbench/bench.exe")]
        + sys.argv[1:]
        + ["--serve-exe", os.path.join(out, "bin/dpmr_serve.exe")]
    )
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
