#!/usr/bin/env python3
"""Build and run the qelect benchmark.

Usage, from the root of a qelect source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

Builds perfbench/qbench.exe from the sources with dune, records the
environment (cores, OCaml version and flambda, commit, source digest) on
one line of standard output, then runs the benchmark, whose last line of
output is the result object. With --trace 1 the traced pass is also
written as a Chrome trace (perfbench/out/<workload>-seed<N>.json) that
ui.perfetto.dev opens.

Exits non-zero without a result when the sources or the build are
missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("zoo-conformance", "elect-ladder", "frontier-uniform")
EXE = os.path.join("_build", "default", "perfbench", "qbench.exe")
BUILD_TIMEOUT_S = 850
# set-up, the pass that overruns the deadline and the traced run's
# direct calls, on top of --seconds
RUN_MARGIN_S = 150


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def tool_output(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True,
                              timeout=60).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest():
    """sha256 over every source file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "out")
            for name in sorted(files):
                if name.endswith((".ml", ".mli", ".c", ".py")) or name in (
                        "dune", "dune-project"):
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    with open("dune-project", "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def environment(seed):
    config = tool_output(["ocamlfind", "ocamlopt", "-config"])
    flambda = next((line.split(":", 1)[1].strip()
                    for line in config.splitlines()
                    if line.startswith("flambda:")), "unknown")
    commit = tool_output(["git", "rev-parse", "HEAD"]) or "unknown"
    try:
        cores_usable = len(os.sched_getaffinity(0))
    except AttributeError:
        cores_usable = os.cpu_count()
    return {
        "env": {
            "cores": os.cpu_count(),
            "cores_usable": cores_usable,
            "ocaml": tool_output(["ocamlfind", "ocamlopt", "-version"]),
            "flambda": flambda,
            "commit": commit,
            "source_sha256": source_digest(),
            "seed": seed,
        }
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for needed in ("dune-project", "lib"):
        if not os.path.exists(needed):
            fail("no qelect sources here (missing %s); run from the root "
                 "of a source tree" % needed, 2)

    # dune's shared cache lives outside the tree; build without it
    build_env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/qbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=build_env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e, 3)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed", 3)

    print(json.dumps(environment(args.seed)), flush=True)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # the benchmark measures the default canonical kernel
    env = {k: v for k, v in os.environ.items()
           if k != "QELECT_CANON_BACKEND"}
    timeout = args.seconds + RUN_MARGIN_S
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % timeout, 4)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("benchmark exited with %d" % run.returncode, 5)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
