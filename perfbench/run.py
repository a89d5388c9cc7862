#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload http_smp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark is a dune project of its
own, kept out of the repository's build: this script assembles it in
.bench_build/src/ from the repository's dune-project and lib/ and from
perfbench/ (whose build file is perfbench/spinbench.dune, a name the
repository's own dune build does not read), builds it there with dune
(release profile, dune's shared cache off, so nothing is written
outside the checkout), and runs it. The arguments go to the benchmark
unchanged and its last line of output is the result. Without the
repository's sources beside this directory the run exits non-zero with
no result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SRC = os.path.join(BUILD, "src")


def assemble():
    """Copy the sources the benchmark builds from into SRC, replacing
    any older copy (dune rebuilds only what changed)."""
    os.makedirs(SRC, exist_ok=True)
    shutil.copy2(os.path.join(ROOT, "dune-project"), SRC)
    lib = os.path.join(SRC, "lib")
    shutil.rmtree(lib, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "lib"), lib)
    bench = os.path.join(SRC, "perfbench")
    shutil.rmtree(bench, ignore_errors=True)
    os.makedirs(bench)
    for name in os.listdir(HERE):
        if name.endswith((".ml", ".mli")):
            shutil.copy2(os.path.join(HERE, name), bench)
    shutil.copy2(os.path.join(HERE, "spinbench.dune"), os.path.join(bench, "dune"))


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit("perfbench: no dune-project and lib/ beside perfbench/; "
                 "run from a checkout of the repository")
    assemble()
    env = dict(os.environ,
               DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(BUILD, "xdg-cache"),
               XDG_CONFIG_HOME=os.path.join(BUILD, "xdg-config"))
    build = subprocess.run(
        ["dune", "build", "--root", SRC, "--profile", "release",
         "./perfbench/spinbench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(SRC, "_build", "default", "perfbench", "spinbench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
