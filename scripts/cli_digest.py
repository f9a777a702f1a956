"""SHA-256 digests of every ``mfmls`` command's outputs on four small configs.

Usage (from the root of a source checkout)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/cli_digest.py > digests.txt

Runs ``sample``, ``convergence``, ``lebesgue``, ``noise``, ``power`` and
``info`` on a sphere config, a torus config (about half of every draw
chunk lies in the torus's shell, the most gradient work of any preset), a
cyclide-patch config and a config on an octahedron OBJ mesh (written next
to the configs), each at ``--threads 1``
and ``2``, inside a temporary directory. Prints one
``sha256  config/command/tN/file`` line per output file and one for the
command's stdout, plus a ``code  config/command/tN/exit`` line with its exit
code. ``timings.csv`` holds wall times and is skipped. A refactor that claims
byte-identical CLI outputs is checked by diffing this script's output at the
parent commit and at the change.

A second pass runs everything again with the process pinned to one CPU (the
lowest one it may use; the affinity mask is restored afterwards) and prints
its lines as ``c1/config/command/tN/file``. With BLAS held to one thread,
as above, the sampler's draw chunks, MLS assembly and the ``power`` probe
blocks run on two CPUs in the first pass and on one in the second, and the
outputs must not depend on that number::

    grep '  c1/' digests.txt | sed 's#  c1/#  #' | diff - <(grep -v '  c1/' digests.txt)

Not part of the test suite: it takes about two minutes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from mfmls.cli.main import main as mfmls_main

COMMANDS = ("sample", "convergence", "lebesgue", "noise", "power", "info")
THREADS = ("1", "2")
OCTAHEDRON_OBJ = """\
v 1 0 0
v -1 0 0
v 0 1 0
v 0 -1 0
v 0 0 1
v 0 0 -1
f 1 3 5
f 3 2 5
f 2 4 5
f 4 1 5
f 3 1 6
f 2 3 6
f 4 2 6
f 1 4 6
"""
CONFIGS = {
    "sphere": {
        "version": 1,
        "surface": {"preset": "sphere"},
        "degrees": [0, 1, 2],
        "cardinalities": [80, 160, 320],
        "target": "trig",
        "eval_count": 200,
        "sigma_list": [0.0, 0.01, 0.1],
        "trials": 4,
        "kernel_order": 3,
        "seed": 5,
    },
    "torus": {
        "version": 1,
        "surface": {"preset": "torus"},
        "degrees": [0, 1, 2],
        "cardinalities": [80, 160, 320],
        "target": "trig",
        "eval_count": 200,
        "sigma_list": [0.0, 0.01],
        "trials": 3,
        "kernel_order": 3,
        "seed": 11,
    },
    "cyclide_patch": {
        "version": 1,
        "surface": {"preset": "cyclide"},
        "restriction": {"center": "patch", "radius": 1.0},
        "degrees": [0, 2],
        "cardinalities": [100, 200, 400],
        "target": "trig",
        "eval_count": 200,
        "sigma_list": [0.0, 0.05],
        "trials": 3,
        "noise_reference": "exact",
        "kernel_order": 4,
        "seed": 7,
    },
    "mesh": {
        "version": 1,
        "surface": {"preset": "mesh", "path": "octahedron.obj"},
        "degrees": [0, 1],
        "cardinalities": [80, 160, 320],
        "target": "affine",
        "eval_count": 200,
        "sigma_list": [0.0, 0.01],
        "trials": 3,
        "kernel_order": 3,
        "seed": 9,
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(tag: str) -> None:
    """Run every command on every config; print the digests (cwd is scratch)."""
    with open("octahedron.obj", "w", encoding="ascii") as fh:
        fh.write(OCTAHEDRON_OBJ)
    for name, cfg in CONFIGS.items():
        config_path = f"{name}.json"
        with open(config_path, "w", encoding="ascii") as fh:
            json.dump(dict(cfg, output_dir=name), fh)
        for command in COMMANDS:
            for threads in THREADS:
                run = f"{name}/{command}/t{threads}"
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = mfmls_main([command, "--config", config_path,
                                       "--out", run, "--threads", threads])
                files = sorted(os.listdir(run)) if os.path.isdir(run) else []
                for file in files:
                    if file != "timings.csv":
                        with open(os.path.join(run, file), "rb") as fh:
                            print(f"{sha256(fh.read())}  {tag}{run}/{file}")
                print(f"{sha256(stdout.getvalue().encode())}  {tag}{run}/stdout")
                print(f"{code}  {tag}{run}/exit")


def run_in_tempdir(tag: str) -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # Relative output paths keep the temporary directory out of stdout
        # (``sample`` prints the file it wrote).
        os.chdir(tmp)
        try:
            run_all(tag)
        finally:
            os.chdir(home)


def main() -> int:
    run_in_tempdir("")
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        run_in_tempdir("c1/")
    finally:
        os.sched_setaffinity(0, cpus)
    return 0


if __name__ == "__main__":
    sys.exit(main())
