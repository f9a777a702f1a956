"""Peak memory and time of the kernel side at README scale.

Usage (from the root of a source checkout)::

    PYTHONPATH=src python3 scripts/kernel_memory.py --sites 2838 --order 4 --seed 1

Samples ``--sites`` cyclide sites and ``--probe-factor`` times as many probes
(the ``mfmls power`` defaults), saves them, and then builds ``InterpSystem``
and evaluates ``power_values`` in a fresh child process, so that the child's
peak RSS covers the interpreter, the two clouds and the kernel side only, not
the sampler. Prints one JSON line. Set ``OPENBLAS_NUM_THREADS`` to pin the
BLAS thread count; it is reported with the result. At 1, the probe blocks
run on two workers when two CPUs are available. Not part of the test
suite: n=5655 needs about a minute and close to 1 GB.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np


def kernel_side(path: str, order: int) -> dict:
    from mfmls.rbf import InterpSystem, KernelSpec

    with np.load(path) as data:
        sites, probes = data["sites"], data["probes"]
    started = time.perf_counter()
    system = InterpSystem(KernelSpec(order), sites)
    built = time.perf_counter()
    power = system.power_values(probes)
    done = time.perf_counter()
    return {
        "sites": len(sites),
        "probes": len(probes),
        "order": order,
        "jitter": system.jitter,
        "sup_power": float(power.max()),
        "system_s": round(built - started, 3),
        "power_values_s": round(done - built, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", type=int, required=True)
    parser.add_argument("--order", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--probe-factor", type=int, default=8)
    parser.add_argument("--clouds", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.clouds:
        print(json.dumps(kernel_side(args.clouds, args.order)))
        return 0

    from mfmls.geometry.presets import cyclide
    from mfmls.geometry.sampling import sample_quasi_uniform

    surface = cyclide()
    sites = sample_quasi_uniform(surface, args.sites, seed=args.seed)
    probes = sample_quasi_uniform(surface, args.probe_factor * args.sites,
                                  seed=args.seed + 500)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "clouds.npz")
        np.savez(path, sites=sites.points, probes=probes.points)
        child = subprocess.run(
            [sys.executable, __file__, "--sites", str(args.sites), "--order",
             str(args.order), "--clouds", path],
            check=True, stdout=subprocess.PIPE, text=True)
    print(child.stdout.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
