"""Regenerate certify_reference.json, the pool the certify_scan workload draws from.

    python3 perfbench/make_reference.py

Draws POOL_CONFIGS fluid configurations (A_kappa, A_mu uniform in [-0.8, 0.8];
A_rho, h2 from {0.5, 1, 2}) and DATA_PER_CONFIG Gaussian bumps per
configuration (amplitude log-uniform in [1e-3, 0.3], width uniform in [1, 2])
on the N=256, L=12 pi grid, certifies each through ``muskatjump certify`` and
stores the verdict, k0, k1 and nu.  A draw that fails is stored with its
error, never re-drawn, so the benchmark counts it as a failure.  Rerun this
only when certificates are meant to change, and say why in the change.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_workloads as bw  # noqa: E402
from muskatjump import cli  # noqa: E402

POOL_SEED = 20210215
POOL_CONFIGS = 10
DATA_PER_CONFIG = 12
GRID = {"n_points": 256, "domain_length": 12.0 * math.pi}


def main() -> int:
    rng = np.random.default_rng(POOL_SEED)
    configs = []
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for ci in range(POOL_CONFIGS):
            ak, am = (float(v) for v in rng.uniform(-0.8, 0.8, 2))
            ar, h2 = (float(v) for v in rng.choice([0.5, 1.0, 2.0], 2))
            fluid = {"a_kappa": ak, "a_mu": am, "a_rho": ar, "h2": h2}
            entry = {"fluid": fluid, "k0": None, "k1": None, "data": []}
            for di in range(DATA_PER_CONFIG):
                amplitude = float(math.exp(rng.uniform(math.log(1e-3), math.log(0.3))))
                width = float(rng.uniform(1.0, 2.0))
                config = bw.make_config(fluid, GRID, {"preset": "gaussian_bump",
                                                      "amplitude": amplitude, "width": width},
                                        1.0, 0.1, 1, 0)
                path = bw.write_config(Path(tmp) / "c.json", config)
                job = bw.Job([bw.Op("certify", ["certify", "--config", str(path)], config)])
                bw.execute(job, cli)
                op = job.ops[0]
                datum = {"amplitude": amplitude, "width": width}
                cert, problems = bw.check_certificate_json(op)
                if cert is None or problems:
                    datum["error"] = (problems or ["no certificate"])[0] + op.stderr[-300:]
                    datum.update(verdict=None, nu=None)
                else:
                    datum.update(verdict=cert["verdict"], nu=cert["nu"])
                    if entry["k0"] is None:
                        entry["k0"], entry["k1"] = cert["k0"], cert["k1"]
                    elif (entry["k0"], entry["k1"]) != (cert["k0"], cert["k1"]):
                        raise SystemExit(f"config {ci}: thresholds differ between data")
                entry["data"].append(datum)
                print(f"config {ci} datum {di}: {datum.get('verdict') or datum['error']}",
                      file=sys.stderr)
            configs.append(entry)
    out = {"grid": GRID, "pool_seed": POOL_SEED, "configs": configs}
    bw.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
