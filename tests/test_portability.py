"""Which outputs carry over to another SIMD level of numpy.

numpy picks its ``exp``/``log`` kernels by CPU at import, so a host without
AVX-512 computes the epsilon tables through other kernels. This module runs
its own outputs in a subprocess held to numpy's AVX2 level and compares them
with the same outputs in this process: the tables agree to a tolerance, the
campaign's counts and flags bit for bit. On a host without AVX-512 both sides
run at the same level and the comparison is trivially met.

Run as a script it prints those outputs as JSON.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
AVX2_LEVEL = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def outputs() -> dict:
    """The m=250, beta=1e-6 table rows and a 5-trial cargo_m100_uniform
    campaign's counts and flags."""
    from share_sense import epsilon_table, run_campaign
    from share_sense.serialize import load_cargo_config

    config = load_cargo_config(ROOT / "configs" / "cargo_m100_uniform.json")
    records, _ = run_campaign(dataclasses.replace(config, trials=5))
    return {
        "table": [list(row) for row in epsilon_table(250, 1e-6).rows()],
        "trials": [
            [r.s_star, r.p_hat, r.tie_count, r.degenerate, r.nonunique] for r in records
        ],
    }


def test_avx2_level_keeps_counts_bitwise_and_tables_to_1e_11():
    env = dict(os.environ, **AVX2_LEVEL)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    other, here = json.loads(proc.stdout), outputs()
    # json keeps every float's bits, so == compares them exactly
    assert other["trials"] == here["trials"]
    np.testing.assert_allclose(np.array(other["table"]), here["table"], rtol=1e-11, atol=0)


if __name__ == "__main__":
    print(json.dumps(outputs()))
