"""Self-checks of the benchmark (not part of the library's test suite).

Run from the repository root::

    python3 -m pytest perfbench -q

The smoke tier runs every workload's untraced and traced code paths at
tiny sizes; the other checks pin the result format to
``BENCHMARK.json`` and the inputs to the seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_spec():
    assert NAMES == list(workloads.WORKLOADS)
    assert set(NAMES) == set(workloads.REL_ERR_CEILING)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_metric(name, trace):
    p = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.1",
               "--trace", str(trace), "--scale", "smoke")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert report["bitwise"] is True
        assert (ROOT / report["trace_file"]).is_file()
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_and_errors(name):
    fn = workloads.WORKLOADS[name]
    a = fn(5, 0.0, None, "smoke")
    b = fn(5, 0.0, None, "smoke")
    assert a.attempted == b.attempted
    assert a.rel_err == b.rel_err


def test_seed_decides_inputs():
    def draws(seed):
        return [
            workloads.cube_inputs(seed, 0, 600)["points"],
            workloads.plummer_inputs(seed, 0, 200)["points"],
            workloads.neutral_charges(seed, 0, 1, 600),
            workloads.dirichlet_data(seed, 0, np.random.default_rng(0).random((50, 3))),
        ]

    for a, b, c in zip(draws(1), draws(1), draws(2)):
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
    assert workloads.neutral_charges(1, 0, 1, 600).sum() == 0.0


def test_reference_kernel_matches_library_direct_sum():
    from repro.direct import direct_gradient, direct_potential
    from host import ref_gradient, ref_potential

    rng = np.random.default_rng(0)
    pts, q = rng.random((300, 3)), rng.normal(size=300)
    np.testing.assert_allclose(ref_potential(pts, pts, q), direct_potential(pts, q), rtol=1e-12)
    np.testing.assert_allclose(
        ref_gradient(pts, pts, q, 1e-3), direct_gradient(pts, q, softening=1e-3), rtol=1e-10, atol=1e-12
    )


def test_tail_needs_ten_samples_beyond():
    assert bench_run.tail([1.0] * 19)["tail"] is None
    assert bench_run.tail(list(range(20)))["tail"]["p"] == 50.0
    assert bench_run.tail(list(range(100)))["tail"]["p"] == 90.0


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
