"""Self-test of the benchmark on shrunken workloads.

    python3 -m pytest -q bench/test_selftest.py

Not part of the package's own test suite; it checks the benchmark itself.
"""

import json
import subprocess
import sys

import pytest

import run
from tracer import Tracer, package_modules

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_small_run_prints_every_metric(workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.declared_units(bool(trace)))


def _snapshot() -> dict:
    """Every attribute the tracer may patch, by owner and name."""
    mods = package_modules()
    out = {(name, attr): value for name, mod in mods.items()
           for attr, value in vars(mod).items()}
    out.update({("SUITES", key): fn for key, fn in mods["suites"].SUITES.items()})
    for cls in (mods["shuffleco"].ShuffleQuotient, mods["exactlin"].SparseMat):
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_op_matches_untraced_and_restores(workload):
    wl = run.WORKLOADS[workload](3, True)
    state = wl.prepare(run.fresh_import())
    before = _snapshot()
    runner = run.Runner(wl, state)
    runner.one(lambda: wl.op(state))
    plain = runner.reference
    tracer = Tracer()
    tracer.install()
    try:
        patched = _snapshot()
        runner.one(lambda: tracer.run_op(wl.op, state, wl.quotients(state)))
    finally:
        tracer.restore()
    after = _snapshot()
    assert runner.failed == 0 and plain is not None and runner.reference == plain
    assert any(patched[k] is not v for k, v in before.items())
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_exact_counts_repeat(workload):
    first, second = (run.run(workload, 3, 0, True, small=True) for _ in range(2))
    assert first["correct"] and second["correct"]
    exact = {k: v for k, v in first["metrics"].items()
             if not k.endswith("_s") and k != "trace.overhead"}
    assert exact == {k: second["metrics"][k] for k in exact}
    assert exact["chcoh.monomials"] > 0 and exact["shuffleco.tables"] > 0
