"""Benchmark of the gerstenhaber engine: four exact-algebra workloads.

Run from the repository root:

    python3 bench/run.py --workload cocycle_d3 --seed 1 --seconds 20 --trace 0

Each invocation is one fresh single-threaded process that runs one workload
as a closed loop (one caller, one op at a time).  Every op's answer is
checked exactly; a wrong answer or an exception counts as a failed op and
does not stop the run.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs the same ops untraced, then up to three more with the layer boundaries
wrapped (see tracer.py), reports the per-layer metrics and writes the spans
to ``.bench_trace/``.  ``--small`` shrinks the workloads for the self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

from tracer import PKG, Tracer, package_modules

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"


class WrongAnswer(Exception):
    """An op finished but its answer failed the exact check."""


def fresh_import() -> dict:
    """Import the package from scratch; return its modules by short name."""
    for name in list(sys.modules):
        if name == PKG or name.startswith(PKG + "."):
            del sys.modules[name]
    cli = importlib.import_module(PKG + ".cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PKG} imported from {cli.__file__}, not from {SRC}")
    return package_modules()


def run_cli(cli, argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Set-up, one op and its exact check.  ``prepare`` runs after a fresh
    import and returns the state every op uses."""

    setup_repeats = 25
    min_ops = 3

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.small = small

    def quotients(self, state) -> list:
        """Shuffle quotients that exist before an op and that it uses."""
        return []


class CocycleD3(Workload):
    """The headline decision at tensor degree <= 1, from a cold context each
    op; seed and ``small`` unused."""

    def prepare(self, mods):
        return {"cli": mods["cli"],
                "argv": ["cocycle", "--d", "3", "--kmax", "1", "--format", "json"]}

    def op(self, state):
        return run_cli(state["cli"], state["argv"])

    def check(self, state, raw):
        rc, text = raw
        report = json.loads(text)
        if rc != 0 or report["value"] != "1" or report["cocycle"] is not True \
                or report["coboundary"] is not False:
            raise WrongAnswer(f"cocycle: exit {rc}, report {report}")
        return digest(text)


class CoboundaryD3(Workload):
    """Round trip f = d_ch(g), g' = is_coboundary(f), d_ch(g') == f on warm
    d=3, k<=1 tables; the seed draws the level-2 cochain g."""

    setup_repeats = 9

    def prepare(self, mods):
        ch = mods["chcoh"]
        d, kmax = (2, 2) if self.small else (3, 1)
        ctx = ch.real_polyvec_context(d, kmax)
        for n in (1, 2, 3):
            ctx.rep_words(n)
        one = ctx.target.letters[0]
        # a fixed third of the monomials is nonzero, so the seed changes which
        # ones and their values but not how many
        rng = random.Random(self.seed)
        monos = [mono for shape in ch.level_shapes(2, 4)
                 for mono in ch.monomials_for_shape(ctx, shape)]
        values = {mono: {one: Fraction(rng.choice((-2, -1, 1, 2)))}
                  for mono in rng.sample(monos, len(monos) // 3)}
        return {"ch": ch, "ctx": ctx, "trunc": ch.Truncation(d, kmax, 4, 4),
                "g": ch.Cochain(values, 2)}

    def quotients(self, state):
        return [state["ctx"].quotient]

    def op(self, state):
        ch, ctx, trunc = state["ch"], state["ctx"], state["trunc"]
        f = ch.d_ch(state["g"], ctx, trunc)
        pre = ch.is_coboundary(f, ctx, trunc)
        back = None if pre is None else ch.d_ch(pre, ctx, trunc)
        return f, pre, back

    def check(self, state, raw):
        f, pre, back = raw
        if pre is None:
            raise WrongAnswer("coboundary: no preimage for d_ch(g)")
        if back.values != f.values:
            raise WrongAnswer("coboundary: d_ch(g') != f")
        return digest(repr((f.values, pre.values)))


class DsquareD2(Workload):
    """Consecutive dch matrices at d=2, k<=1 multiply to zero; seed unused."""

    SHAPES = {1: ((110, 22), (22, 5)), 2: ((550, 110), (110, 22))}

    def prepare(self, mods):
        return {"ch": mods["chcoh"], "levels": (1,) if self.small else (1, 2)}

    def op(self, state):
        ch = state["ch"]
        ctx = ch.real_polyvec_context(2, 1)
        out = []
        for n in state["levels"]:
            src = ch.level_shapes(n, 3)
            m1, rows1, _ = ch.assemble_matrix(ctx, src)
            m2, _, cols2 = ch.assemble_matrix(ctx, ch.reachable_shapes(src))
            out.append((n, m2, m1, cols2 == rows1, m2.mul(m1)))
        return out

    def check(self, state, raw):
        parts = []
        for n, m2, m1, cols_match, product in raw:
            shapes = ((m2.nrows, m2.ncols), (m1.nrows, m1.ncols))
            if shapes != self.SHAPES[n] or not cols_match or not product.is_zero():
                raise WrongAnswer(f"dsquare level {n}: shapes {shapes}, columns "
                                  f"match {cols_match}, product {product!r}")
            parts.append(repr((sorted(m2.entries.items()), sorted(m1.entries.items()))))
        return digest("".join(parts))


class VerifyAll(Workload):
    """All identity suites at the reference seed 7; every line must be PASS
    and every op's output byte-identical."""

    def prepare(self, mods):
        trials = "1" if self.small else "5"
        return {"cli": mods["cli"],
                "argv": ["verify", "--suite", "all", "--seed", "7", "--trials", trials]}

    def op(self, state):
        return run_cli(state["cli"], state["argv"])

    def check(self, state, raw):
        rc, text = raw
        lines = text.splitlines()
        bad = [line for line in lines if not line.startswith("PASS ")]
        if rc != 0 or not lines or bad:
            raise WrongAnswer(f"verify: exit {rc}, not passing: {bad[:3]}")
        return digest(text)


WORKLOADS = {
    "cocycle_d3": CocycleD3,
    "coboundary_d3": CoboundaryD3,
    "dsquare_d2": DsquareD2,
    "verify_all": VerifyAll,
}


# ---------------------------------------------------------------------------
# measurement

# Other tenants of a shared machine change its speed by up to 2x over tens
# of seconds, in wall and in CPU time alike.  A run therefore also times a
# fixed loop of the program's kind of work (Fraction arithmetic, tuple keys,
# dict stores) before every set-up and op, and scales its times to the speed
# at which that loop takes REFERENCE_S seconds.
REFERENCE_S = 0.025


def reference_loop() -> tuple:
    """Wall and CPU seconds of one pass of the fixed loop."""
    t0, c0 = perf_counter(), process_time()
    total, seen = Fraction(0), {}
    for i in range(1, 10000):
        total += Fraction(1, i % 97 + 1)
        seen[i, i % 13] = total
    return perf_counter() - t0, process_time() - c0


class Runner:
    """Times ops and counts the ones whose answer is wrong or missing.

    Every op of a run gets the same input, so every answer must equal the
    first one, traced or not."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def one(self, call) -> tuple:
        self.attempted += 1
        t0, c0 = perf_counter(), process_time()
        try:
            raw = call()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return perf_counter() - t0, process_time() - c0
        wall, cpu = perf_counter() - t0, process_time() - c0
        try:
            answer = self.workload.check(self.state, raw)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return wall, cpu
        if self.reference is None:
            self.reference = answer
        elif answer != self.reference:
            print("wrong answer: differs from the first op of the run", file=sys.stderr)
            self.failed += 1
        return wall, cpu


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload; return the result object with the metric values and,
    under ``raw``, the unscaled times."""
    workload = WORKLOADS[name](seed, small)
    # the loop is timed in the same heap state as what it scales: right after
    # a collection, and apart for the set-up phase and the op phase
    setups, setup_refs, op_refs = [], [], []
    state = None
    for _ in range(1 if trace else workload.setup_repeats):
        state = None  # release the previous set-up before building the next
        gc.collect()
        setup_refs.append(reference_loop())
        t0 = perf_counter()
        state = workload.prepare(fresh_import())
        setups.append(perf_counter() - t0)

    runner = Runner(workload, state)
    walls, cpus = [], []
    start = perf_counter()
    while True:
        gc.collect()
        op_refs.append(reference_loop())
        wall, cpu = runner.one(lambda: workload.op(state))
        walls.append(wall)
        cpus.append(cpu)
        # start another op only if it is expected to end inside the window
        if len(walls) >= workload.min_ops and \
                perf_counter() - start + median(walls) > seconds:
            break

    # other tenants only ever add time, so the fastest of several repeats is
    # the steadiest estimate of the program's own cost, and of the loop's
    if not trace:
        raw = {"setup_s": min(setups), "run_s": min(walls), "cpu_s": min(cpus),
               "setup_ref_s": min(r[0] for r in setup_refs),
               "ref_s": min(r[0] for r in op_refs),
               "ref_cpu_s": min(r[1] for r in op_refs)}
        metrics = {
            "setup_s": raw["setup_s"] * REFERENCE_S / raw["setup_ref_s"],
            "run_s": raw["run_s"] * REFERENCE_S / raw["ref_s"],
            "cpu_s": raw["cpu_s"] * REFERENCE_S / raw["ref_cpu_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passed_ratio": (runner.attempted - runner.failed) / runner.attempted,
        }
        return {"correct": runner.failed == 0, "attempted": runner.attempted,
                "failed": runner.failed, "metrics": metrics, "raw": raw}

    tracer = Tracer()
    traced = []
    tracer.install()
    try:
        for _ in range(min(len(walls), 3)):
            wall, _ = runner.one(
                lambda: tracer.run_op(workload.op, state, workload.quotients(state)))
            traced.append(wall)
    finally:
        tracer.restore()
    # times are averaged over the traced ops; counts and ratios of counts
    # are exact and must repeat from one op to the next
    per_op = [op["metrics"] for op in tracer.ops]
    metrics = dict(per_op[0])
    repeat_ok = True
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] = sum(m[key] for m in per_op) / len(per_op)
        elif any(m[key] != metrics[key] for m in per_op):
            print(f"{key} differs between traced ops", file=sys.stderr)
            repeat_ok = False
    metrics["trace.overhead"] = min(traced) / min(walls) - 1
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"{name}-seed{seed}.json"
    out.write_text(json.dumps({"workload": name, "seed": seed, **tracer.dump()}))
    return {"correct": runner.failed == 0 and repeat_ok,
            "attempted": runner.attempted, "failed": runner.failed,
            "metrics": metrics}


def declared_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="shrink every workload (self-test)")
    args = p.parse_args(argv)
    if not (SRC / PKG / "__init__.py").is_file():
        print(f"no package source at {SRC / PKG}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = declared_units(bool(args.trace))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    if "raw" in result:
        print("unscaled " + json.dumps(result.pop("raw")))
    if set(result["metrics"]) != set(units):
        print(f"metric names differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ set(units))}", file=sys.stderr)
        return 2
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
