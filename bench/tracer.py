"""Outside-in tracing of the gerstenhaber layers.

The tracer wraps public functions of the package where they are looked up:
every module namespace that holds the original function object gets the
wrapper, so names imported with ``from .x import f`` are covered.  Methods
are wrapped on their class and the identity suites on the ``SUITES`` dict.
Nothing inside ``src/`` is edited; ``restore`` puts every original back.

Three kinds of boundary:

* span: coarse calls (a handful to a few hundred per op).  Each call is kept
  as a span (id, name, start, end, parent id) in memory.
* aggregate: hot calls (10^4 and more per op).  Only count, total time and
  self time per (name, parent name) are kept, so memory stays flat.
* count: calls too frequent and too cheap to time (10^5 to 10^6 per op).

Self time is a call's duration minus the time covered by timed calls nested
inside it.  The tracer is single threaded, like the program.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter
from types import FunctionType

PKG = "gerstenhaber"
ROOT = "bench.op"

# (module, attribute) -> (metric name, kind); kind is span, agg or count.
FUNCTIONS = {
    ("chcoh", "monomials_for_shape"): ("chcoh.enum", "span"),
    ("chcoh", "d_ch_value"): ("chcoh.value", "agg"),
    ("chcoh", "d_ch_row"): ("chcoh.row", "agg"),
    ("chcoh", "is_cocycle"): ("chcoh.decide", "span"),
    ("chcoh", "is_coboundary"): ("chcoh.decide", "span"),
    ("chcoh", "d_ch"): ("chcoh.decide", "span"),
    ("chcoh", "assemble_matrix"): ("chcoh.decide", "span"),
    ("genv", "h_bracket"): ("genv.bracket", "agg"),
    ("genv", "h_mu"): ("genv.mu", "agg"),
    ("ginfty", "mono_key"): ("ginfty.mono_key", "count"),
    ("graded", "koszul_sign"): ("graded.koszul", "count"),
    ("exactlin", "solve_in_column_span"): ("exactlin.solve", "span"),
}

SUITE_NAMES = ("shuffle", "genv", "chcoh", "ginfty", "tensorco", "symco")


def package_modules() -> dict:
    """The currently imported modules of the package, by short name."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == PKG or name.startswith(PKG + ".")):
            out[name.rpartition(".")[2]] = mod
    return out


def quotient_counts(quotients) -> dict:
    """Exact table counts summed over the given shuffle quotients."""
    tables = words = reps = rows = 0
    for q in quotients:
        for multiset, table in q.tables.items():
            tables += 1
            words += len(table)
            reps += len(q.reps[multiset])
            rows += len(table) * (len(multiset) - 1)
    return {"shuffleco.tables": tables, "shuffleco.words": words,
            "shuffleco.reps": reps, "shuffleco.shuffle_rows": rows}


def _mul_work(a, b) -> tuple:
    """(operand nnz, sum over k of nnz(A[:, k]) * nnz(B[k, :]))."""
    col_a = Counter(c for _, c in a.entries)
    row_b = Counter(r for r, _ in b.entries)
    flops = sum(n * row_b.get(k, 0) for k, n in col_a.items())
    return len(a.entries) + len(b.entries), flops


class Tracer:
    """Wraps the package's layer boundaries and records spans and counts."""

    def __init__(self):
        self.spans: list = []      # (id, name, start, end, parent id)
        self.ops: list = []        # one summary dict per traced op
        self._patches: list = []   # (container, key, original, is_dict)
        self._next_id = 0
        # per-op state; the wrappers hold on to these objects
        self.calls: dict = {}      # (name, parent name) -> [count, total, self]
        self.counts: Counter = Counter()
        self.observed: Counter = Counter()
        self.quotients: list = []
        self._stack = [[ROOT, 0.0, 0]]

    # -- recording -------------------------------------------------------

    def _reset_op(self):
        self.calls.clear()
        self.counts.clear()
        self.observed.clear()
        self.quotients.clear()
        del self._stack[1:]
        self._stack[0][1] = 0.0

    def _timed(self, name, fn, keep_span, before=None, after=None, relabel=None):
        """Wrap ``fn`` as a timed boundary.  ``before(args)`` runs untimed
        and returns a token; ``after(args, result, token)`` observes the
        result; ``relabel(args, token)`` renames the call once it is done."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            frame = [name, 0.0, parent[2]]
            if keep_span:
                tracer._next_id += 1
                frame[2] = tracer._next_id
            token = before(args) if before else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                label = relabel(args, token) if relabel else name
                rec = tracer.calls.get((label, parent[0]))
                if rec is None:
                    rec = tracer.calls[(label, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if keep_span:
                    tracer.spans.append((frame[2], label, t0, t1, parent[2]))
            if after:
                after(args, result, token)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------

    def _set(self, container, key, value, is_dict):
        original = container[key] if is_dict else container.__dict__[key]
        self._patches.append((container, key, original, is_dict))
        if is_dict:
            container[key] = value
        else:
            setattr(container, key, value)

    def install(self):
        """Wrap every boundary in the package as currently imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = package_modules()
        obs = self.observed
        wrappers = {}
        for (mod, attr), (name, kind) in FUNCTIONS.items():
            fn = getattr(mods[mod], attr, None)
            if fn is None:
                # a later refactor may remove a boundary; its metrics read 0
                print(f"tracer: {mod}.{attr} not found", file=sys.stderr)
                continue
            if kind == "count":
                wrappers[fn] = self._counted(name, fn)
            else:
                after = None
                if attr == "monomials_for_shape":
                    def after(args, result, token):
                        obs["chcoh.monomials"] += len(result)
                elif attr == "solve_in_column_span":
                    def after(args, result, token):
                        m = args[0]
                        obs["exactlin.solve_nnz"] += len(m.entries)
                        obs["exactlin.feasible"] += result is not None
                        if m.nrows > obs["exactlin.solve_rows_max"]:
                            obs["exactlin.solve_rows_max"] = m.nrows
                wrappers[fn] = self._timed(name, fn, kind == "span", after=after)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    self._set(mod, attr, wrappers[value], False)

        suites = mods["suites"].SUITES
        for key in list(suites):
            self._set(suites, key, self._timed(f"suites.{key}", suites[key], True), True)

        quotient = mods["shuffleco"].ShuffleQuotient
        init = quotient.__dict__["__init__"]
        registry = self.quotients

        def register(q, *args, **kwargs):
            init(q, *args, **kwargs)
            registry.append(q)

        def table_label(args, size_before):
            grew = len(args[0].tables) > size_before
            return "shuffleco.build" if grew else "shuffleco.lookup"

        def table_size(args):
            return len(args[0].tables)

        self._set(quotient, "__init__", register, False)
        for attr in ("reduce_word", "representatives"):
            fn = quotient.__dict__[attr]
            self._set(quotient, attr,
                      self._timed("shuffleco.table", fn, False, before=table_size,
                                  relabel=table_label), False)

        sparse = mods["exactlin"].SparseMat

        def mul_before(args):
            nnz, flops = _mul_work(args[0], args[1])
            obs["exactlin.mul_nnz"] += nnz
            obs["exactlin.mul_flops"] += flops

        self._set(sparse, "mul",
                  self._timed("exactlin.mul", sparse.__dict__["mul"], True,
                              before=mul_before), False)

    def restore(self):
        """Put every original object back, last patch first."""
        while self._patches:
            container, key, original, is_dict = self._patches.pop()
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)

    # -- one traced op ---------------------------------------------------

    def run_op(self, fn, state, quotients=()):
        """Run ``fn(state)`` as one traced op and summarize its layers."""
        self._reset_op()
        self.quotients.extend(quotients)
        self._next_id += 1
        root = self._stack[0]
        root[2] = self._next_id
        t0 = perf_counter()
        try:
            result = fn(state)
        finally:
            t1 = perf_counter()
            self.spans.append((root[2], ROOT, t0, t1, 0))
            calls = self.calls
            self.ops.append({
                "wall_s": t1 - t0,
                "metrics": layer_metrics(calls, self.counts, self.observed,
                                         quotient_counts(self.quotients)),
                "calls": [[n, p, *rec] for (n, p), rec in sorted(calls.items())],
            })
            self.quotients.clear()
        return result

    def dump(self) -> dict:
        return {"ops": self.ops, "spans": self.spans}


def layer_metrics(calls, counts, observed, qcounts) -> dict:
    """Per-layer metrics of one op from its aggregated calls."""
    n = Counter()
    total = Counter()
    self_s = Counter()
    for (name, _), (count, tot, own) in calls.items():
        n[name] += count
        total[name] += tot
        self_s[name] += own
    monomials = observed["chcoh.monomials"]
    evals = n["chcoh.value"] + n["chcoh.row"]
    solves = n["exactlin.solve"]
    out = dict(qcounts)
    out.update({
        "shuffleco.build_s": total["shuffleco.build"],
        "shuffleco.lookups": n["shuffleco.lookup"],
        "shuffleco.lookup_s": total["shuffleco.lookup"],
        "chcoh.monomials": monomials,
        "chcoh.evals": evals,
        "chcoh.eval_ratio": evals / monomials if monomials else 0.0,
        "chcoh.enum_s": self_s["chcoh.enum"],
        "chcoh.value_s": self_s["chcoh.value"],
        "chcoh.row_s": self_s["chcoh.row"],
        "chcoh.decide_s": self_s["chcoh.decide"],
        "genv.bracket_calls": n["genv.bracket"],
        "genv.bracket_s": self_s["genv.bracket"],
        "genv.mu_calls": n["genv.mu"],
        "genv.mu_s": self_s["genv.mu"],
        "ginfty.mono_key_calls": counts["ginfty.mono_key"],
        "graded.koszul_calls": counts["graded.koszul"],
        "exactlin.solves": solves,
        "exactlin.solve_s": total["exactlin.solve"],
        "exactlin.solve_nnz": observed["exactlin.solve_nnz"],
        "exactlin.solve_rows_max": observed["exactlin.solve_rows_max"],
        "exactlin.feasible_ratio": observed["exactlin.feasible"] / solves if solves else 0.0,
        "exactlin.mul_s": total["exactlin.mul"],
        "exactlin.mul_nnz": observed["exactlin.mul_nnz"],
        "exactlin.mul_flops": observed["exactlin.mul_flops"],
    })
    for key in SUITE_NAMES:
        out[f"suites.{key}_s"] = total[f"suites.{key}"]
    return out
