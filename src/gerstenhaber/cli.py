"""Command line front end.

Four commands: ``verify`` runs the seeded identity suites, ``dims`` prints
basis dimensions, ``cocycle`` runs the scalar 3-cochain pipeline (value,
cocycle check, coboundary decision), ``differential`` exports a coboundary
matrix.  Exit codes: 0 all checks pass, 1 a mathematical check failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .chcoh import (Truncation, TruncationError, assemble_matrix, f3_111,
                    is_cocycle, is_coboundary, level_shapes,
                    real_polyvec_context)
from .polyvec import basis as pv_basis
from .suites import SUITES, run_suites

SUITE_ALIASES = {
    "shuffle": ["shuffle"],
    "tensorco": ["tensorco"],
    "symco": ["symco"],
    "genv": ["genv"],
    "ginfty": ["ginfty"],
    "chcoh": ["chcoh"],
    "all": list(SUITES),
}


def make_parser() -> argparse.ArgumentParser:
    """One subparser per command, with only the flags that command reads;
    any other flag is an argparse usage error (exit 2)."""
    p = argparse.ArgumentParser(prog="gerstenhaber")
    sub = p.add_subparsers(dest="command")
    verify, dims, cocycle, differential = (
        sub.add_parser(name) for name in ("verify", "dims", "cocycle", "differential"))
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--trials", type=int, default=50)
    verify.add_argument("--suite", default="all")
    verify.add_argument("--corrupt-sandbox", action="store_true",
                        help="deliberately break the sandbox bracket (testing aid)")
    for sp in (dims, cocycle, differential):
        sp.add_argument("--d", type=int, default=3)
        sp.add_argument("--kmax", type=int, default=None)
    for sp in (dims, cocycle):
        sp.add_argument("--Nmax", type=int, default=4)
    for sp in (cocycle, differential):
        sp.add_argument("--nmax", type=int, default=4)
    differential.add_argument("--level", type=int, default=2,
                              help="source level N of the exported matrix")
    differential.add_argument("--operator", default="dch",
                              choices=["dch", "dH", "dC", "dHa"])
    for sp in (verify, dims, cocycle):
        sp.add_argument("--format", default="text", choices=["text", "json"])
    # differential exports JSON for "text" as well
    differential.add_argument("--format", default="text",
                              choices=["text", "json", "matrixmarket"])
    for sp in (verify, dims, cocycle, differential):
        sp.add_argument("--out", default=None)
    return p


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _kmax(args, least: int, why: str):
    """The tensor degree bound: d without --kmax, else --kmax clamped to d;
    None, after a usage message, when --kmax is below ``least``."""
    if args.kmax is None:
        return args.d
    if args.kmax < least:
        sys.stderr.write(f"{why}: need kmax >= {least}\n")
        return None
    return min(args.kmax, args.d)


def cmd_verify(args) -> int:
    names = SUITE_ALIASES.get(args.suite)
    if names is None:
        sys.stderr.write(f"unknown suite: {args.suite}\n")
        return 2
    if args.trials < 1:
        sys.stderr.write(f"verify: need trials >= 1, got {args.trials}\n")
        return 2
    results = run_suites(names, args.seed, args.trials,
                         corrupt=args.corrupt_sandbox)
    results = sorted(results)
    if args.format == "json":
        payload = [
            {"identity": n, "pass": ok, "counterexample": bad}
            for n, ok, bad in results
        ]
        _emit(json.dumps({"seed": args.seed, "trials": args.trials,
                          "results": payload}, indent=2) + "\n", args.out)
    else:
        lines = []
        for n, ok, bad in results:
            lines.append(f"{'PASS' if ok else 'FAIL'} {n}" + ("" if ok else f"  [{bad}]"))
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(ok for _, ok, _ in results) else 1


def cmd_dims(args) -> int:
    if args.d < 1:
        sys.stderr.write("need a spatial dimension d >= 1\n")
        return 2
    kmax = _kmax(args, 0, "tensor degree bound")
    if kmax is None:
        return 2
    d = args.d
    rows = [(k, len(pv_basis(d, k))) for k in range(kmax + 1)]
    ctx = real_polyvec_context(d, kmax)
    qdims = []
    for n in range(1, min(args.Nmax, 3) + 1):
        qdims.append((n, len(ctx.rep_words(n))))
    if args.format == "json":
        payload = {
            "d": d,
            "polyvector_components": {str(k): c for k, c in rows},
            "total": sum(c for _, c in rows),
            "quotient_dims": {str(n): c for n, c in qdims},
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [f"homogeneous polyvector fields on R^{d}:"]
        for k, c in rows:
            lines.append(f"  tensor degree {k}: {c}")
        lines.append(f"  total: {sum(c for _, c in rows)}")
        lines.append("shuffle quotient dimensions (all letters):")
        for n, c in qdims:
            lines.append(f"  length {n}: {c}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_cocycle(args) -> int:
    if args.d < 3:
        sys.stderr.write("the 3-cochain needs d >= 3 for a nonzero value\n")
        return 2
    kmax = _kmax(args, 1, "the 3-cochain lives on vector fields")
    if kmax is None:
        return 2
    ctx = real_polyvec_context(args.d, kmax)
    trunc = Truncation(args.d, kmax, args.Nmax, args.nmax)
    f3 = f3_111(args.d, ctx)
    from .ginfty import mono_key
    from .polyvec import hom_letter

    def vf(a, b):
        exps = [0] * args.d
        exps[a - 1] = 1
        return hom_letter(args.d, (tuple(exps), (b,)))

    probe, sign = mono_key([(vf(1, 2),), (vf(2, 3),), (vf(3, 1),)])
    one = ctx.target.letters[0]
    value = sign * f3.eval(probe).get(one, Fraction(0))
    try:
        cocycle = is_cocycle(f3, ctx, trunc)
        pre = is_coboundary(f3, ctx, trunc)
    except TruncationError as ex:
        sys.stderr.write(f"insufficient truncation: {ex}\n")
        return 2
    report = {
        "value": str(value),
        "cocycle": bool(cocycle),
        "coboundary": pre is not None,
        "truncation": trunc.as_dict(),
    }
    if pre is not None:
        report["preimage"] = {
            str(tuple(tuple(a.ident for a in w) for w in mono)): {
                str(letter.ident): str(c) for letter, c in val.items()
            }
            for mono, val in pre.values.items()
        }
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    else:
        lines = [
            f"value on (x1 d2).(x2 d3).(x3 d1): {value}",
            f"cocycle inside truncation: {cocycle}",
            f"coboundary over level-2 shapes: {pre is not None}",
            f"truncation: {trunc.as_dict()}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    ok = value == 1 and cocycle and pre is None
    return 0 if ok else 1


def cmd_differential(args) -> int:
    if args.d < 1 or args.level < 1:
        sys.stderr.write("need d >= 1 and level >= 1\n")
        return 2
    if args.operator != "dch":
        return _cmd_differential_classical(args)
    if args.nmax < 1:
        sys.stderr.write("need a packet count bound nmax >= 1\n")
        return 2
    kmax = _kmax(args, 0, "tensor degree bound")
    if kmax is None:
        return 2
    ctx = real_polyvec_context(args.d, kmax)
    shapes = level_shapes(args.level, args.nmax)
    mat, rows, cols = assemble_matrix(ctx, shapes)
    if args.format == "matrixmarket":
        _emit(mat.to_matrixmarket(), args.out)
    else:
        _emit(mat.to_json() + "\n", args.out)
    return 0


def _cmd_differential_classical(args) -> int:
    """Hochschild / Chevalley / Harrison coboundary matrices for the dual
    numbers respectively the two dimensional solvable Lie algebra."""
    from .exactlin import SparseMat
    from .graded import Letter, shifted
    from .shuffleco import ShuffleQuotient
    from .symco import LieData, d_chevalley_classical
    from .tensorco import Bimodule, d_hochschild
    from itertools import product as iproduct

    n = args.level
    if args.operator in ("dH", "dHa"):
        one, x = Letter(("a", 0), 0), Letter(("a", 1), 0)
        prod = {
            (one.ident, one.ident): {one.ident: Fraction(1)},
            (one.ident, x.ident): {x.ident: Fraction(1)},
            (x.ident, one.ident): {x.ident: Fraction(1)},
        }
        from .tensorco import FiniteAlgebra
        alg = FiniteAlgebra([one, x], prod, commutative=True)
        module = Bimodule.regular(alg)
        letters = [shifted(a) for a in alg.letters]
        if args.operator == "dH":
            dom = list(iproduct(letters, repeat=n))
            cod = list(iproduct(letters, repeat=n + 1))
            def dof(C):
                return d_hochschild(C, n + 1, alg, module)
        else:
            from .shuffleco import d_harrison
            quo = ShuffleQuotient()
            from itertools import combinations_with_replacement
            dom, cod = [], []
            for ms in combinations_with_replacement(sorted(letters), n):
                dom.extend(quo.representatives(ms))
            for ms in combinations_with_replacement(sorted(letters), n + 1):
                cod.extend(quo.representatives(ms))
            def dof(C):
                table = {w: C(w) for w in dom if C(w)}
                return d_harrison(table, n + 1, alg, module, quo)
        vletters = alg.letters
    else:
        ls = [Letter(("l", 1), 0), Letter(("l", 2), 0)]
        br = {(("l", 1), ("l", 2)): {("l", 1): Fraction(1)},
              (("l", 2), ("l", 1)): {("l", 1): Fraction(-1)}}
        lie = LieData(ls, br)
        from itertools import combinations
        dom = list(combinations(range(2), n)) if n <= 2 else []
        cod = list(combinations(range(2), n + 1)) if n + 1 <= 2 else []
        dom = [tuple(ls[i] for i in c) for c in dom]
        cod = [tuple(ls[i] for i in c) for c in cod]
        def dof(C):
            return d_chevalley_classical(C, n, lie)
        vletters = [Letter(("R",), 0)]
    vidx = {v: i for i, v in enumerate(vletters)}
    mat = SparseMat(len(cod) * len(vletters), len(dom) * len(vletters))
    for ci, w in enumerate(dom):
        for vi, v in enumerate(vletters):
            C = lambda word: ({v: Fraction(1)} if word == w else {})
            dC = dof(C)
            for ri, wr in enumerate(cod):
                for vo, c in dC(wr).items():
                    if c:
                        r = ri * len(vletters) + vidx[vo]
                        mat[r, ci * len(vletters) + vi] = mat[r, ci * len(vletters) + vi] + c
    if args.format == "matrixmarket":
        _emit(mat.to_matrixmarket(), args.out)
    else:
        _emit(mat.to_json() + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return {
            "verify": cmd_verify,
            "dims": cmd_dims,
            "cocycle": cmd_cocycle,
            "differential": cmd_differential,
        }[args.command](args)
    except TruncationError as ex:
        sys.stderr.write(f"insufficient truncation: {ex}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
