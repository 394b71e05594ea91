"""Command line front end.

Four commands: ``verify`` runs the seeded identity suites, ``dims`` prints
basis dimensions, ``cocycle`` runs the scalar 3-cochain pipeline (value,
cocycle check, coboundary decision) in its coordinate window on R^min(d, 4),
so its cost does not depend on d, ``differential`` exports a coboundary
matrix.  Exit codes: 0 all checks pass, 1 a mathematical check failed,
2 usage or configuration error, an ``--out`` that cannot be written included.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .chcoh import (Truncation, TruncationError, assemble_matrix, f3_111,
                    is_cocycle, is_coboundary, level_shapes, linear_fields,
                    real_polyvec_context, window)
from .ginfty import mono_key
from .polyvec import basis as pv_basis
from .suites import SUITES, run_suites
from .symco import classical_matrix

@cache
def make_parser() -> argparse.ArgumentParser:
    """One subparser per command, with only the flags that command reads;
    any other flag is an argparse usage error (exit 2).  Built once per
    process: parsing keeps no state in the parser."""
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
    dims.add_argument("--Nmax", type=int, default=3,
                      help="longest packet length counted, 1 to 3")
    cocycle.add_argument("--Nmax", type=int, default=4)
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


class _Unwritable(Exception):
    """The --out file could not be written; reported, exit 2."""


def _emit(text: str, out):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as ex:
        sys.stderr.write(f"cannot write --out {out}: {ex.strerror}\n")
        raise _Unwritable from None


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
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
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
    if not 1 <= args.Nmax <= 3:
        sys.stderr.write(f"dims: need 1 <= Nmax <= 3, got {args.Nmax}\n")
        return 2
    kmax = _kmax(args, 0, "tensor degree bound")
    if kmax is None:
        return 2
    d = args.d
    rows = [(k, len(pv_basis(d, k))) for k in range(kmax + 1)]
    ctx = real_polyvec_context(d, kmax)
    qdims = []
    for n in range(1, args.Nmax + 1):
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
    if args.Nmax < 1:
        sys.stderr.write(f"need a level bound Nmax >= 1, got {args.Nmax}\n")
        return 2
    if args.nmax < 1:
        sys.stderr.write(f"need a packet count bound nmax >= 1, got {args.nmax}\n")
        return 2
    kmax = _kmax(args, 1, "the 3-cochain lives on vector fields")
    if kmax is None:
        return 2
    trunc = Truncation(args.d, kmax, args.Nmax, args.nmax)
    # decide in the coordinate window: the report keeps the requested d and kmax
    d = min(args.d, window(trunc, 3, -3))
    ctx = real_polyvec_context(d, min(kmax, d))
    f3 = f3_111(d, ctx)
    vf = linear_fields(d, ctx)
    probe, sign = mono_key([(vf[1, 2],), (vf[2, 3],), (vf[3, 1],)])
    value = sign * f3.eval(probe).get(ctx.target.letters[0], 0)
    cocycle = is_cocycle(f3, ctx, trunc)
    pre = is_coboundary(f3, ctx, trunc)
    assert pre is None or d == args.d, "unreachable: see chcoh.window"
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
    if args.nmax < 1:
        sys.stderr.write("need a packet count bound nmax >= 1\n")
        return 2
    kmax = _kmax(args, 0, "tensor degree bound")
    if kmax is None:
        return 2
    if args.operator == "dch":
        mat, _, _ = assemble_matrix(real_polyvec_context(args.d, kmax),
                                    level_shapes(args.level, args.nmax))
    else:
        mat = classical_matrix(args.operator, args.level)
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
    except _Unwritable:
        return 2


if __name__ == "__main__":
    sys.exit(main())
