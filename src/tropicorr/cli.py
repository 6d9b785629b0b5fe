"""Command-line front end.

One curve file per invocation: ``tropicorr COMMAND FILE`` with the flags
before, between or after the two, all read by one parser; ``-h`` prints one
usage line that lists every command.  Exit codes: 0 on success, 1 on a
domain error (with a stable machine-readable code), 2 on a parse error.
--json emits a deterministic JSON report (sorted keys, canonical rational
strings); without it the result prints one line per leaf (an empty mapping
as {}), then one ``warning:`` line per warning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import curvefile
from . import paramcurve as pc
from . import tropgraph
from .errors import ConstraintCountMismatch, ParseError, TropicorrError
from .exactla import CoeffGroup, GroupSize


# --group tag -> CoeffGroup kind; the field and k* take the characteristic
GROUP_KINDS = {"Z": "Z", "Q": "Q", "Fp": "field", "kstar": "kstar"}


def _group_from_args(args, char: int) -> CoeffGroup:
    kind = GROUP_KINDS[args.group]
    return CoeffGroup(kind, char if kind in ("field", "kstar") else 0)


def _size_json(s: GroupSize) -> dict:
    return {"free_rank": s.free_rank, "kdim": s.kdim,
            "finite_order": s.finite_order}


def _group_json(g) -> dict:
    return {"rank": g.rank, "torsion": list(g.torsion)}


def _need_constraints(constraints):
    if constraints is None:
        raise ConstraintCountMismatch("the curve file carries no constraints")
    return constraints


def cmd_validate(p, constraints, char, args):
    violations = pc.param_violations(p)
    return {"valid": not violations, "violations": violations}, (0 if not violations else 1)


def cmd_info(p, constraints, char, args):
    from . import complexes as cx
    pc.require_balanced(p)
    g = tropgraph.genus(p.curve)
    out = {
        "genus": g,
        "degree": [[list(d), m] for d, m in pc.degree(p)],
        "rank": cx.rank(p),
        "zero_slope_bounded": pc.zero_slope_bounded_count(p),
        "stable": tropgraph.is_stable(p.curve),
        "finite_vertices": len(p.curve.finite_vertices),
        "infinite_vertices": len(p.curve.infinite_vertices),
    }
    if g == 1:
        out["tropical_j"] = str(pc.tropical_j(p))
    if constraints is not None:
        rep = pc.check_constraint(p, constraints)
        out["constraint"] = {"satisfies": rep.satisfies, "simple": rep.simple,
                             "codim": rep.codim}
    return out, 0


def cmd_stabilize(p, constraints, char, args):
    st = pc.stabilize_param(p)
    return {"curve": curvefile.curve_to_json(st, constraints, char)}, 0


def cmd_tr(p, constraints, char, args):
    from . import fanmodel
    tr = fanmodel.gamma_tr(p)
    return {"curve": curvefile.curve_to_json(tr, constraints, char)}, 0


def cmd_fan(p, constraints, char, args):
    from . import fanmodel
    tr = fanmodel.gamma_tr(p)
    return {"fan": fanmodel.fan_to_json(fanmodel.fan_model(tr))}, 0


def cmd_complex(p, constraints, char, args):
    from . import complexes as cx
    spec = cx.ComplexSpec(args.variant,
                          _need_constraints(constraints) if args.constrained else None,
                          elliptic=args.elliptic)
    group = _group_from_args(args, char)
    rep = cx.compute(p, spec)
    e1_size, e2_size = cx.sizes_over(rep.E1_rank, rep.E2, group)
    return {
        "variant": args.variant,
        "group": str(group),
        "matrix_shape": [rep.n_rows, rep.domain_dim],
        "E1_rank": rep.E1_rank,
        "E2": _group_json(rep.E2),
        "zero_slope_bounded": pc.zero_slope_bounded_count(p),
        "E1_size": _size_json(e1_size),
        "E2_size": _size_json(e2_size),
    }, 0


def cmd_regular(p, constraints, char, args):
    from . import complexes as cx
    group = _group_from_args(args, char)
    verdict = cx.regularity(p, constraints if args.constrained else None,
                            group, elliptic=args.elliptic)
    return {
        "group": str(group),
        "g_regular": verdict.g_regular,
        "elliptically_regular": verdict.elliptically_regular,
        "obstruction": _size_json(verdict.obstruction),
    }, 0


def _count_json(res) -> dict:
    hyp = res.hypotheses
    return {
        "count": str(res.count),
        "factorization": [str(res.torsor_order), str(res.stacky_factor)],
        "hypotheses": {flag: getattr(hyp, flag) for flag in hyp.CHECK_ORDER},
        "cross_checks": list(res.cross_checks),
    }


def cmd_count(p, constraints, char, args):
    from . import counting
    res = counting.correspondence_count(p, _need_constraints(constraints), char)
    return _count_json(res), 0


def cmd_count_elliptic(p, constraints, char, args):
    from . import counting
    res = counting.elliptic_count(p, _need_constraints(constraints), char)
    return _count_json(res), 0


def cmd_stacky(p, constraints, char, args):
    from . import fanmodel, stacky
    tr = fanmodel.gamma_tr(p)
    a = fanmodel.ramification(tr, 1)["minimal_a"]
    st = stacky.stacky_data(tr, a)
    ns = stacky.node_stack(tr)
    return {
        "stacky": stacky.stacky_to_json(st),
        "node_orders": dict(sorted(ns.node_orders.items())),
        "marked_orders": dict(sorted(ns.marked_orders.items())),
        "dm": pc.is_dm(p, char),
        "char": char,
    }, 0


def cmd_reduction_data(p, constraints, char, args):
    from . import fanmodel
    tr = fanmodel.gamma_tr(p)
    table = {}
    for v in tr.curve.finite_vertices:
        table[v] = [[eid, list(vec)]
                    for eid, vec in fanmodel.reduction_exponents(tr, v)]
    return {"exponents": table}, 0


COMMANDS = {
    "validate": cmd_validate,
    "info": cmd_info,
    "stabilize": cmd_stabilize,
    "tr": cmd_tr,
    "fan": cmd_fan,
    "complex": cmd_complex,
    "regular": cmd_regular,
    "count": cmd_count,
    "count-elliptic": cmd_count_elliptic,
    "stacky": cmd_stacky,
    "reduction-data": cmd_reduction_data,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors become ParseError, reported as JSON with exit 2."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="tropicorr",
        description="exact combinatorics of parameterized tropical curves")
    ap.add_argument("command", choices=list(COMMANDS), help="analysis to run")
    ap.add_argument("file", help="curve JSON file (tropicorr/1)")
    ap.add_argument("--json", action="store_true",
                    help="emit the full JSON report")
    ap.add_argument("--char", type=int, default=None,
                    help="residue characteristic (overrides the file)")
    ap.add_argument("--group", choices=list(GROUP_KINDS),
                    default="Z", help="coefficient group")
    ap.add_argument("--constrained", action="store_true",
                    help="use the file's constraints")
    ap.add_argument("--elliptic", action="store_true",
                    help="augment with the cycle (genus one)")
    ap.add_argument("--variant", choices=["b", "beta"], default="beta",
                    help="plain (b) or stacky (beta) complex")
    ap.add_argument("--out", default=None,
                    help="write the JSON report to this file")
    return ap


def _flat(prefix, value, lines):
    if isinstance(value, dict) and value:       # an empty one prints {}
        for k in value:
            _flat(f"{prefix}.{k}" if prefix else str(k), value[k], lines)
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        lines.append(f"{prefix}: {json.dumps(value)}")
    else:
        lines.append(f"{prefix}: {value}")


def _emit(report, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
        return
    if args.json:
        sys.stdout.write(text)
    else:
        lines = []
        _flat("", report["result"], lines)
        lines += [f"warning: {w}" for w in report["warnings"]]
        sys.stdout.write("\n".join(lines) + "\n")


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        p, constraints, file_char, raw = curvefile.load(args.file)
        char = (file_char if args.char is None
                else curvefile.parse_char(args.char, "--char"))
        warnings = []
        if args.char is not None and file_char and args.char != file_char:
            warnings.append(
                f"--char {args.char} overrides char {file_char} from the file")
        payload, code = COMMANDS[args.command](p, constraints, char, args)
        report = {
            "command": args.command,
            "input": {"path": args.file,
                      "sha256": hashlib.sha256(raw).hexdigest()},
            "result": payload,
            "warnings": warnings,
        }
        _emit(report, args)
        return code
    except TropicorrError as exc:
        sys.stdout.write(json.dumps(
            {"error": {"code": exc.code, "message": str(exc)}},
            sort_keys=True) + "\n")
        return 2 if isinstance(exc, ParseError) else 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
