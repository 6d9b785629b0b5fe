"""The tropicorr/1 curve-file format.

One parameterized curve per JSON file.  Rationals travel as strings ("3",
"-1/2") so nothing ever goes through floating point; h vectors of infinite
vertices are plain integer arrays.  The infinite-vertex array order is
load-bearing: constraints bind to the first k infinite vertices.  Unknown
fields are rejected.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import ParseError
from .exactla import CoeffGroup
from .paramcurve import AffineConstraintSet, ParamTropicalCurve, constraint_set
from .tropgraph import Edge, TropicalCurve

SCHEMA = "tropicorr/1"

_TOP_FIELDS = {"schema", "lattice_rank", "char", "finite_vertices",
               "infinite_vertices", "edges", "constraints"}


# the form str(Fraction) writes; Fraction itself would also take exponents,
# and "1e400000000" would build a 400-million-digit integer
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rat(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError(f"{where}: expected a rational string, got {value!r}")
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        raise ParseError(f"{where}: bad rational {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {value!r}") from exc


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _id(value, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected an array, got {value!r}")
    return value


def _required(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def parse_char(value, where: str) -> int:
    """A residue characteristic: zero or a prime, else a ParseError."""
    char = _int(value, where)
    try:
        CoeffGroup.field(char)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}, got {char}") from exc
    return char


def _check_fields(obj: dict, allowed, where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")


def parse_curve(data: dict):
    """data -> (ParamTropicalCurve, AffineConstraintSet | None, char)."""
    _check_fields(data, _TOP_FIELDS, "curve file")
    if data.get("schema") != SCHEMA:
        raise ParseError(f"schema must be {SCHEMA!r}")
    n = _int(data.get("lattice_rank"), "lattice_rank")
    if n < 1:
        raise ParseError("lattice_rank must be positive")
    char = parse_char(data.get("char", 0), "char")

    h = {}
    finite, infinite = [], []
    # an infinite vertex's h is a direction, so its entries are integers
    for kind, ids, entry in (("finite", finite, _rat),
                             ("infinite", infinite, _int)):
        for item in _list(data.get(f"{kind}_vertices", []), f"{kind}_vertices"):
            _check_fields(item, {"id", "h"}, f"{kind} vertex")
            vid = _id(_required(item, "id", f"{kind} vertex"),
                      f"{kind} vertex id")
            vec = _list(_required(item, "h", f"vertex {vid}"), f"h({vid})")
            if len(vec) != n:
                raise ParseError(f"vertex {vid}: h must have {n} entries")
            ids.append(vid)
            h[vid] = tuple(Fraction(entry(x, f"h({vid})")) for x in vec)

    edges = []
    for item in _list(data.get("edges", []), "edges"):
        _check_fields(item, {"id", "ends", "length"}, "edge")
        eid = _id(_required(item, "id", "edge"), "edge id")
        ends = _list(_required(item, "ends", f"edge {eid}"), f"edge {eid} ends")
        if len(ends) != 2:
            raise ParseError(f"edge {eid}: ends must list two vertices")
        ends = tuple(_id(u, f"edge {eid} ends") for u in ends)
        ln = _required(item, "length", f"edge {eid}")
        if ln == "inf":
            length = None
        else:
            length = _rat(ln, f"length({eid})")
        edges.append(Edge(eid, ends, length))

    curve = TropicalCurve(tuple(finite), tuple(infinite), tuple(edges))
    p = ParamTropicalCurve(curve, n, h)

    constraints = None
    if "constraints" in data:
        items = []
        for i, item in enumerate(_list(data["constraints"], "constraints")):
            _check_fields(item, {"L_basis", "point"}, f"constraint {i}")
            where = f"constraint {i} basis"
            basis = [[_int(x, where) for x in _list(row, where)]
                     for row in _list(item.get("L_basis", []), where)]
            point = tuple(_rat(x, f"constraint {i} point") for x in
                          _list(item.get("point", []), f"constraint {i} point"))
            if len(point) != n:
                raise ParseError(f"constraint {i}: point must have {n} entries")
            if any(len(row) != n for row in basis):
                raise ParseError(f"constraint {i}: basis rows must have {n} entries")
            items.append((basis, point))
        try:
            constraints = constraint_set(items, n)
        except ValueError as exc:
            raise ParseError(f"bad constraint: {exc}") from exc
    return p, constraints, char


def load(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError and the integer-digit limit
        # are all ValueErrors; deep nesting is a RecursionError
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    p, constraints, char = parse_curve(data)
    return p, constraints, char, raw


def curve_to_json(p: ParamTropicalCurve,
                  constraints: AffineConstraintSet | None = None,
                  char: int = 0) -> dict:
    data = {
        "schema": SCHEMA,
        "lattice_rank": p.lattice_rank,
        "char": char,
        "finite_vertices": [
            {"id": v, "h": [str(x) for x in p.hv(v)]}
            for v in p.curve.finite_vertices
        ],
        "infinite_vertices": [
            {"id": v, "h": [int(x) for x in p.hv(v)]}
            for v in p.curve.infinite_vertices
        ],
        "edges": [
            {"id": e.id, "ends": list(e.ends),
             "length": "inf" if e.length is None else str(e.length)}
            for e in p.curve.edges
        ],
    }
    if constraints is not None:
        data["constraints"] = [
            {"L_basis": [list(row) for row in con.space.basis],
             "point": [str(x) for x in con.point]}
            for con in constraints.items
        ]
    return data
