"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules with
a timing wrapper, in the defining module and in every ``tropicorr`` module
namespace that bound the same function through ``from .x import y``;
``remove`` puts the originals back.  A span is (name, start, end, parent
span, item id, tail): ``tail`` is the bookkeeping time the wrapper spent
after ``end`` (matrix fingerprints for SNF), which is charged to no layer.
Spans stay in memory until ``dump``.

Leaf helpers (vector arithmetic, matrix shape and copying, one-line
predicates) are not wrapped: they are called so often that wrapping them
would measure the tracer, and their time stays in their caller's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("exactla", "tropgraph", "paramcurve", "complexes", "fanmodel",
          "stacky", "counting", "curvefile", "cli")

LEAVES = {
    "exactla": {"freeze", "zeros", "identity", "shape", "transpose",
                "mat_mul", "mat_vec", "vec_gcd", "integral_length",
                "primitive_vector", "zero_lattice", "full_lattice",
                "prime_to_part", "combine_sizes"},
    "tropgraph": {"curve", "incident_edges", "valency", "is_connected",
                  "genus", "bounded_length", "satisfies_stability_bound",
                  "is_stable"},
    "paramcurve": {"qvec", "vadd", "vsub", "vscale", "is_zero", "as_int_vec",
                   "param_curve", "edge_direction", "constraint_set",
                   "overvalency"},
    "fanmodel": {"cone", "cone_contains", "is_face", "vertex_ray",
                 "edge_cone"},
}

# the subcommand handlers are reached through cli.COMMANDS, not by name
ONLY = {"cli": {"run"}}

LATTICE = ("hnf", "saturation", "is_saturated", "lattice_intersect",
           "lattice_sum", "lattice_index", "lattice_intersect_span",
           "quotient_presentation")
BALANCING = ("param_violations", "balancing_defects", "require_balanced")

# per-layer metric -> the spans it sums over
GROUPS = {
    "exactla.snf": ["exactla.snf"],
    "exactla.lattice": ["exactla." + n for n in LATTICE],
    "tropgraph.validate": ["tropgraph.validate"],
    "tropgraph.stabilize": ["tropgraph.stabilize"],
    "paramcurve.balancing": ["paramcurve." + n for n in BALANCING],
    "paramcurve.edge_geometry": ["paramcurve.edge_geometry"],
    "paramcurve.rank": ["paramcurve.rank"],
    "paramcurve.check_constraint": ["paramcurve.check_constraint"],
    "paramcurve.stabilize_param": ["paramcurve.stabilize_param"],
    "complexes.compute": ["complexes.compute"],
    "complexes.regularity": ["complexes.regularity"],
    "fanmodel.intersect_cones": ["fanmodel.intersect_cones"],
    "fanmodel.refine": ["fanmodel.refine_to_fan", "fanmodel.gamma_tr"],
    "fanmodel.fan_model": ["fanmodel.fan_model", "fanmodel.check_fan"],
    "stacky.stacky_data": ["stacky.stacky_data"],
    "stacky.node_stack": ["stacky.node_stack"],
    "stacky.is_dm": ["stacky.is_dm"],
    "counting.count": ["counting.correspondence_count",
                       "counting.elliptic_count"],
    "curvefile.load": ["curvefile.load"],
    "cli.run": ["cli.run"],
}


def _max_bits(*mats) -> int:
    return max((abs(x).bit_length() for m in mats for row in m for x in row),
               default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.patched = []          # (module, name, original)
        self.snf_seen = set()      # matrices already reduced in this item
        self.snf_repeats = 0
        self.snf_max_cells = 0
        self.snf_bits = {}         # item id -> largest SNF coefficient bits
        self.compute_seen = set()
        self.compute_distinct = 0

    def start_item(self, item_id):
        self.item = item_id
        self.snf_seen.clear()
        self.compute_seen.clear()

    # -- installing -------------------------------------------------------

    def install(self):
        mods = {name: sys.modules[name] for name in list(sys.modules)
                if name == "tropicorr" or name.startswith("tropicorr.")}
        for layer in LAYERS:
            mod = mods["tropicorr." + layer]
            for name, fn in list(vars(mod).items()):
                if (not inspect.isfunction(fn) or name.startswith("_")
                        or fn.__module__ != mod.__name__
                        or name in LEAVES.get(layer, ())
                        or (layer in ONLY and name not in ONLY[layer])):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for other in mods.values():
                    for bound, obj in list(vars(other).items()):
                        if obj is fn:
                            self.patched.append((other, bound, fn))
                            setattr(other, bound, wrapper)

    def remove(self):
        for mod, name, fn in reversed(self.patched):
            setattr(mod, name, fn)
        self.patched.clear()

    def _wrap(self, span_name, fn):
        spans, stack = self.spans, self.stack
        after = {"exactla.snf": self._after_snf,
                 "complexes.compute": self._after_compute}.get(span_name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (span_name, t0, t1, parent, self.item, 0.0)
            if after is not None:
                after(args, out)
                spans[idx] = (span_name, t0, t1, parent, self.item,
                              perf_counter() - t1)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_snf(self, args, res):
        key = tuple(map(tuple, args[0]))
        if key in self.snf_seen:
            self.snf_repeats += 1
        self.snf_seen.add(key)
        cells = len(key) * (len(key[0]) if key else 0)
        self.snf_max_cells = max(self.snf_max_cells, cells)
        bits = _max_bits(res.U, res.D, res.V)
        self.snf_bits[self.item] = max(self.snf_bits.get(self.item, 0), bits)

    def _after_compute(self, args, rep):
        spec = args[1] if len(args) > 1 else None
        key = (getattr(spec, "variant", None), getattr(spec, "elliptic", None),
               rep.matrix)
        if key not in self.compute_seen:
            self.compute_seen.add(key)
            self.compute_distinct += 1

    # -- reading ----------------------------------------------------------

    def self_times(self):
        """Span self time: duration minus the children's durations and
        tails."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= (s[2] - s[1]) + s[5]
        return own

    def layer_metrics(self) -> dict:
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            calls[s[0]] += 1
            self_s[s[0]] += own
        out = {}
        for group, names in GROUPS.items():
            out[group + ".calls"] = sum(calls[n] for n in names)
            out[group + ".self_s"] = sum(self_s[n] for n in names)
        snf_calls = calls["exactla.snf"]
        out["exactla.snf.max_cells"] = self.snf_max_cells
        out["exactla.snf.max_bits"] = max(self.snf_bits.values(), default=0)
        out["exactla.snf.repeat_ratio"] = (
            self.snf_repeats / snf_calls if snf_calls else 0.0)
        compute_calls = calls["complexes.compute"]
        out["complexes.compute.useful_ratio"] = (
            self.compute_distinct / compute_calls if compute_calls else 0.0)
        return out

    def dump(self, path):
        """One JSON array per span: name, start, end, parent, item, tail."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
