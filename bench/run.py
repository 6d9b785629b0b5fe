#!/usr/bin/env python3
"""The tropicorr benchmark: seeded workloads, checked outputs, end-to-end
metrics, and a traced run with per-layer metrics.

    python3 bench/run.py --workload count-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One client in a closed loop: each library
call or CLI process starts only after the previous one returned.  The pool of
items a workload cycles through is generated from ``--seed`` alone; the run
goes on until ``--seconds`` have elapsed and 100 items were timed, and stops
at the end of a pass (of a round on count-large).  With ``--trace 1`` it
alternates untraced and traced passes instead, and reports the counts of the
first traced pass, so that they repeat exactly.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  See
bench/NOTES.md for why each workload exists and what each metric should
move.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
from clock import Clock  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_SAMPLES = 100      # so the 90th percentile has ten samples beyond it
CHARS = (0, 2, 3, 5)
CLI_COMMANDS = ("validate", "info", "stabilize", "tr", "fan", "complex",
                "regular", "count", "count-elliptic", "stacky",
                "reduction-data")
BUCKETS = ((13, 21), (22, 29), (30, 37))
START_MS = 40.0        # a bare interpreter start on the nominal host


class Unavailable(Exception):
    """The checkout does not hold the library."""


def import_library():
    """Import tropicorr afresh from the checkout's src/ (never from an
    installed copy) and return its modules."""
    src = ROOT / "src"
    if not (src / "tropicorr" / "__init__.py").is_file():
        raise Unavailable(f"no library at {src}")
    for name in [m for m in sys.modules
                 if m == "tropicorr" or m.startswith("tropicorr.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    lib = importlib.import_module("tropicorr")
    if Path(lib.__file__).resolve().parent != (src / "tropicorr").resolve():
        raise Unavailable(f"tropicorr imported from {lib.__file__}")
    for sub in ("cli", "counting", "curvefile", "errors", "fanmodel",
                "paramcurve", "stacky", "tropgraph"):
        importlib.import_module("tropicorr." + sub)
    return sys.modules


@dataclass
class Item:
    """One library call on one input, or one CLI invocation.  ``call``
    returns the canonical text of the result; ``check`` is an independent
    oracle on that text (None when the item has none)."""

    id: str
    call: Callable[[], str] | None
    check: Callable[[str], bool] | None = None
    vertices: int = 0
    command: str = ""
    argv: list = field(default_factory=list)


class Outcome:
    """Canonical text of a result, or why the item failed."""

    def __init__(self, text=None, crash=None):
        self.text, self.crash = text, crash


# ---------------------------------------------------------------------------
# in-process items


def to_library(mods, c):
    tg = mods["tropicorr.tropgraph"]
    pc = mods["tropicorr.paramcurve"]
    curve = tg.TropicalCurve(tuple(c.finite), tuple(c.infinite),
                             tuple(tg.Edge(e, (u, w), ln)
                                   for e, u, w, ln in c.edges))
    p = pc.ParamTropicalCurve(curve, c.n, dict(c.h))
    cons = None if c.constraints is None else pc.constraint_set(c.constraints, c.n)
    return p, cons


def count_item(mods, wid, idx, label, c, char, elliptic=False):
    counting = mods["tropicorr.counting"]
    name = "elliptic_count" if elliptic else "correspondence_count"
    p, cons = to_library(mods, c)

    def call():
        r = getattr(counting, name)(p, cons, char)
        h = r.hypotheses
        hyp = ",".join(f"{k}={getattr(h, k)}" for k in h.CHECK_ORDER)
        return (f"count={r.count} torsor={r.torsor_order} "
                f"stacky={r.stacky_factor} hyp={hyp} "
                f"checks={'|'.join(r.cross_checks)}")

    check = None
    if c.n == 2 and not elliptic:
        want = oracle.mikhalkin_multiplicity(c)

        def check(text):
            return not text.startswith("count=") or \
                int(text.split()[0][6:]) == want

    return Item(f"{wid}:{idx}:{label}:c{char}", call, check,
                vertices=len(c.finite))


def structure_item(mods, wid, idx, label, c):
    fan = mods["tropicorr.fanmodel"]
    stacky = mods["tropicorr.stacky"]
    p, _ = to_library(mods, c)

    def call():
        tr = fan.gamma_tr(p)
        a = fan.ramification(tr, 1)["minimal_a"]
        st = stacky.stacky_data(tr, a)
        ns = stacky.node_stack(tr)
        dm = [stacky.is_dm(p, q) for q in (2, 3, 5)]
        exps = [(v, fan.reduction_exponents(tr, v))
                for v in sorted(tr.curve.finite_vertices)]
        return json.dumps({
            "a": a, "orders": st.orders(), "dm": dm,
            "nodes": sorted(ns.node_orders.items()),
            "marked": sorted(ns.marked_orders.items()),
            "tr_vertices": len(tr.curve.finite_vertices),
            "exponents": exps}, sort_keys=True)

    def check(text):
        if not text.startswith("{"):
            return True
        res = json.loads(text)
        return res["dm"] == [all(o % q for o in res["orders"])
                             for q in (2, 3, 5)]

    return Item(f"{wid}:{idx}:{label}", call, check, vertices=len(c.finite))


def pool_count_small(mods, rng):
    """Three parts in fixed proportions, 3-10 finite vertices, chars 0, 2,
    3, 5 in turn: rigid genus-0 trees (rank 2 and 3), rigid genus-one
    polygons counted with a fixed j, and decorated constrained curves that
    mostly fail a hypothesis."""
    items = []
    for r in range(40):
        for j, char in enumerate(CHARS):
            k = len(items)
            c = gen.draw(rng, gen.rigid_plane_tree, 3 + (r + j) % 3)
            items.append(count_item(mods, "count-small", k, "tree2", c, char))
            c = gen.draw(rng, gen.rigid_space_tree, 2 + (r + j) % 3,
                         max_finite=10)
            items.append(count_item(mods, "count-small", k + 1, "tree3", c, char))
            c = gen.draw(rng, gen.rigid_elliptic, 2, max_finite=10)
            items.append(count_item(mods, "count-small", k + 2, "elliptic", c,
                                    char, elliptic=True))
            c = gen.draw(rng, gen.decorated_constrained, 2 + (r + j) % 2,
                         max_finite=10, min_finite=3)
            items.append(count_item(mods, "count-small", k + 3, "decorated",
                                    c, char))
    return items


def pool_count_large(mods, rng):
    """Rigid plane trees with 8-20 ends and one point fewer (13-37 finite
    vertices), char 0.  Each round of 20 has a block of four 12-end trees
    where the median falls and a block of four 16-end trees where the 90th
    percentile falls, so both sit inside a group of like items rather than
    between two sizes; the largest tree of a round has 17 to 20 ends."""
    items = []
    for top in (17, 18, 19, 20):
        plan = [8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 12, 12, 13, 14, 15,
                16, 16, 16, 16, top]
        for ends in plan:
            c = gen.draw(rng, gen.rigid_plane_tree, ends)
            items.append(count_item(mods, "count-large", len(items),
                                    f"d{ends}", c, 0))
    return items


STRUCTURE_SHAPES = [("star", 3, 1), ("star", 4, 1), ("star", 3, 2),
                    ("star", 4, 2), ("polygon", 3, 0), ("polygon", 4, 0),
                    ("polygon", 3, 1), ("polygon", 4, 1), ("theta", 2, 0),
                    ("theta", 3, 0)]


def pool_structure(mods, rng):
    """Unconstrained stars with sprouts, genus-one polygons and theta
    graphs in ranks 2 and 3, each shape with every combination of the two
    zero-slope decorations in turn.  Shapes and decorations are fixed per
    round; only the geometry comes from the seed."""
    items = []
    for r in range(12):
        for j, (kind, size, sprouts) in enumerate(STRUCTURE_SHAPES):
            for n in (2, 3):
                deco = (r + j + n) % 4
                c = gen.draw(rng, gen.unconstrained, n, kind, size, sprouts,
                             deco & 1, deco & 2)
                items.append(structure_item(mods, "structure", len(items),
                                            f"{kind}{size}.{sprouts}-{n}", c))
    return items


# ---------------------------------------------------------------------------
# CLI items


def cli_inputs(rng, seed):
    """Write the generated and malformed curve files; return (argv list,
    oracle per argv index).  Five generated files make one pass hold more
    than 100 invocations."""
    d = OUT / f"cli-{seed}"
    d.mkdir(parents=True, exist_ok=True)
    rel = d.relative_to(ROOT)
    planes = {f"plane{k}.json": gen.draw(rng, gen.rigid_plane_tree, k)
              for k in (4, 5, 6)}
    files = {name: c.dumps() for name, c in planes.items()}
    for name in ("elliptic1.json", "elliptic2.json"):
        files[name] = gen.draw(rng, gen.rigid_elliptic, 2).dumps()
    base = planes["plane5.json"]
    bad = base.to_json()
    bad["comment"] = "unknown field"
    noid = base.to_json()
    del noid["finite_vertices"][0]["id"]
    malformed = {"invalid.json": base.dumps()[:-40],
                 "unknown_field.json": json.dumps(bad),
                 "missing_id.json": json.dumps(noid)}
    for name, text in {**files, **malformed}.items():
        (d / name).write_text(text, encoding="utf-8")

    inputs = sorted(str(f.relative_to(ROOT))
                    for f in (ROOT / "fixtures").glob("*.json"))
    inputs += [str(rel / name) for name in files]
    runs = [[cmd, f, "--json"] for f in inputs for cmd in CLI_COMMANDS]
    runs += [["validate", str(rel / "invalid.json"), "--json"],
             ["validate", str(rel / "unknown_field.json"), "--json"],
             ["info", str(rel / "missing_id.json"), "--json"],
             ["count", "fixtures/line2pts.json", "--char", "4", "--json"]]

    def plane_count(want):
        def check(text):
            rc, _, out = text.partition("\n")
            return rc != "0" or json.loads(out)["result"]["count"] == str(want)
        return check

    checks = {}
    for name, c in planes.items():
        i = runs.index(["count", str(rel / name), "--json"])
        checks[i] = plane_count(oracle.mikhalkin_multiplicity(c))
    return runs, checks


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def run_cli_process(argv, env):
    proc = subprocess.run([sys.executable, "-m", "tropicorr.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    return cli_outcome(proc.returncode, proc.stdout, proc.stderr)


def cli_outcome(rc, stdout, stderr):
    if rc not in (0, 1, 2):
        return Outcome(crash=f"exit {rc}")
    if "Traceback" in stderr:
        return Outcome(crash="traceback: " + stderr.strip().splitlines()[-1])
    try:
        json.loads(stdout)
    except ValueError:
        return Outcome(crash="stdout is not JSON")
    return Outcome(f"{rc}\n{stdout}")


def cli_in_process(mods, argv):
    """tropicorr.cli.run in this process with stdout captured; an
    exception escaping run() is the in-process form of a traceback."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = mods["tropicorr.cli"].run(list(argv))
    except Exception as exc:  # noqa: BLE001 - any escape is a failed item
        return Outcome(crash=f"traceback: {type(exc).__name__}: {exc}")
    return cli_outcome(rc, buf.getvalue(), "")


# ---------------------------------------------------------------------------
# running and checking


class Checker:
    """Compares every outcome with the golden digest (default seed) or with
    the first outcome of the same item in this run, and with its oracle."""

    def __init__(self, workload, seed):
        self.digests = {}
        self.golden = None
        path = GOLDEN / f"{workload}.json"
        if seed == DEFAULT_SEED and path.is_file():
            self.golden = json.loads(path.read_text())["digests"]
        self.attempted = self.failed = self.wrong = 0
        self.notes = []

    def record(self, item: Item, out: Outcome):
        self.attempted += 1
        if out.crash is not None:
            self.failed += 1
            self.digests.setdefault(item.id, None)
            self._note(f"{item.id}: {out.crash}")
            return
        d = oracle.digest(out.text)
        ref = self.digests.setdefault(item.id, d)
        if self.golden is not None:
            # an item that crashed when the golden file was written has no
            # digest there; once fixed it is held to its first output
            ref = self.golden.get(item.id, "missing") or ref
        ok = d == ref and (item.check is None or item.check(out.text))
        if not ok:
            self.failed += 1
            self.wrong += 1
            self._note(f"{item.id}: wrong output {out.text[:200]!r}")

    def _note(self, text):
        if len(self.notes) < 20:
            self.notes.append(text)


def run_library_item(mods, item):
    err = mods["tropicorr.errors"].TropicorrError
    try:
        return Outcome(item.call())
    except err as exc:
        return Outcome("error " + exc.code)
    except Exception as exc:  # noqa: BLE001 - any other escape is a failure
        return Outcome(crash=f"{type(exc).__name__}: {exc}")


def run_items(pool, execute, checker, clock, more, tracer=None):
    """Run pool items in order, cycling, while more(items done, elapsed
    seconds) holds; returns the raw wall time."""
    t_start = time.perf_counter()
    i = 0
    while more(i, time.perf_counter() - t_start):
        item = pool[i % len(pool)]
        if tracer is not None:
            tracer.start_item(item.id)
        t0 = time.perf_counter()
        out = execute(item)
        clock.add(item, time.perf_counter() - t0)
        checker.record(item, out)
        i += 1
    clock.flush()
    return time.perf_counter() - t_start


def one_pass(pool, execute, checker, clock, tracer=None):
    return run_items(pool, execute, checker, clock,
                     lambda i, _: i < len(pool), tracer)


def build_pool(workload, seed):
    mods = import_library()
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli":
        runs, checks = cli_inputs(rng, seed)
        pool = [Item(f"cli:{i}:{r[0]}:{Path(r[1]).name}", None,
                     checks.get(i), command=r[0], argv=r)
                for i, r in enumerate(runs)]
    else:
        pool = POOLS[workload](mods, rng)
    return mods, pool


def setup(workload, seed):
    """Import the library and build the pool, several times over: one
    import is too short to time steadily, so the median is reported."""
    clock = Clock()
    for _ in range(SETUP_REPEATS):
        mods, pool = clock.time(build_pool, workload, seed)
    return mods, pool, clock


POOLS = {"count-small": pool_count_small, "count-large": pool_count_large,
         "structure": pool_structure}
WORKLOADS = ("count-small", "count-large", "structure", "cli")
# A run stops only at the end of a pass over the pool, so it measures each
# item equally often and the cli failure ratio is exactly the pool's.  A
# count-large pass (80 large trees) is too long for that; its run stops at
# the end of a round of 20 instead, each round holding the same mix.
ROUNDS = {"count-large": 20}


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def executor(workload, mods):
    if workload == "cli":
        env = cli_env()
        return lambda item: run_cli_process(item.argv, env)
    return lambda item: run_library_item(mods, item)


def item_clock(workload):
    """CLI invocations are scaled by a bare interpreter start timed right
    after each one; in-process items by the pure-Python kernel."""
    if workload != "cli":
        return Clock()
    env = cli_env()

    def start_factor():
        t0 = time.perf_counter()
        run_python(["-c", "pass"], env)
        return START_MS / 1000.0 / (time.perf_counter() - t0)

    return Clock(start_factor)


def measure(workload, seed, seconds):
    mods, pool, setup_clock = setup(workload, seed)
    checker = Checker(workload, seed)
    execute = executor(workload, mods)
    clock = item_clock(workload)
    block = ROUNDS.get(workload, len(pool))
    run_items(pool, execute, checker, clock,
              lambda i, t: i % block or i < MIN_SAMPLES or t < seconds)
    ms = [s * 1000.0 for s in clock.scaled()]
    raw_ms = [s * 1000.0 for s in clock.raw()]
    metrics = {
        "items_per_s": (len(ms) / (sum(ms) / 1000.0), "1/s"),
        "item_ms_p50": (statistics.median(ms), "ms"),
        "item_ms_p90": (percentile(ms, 90), "ms"),
        "setup_s": (statistics.median(setup_clock.scaled()), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    human = {"fail_ratio": (checker.failed / checker.attempted, "ratio"),
             "samples": (len(ms), "count"),
             "raw.items_per_s": (len(ms) / sum(clock.raw()), "1/s"),
             "raw.item_ms_p50": (statistics.median(raw_ms), "ms"),
             "raw.item_ms_p90": (percentile(raw_ms, 90), "ms"),
             "raw.setup_s": (statistics.median(setup_clock.raw()), "s")}
    return checker, metrics, human


def measure_traced(workload, seed, seconds):
    mods, pool, _ = setup(workload, seed)
    checker = Checker(workload, seed)
    metrics = {}
    if workload == "cli":
        env = cli_env()
        clock = item_clock(workload)
        one_pass(pool, executor(workload, mods), checker, clock)
        for cmd in CLI_COMMANDS:
            metrics[f"cli.cmd.{cmd}.ms_p50"] = 1000.0 * statistics.median(
                s for it, _, s in clock.samples if it.command == cmd)
        starts = Clock()
        for _ in range(5):
            starts.time(run_python, ["-c", "pass"], env)
        imports = Clock()
        for _ in range(5):
            imports.time(run_python, ["-c", "import tropicorr.cli"], env)
        bare = statistics.median(starts.scaled()) * 1000.0
        metrics["cli.interp_start_ms"] = bare
        metrics["cli.import_ms"] = statistics.median(imports.scaled()) * 1000.0 - bare
        execute = lambda item: cli_in_process(mods, item.argv)  # noqa: E731
    else:
        execute = executor(workload, mods)
    # Alternate untraced and traced passes until --seconds have elapsed;
    # every count and self time comes from the first traced pass, and the
    # overhead ratio from all of them.
    plain, traced = Clock(), Clock()
    wall = 0.0
    first = None
    while first is None or wall < seconds:
        wall += one_pass(pool, execute, checker, plain)
        tracer = Tracer()
        tracer.install()
        try:
            wall += one_pass(pool, execute, checker, traced, tracer=tracer)
        finally:
            tracer.remove()
        first = first or tracer
    tracer = first
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_ratio"] = sum(traced.scaled()) / sum(plain.scaled())
    if workload == "count-large":
        for lo, hi in BUCKETS:
            metrics[f"scale.v{lo}-{hi}.item_ms_p50"] = 1000.0 * statistics.median(
                s for it, _, s in plain.samples if lo <= it.vertices <= hi)
            metrics[f"scale.v{lo}-{hi}.snf_max_bits"] = max(
                tracer.snf_bits.get(it.id, 0) for it in pool
                if lo <= it.vertices <= hi)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload}-{seed}.jsonl")
    return checker, metrics


def run_python(args, env):
    subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True)


def units_of():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(workload, seed, seconds, trace):
    if trace:
        checker, values = measure_traced(workload, seed, seconds)
        units = units_of()
        metrics = {name: (values.get(name, 0), unit)
                   for name, unit in units.items()}
        human = {}
    else:
        checker, metrics, human = measure(workload, seed, seconds)
    OUT.mkdir(exist_ok=True)
    dpath = OUT / f"digests-{workload}-{seed}.json"
    dpath.write_text(json.dumps({"seed": seed, "digests": checker.digests},
                                indent=0, sort_keys=True))
    for note in checker.notes:
        print("FAIL", note)
    for name, (value, unit) in {**metrics, **human}.items():
        print(f"{workload:12s} {name:40s} {value:14.6g} {unit}")
    print(f"{workload:12s} digests written to {dpath.relative_to(ROOT)}")
    return {
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in names}
    except Unavailable as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (res,) = results.values()
    else:
        res = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(res, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
