"""End-to-end and per-layer benchmark for convexprofile.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload polytope --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

A workload run imports the library from `src/` and sets up its seeded
inputs, a fixed pool of operations, five times after one untimed import.
It then cycles through the pool on one thread until `--seconds` would be
passed. Every call's answer is checked against an independent exact
cross-check; a raise, a nonzero exit, a rejected verdict or a repeat whose
verdict differs from the first run's counts as a failed operation.

Every timed call, set-ups included, is rescaled by the host's speed around
it (see `HostSpeed`): the times are reference seconds, in which a fixed
`Fraction` loop takes 1 ms. The details line beside the result also gives
the raw figures.

With `--trace 1` the run instead does the pool's first operations twice:
plainly, then with every public layer function wrapped by `tracer.Tracer`.
It reports per-layer self time, work counts and the tracing overhead. Both
passes must produce the same `verdict_digest`, the sha256 of the canonical
verdicts of those operations, which the plain end-to-end run also prints.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs each
workload in a fresh process, one after another, and prints a table.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from tracer import LAYERS, PACKAGE, Tracer  # noqa: E402

SETUP_REPEATS = 5
# The reference loop sums 1/i for i < REFERENCE_TERMS; on an idle host of the
# reference machine it takes about REFERENCE_S. After every timed call it runs
# for about REFERENCE_SHARE of that call's time, but at most REFERENCE_MAX_S.
REFERENCE_TERMS = 400
REFERENCE_S = 1e-3
REFERENCE_SHARE = 0.15
REFERENCE_MAX_S = 0.1
DENSITIES = (8, 32)
THEOREM_ARGS = ("--instances", "8", "--samples", "12", "--probe-density", "8")
# Fewer than this many operations beyond a percentile is not a tail.
TAIL_BEYOND = 10


# -- library import -----------------------------------------------------------

def import_library():
    """Import a fresh copy of convexprofile from this checkout's `src/`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".", 1)[0] == PACKAGE]:
        del sys.modules[name]
    cp = importlib.import_module(PACKAGE)
    for layer in LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer}")
    if Path(cp.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"convexprofile was imported from {cp.__file__}, not {SRC}")
    return cp


# -- workloads ------------------------------------------------------------------
#
# A workload's setup(cp, seed, workdir) builds its seeded inputs and returns
# its pool: a list of operations, each a tuple of calls. A call takes no
# arguments and returns (verdict, ok). The end-to-end run cycles through the
# pool until its time is up; the traced run and the `verdict_digest` cover
# the pool's first operations, a fixed number per workload.

def _coords(points):
    return [[str(c) for c in p.coords] for p in points]


def _stratified(draw, stratum, quotas, blocks):
    """A pool of `blocks` blocks, each holding quotas[s] items of stratum s.

    draw(s) draws an item while stratum s is being filled; stratum(item) is
    where it falls. Each stratum keeps its items in draw order, so the pool
    follows the generator's own distribution within a stratum, and the seed
    cannot change the mix of strata. Draws in no stratum are dropped.
    """
    drawn = {s: [] for s in quotas}
    pool = []
    for _ in range(blocks):
        for s, k in quotas.items():
            while len(drawn[s]) < k:
                item = draw(s)
                drawn.get(stratum(item), []).append(item)
            pool.extend(drawn[s][:k])
            del drawn[s][:k]
    return pool


# random_bounded_polytope adds 0 to 4 cuts to a box, uniformly, and the cost
# of an operation grows steeply with the cut count in E^3. Each block holds
# every (cuts, dimension) stratum in the acceptance mix E^2, E^2, E^3.
POLYTOPE_QUOTAS = {(cuts, dim): 2 if dim == 2 else 1
                   for cuts in range(5) for dim in (2, 3)}
POLYTOPE_BLOCKS = 6
# random_simple_polygon mixes convex hulls, notched convex polygons and
# orthogonal skylines, and an operation's cost grows with the vertex count of
# the first two. Each block of 40 polygons holds about the generator's own
# mix of (shape, vertex count) strata; 7 stands for 7 or more vertices.
VISIBILITY_QUOTAS = {
    ("convex", 3): 3, ("convex", 4): 6, ("convex", 5): 6, ("convex", 6): 4,
    ("convex", 7): 1, ("notched", 4): 2, ("notched", 5): 3, ("notched", 6): 3,
    ("notched", 7): 2, ("skyline", None): 10,
}
VISIBILITY_BLOCKS = 5
VISIBILITY_MEMBERS = 8
NGON_OPS = 2
CHECK_PASSES = 16


def setup_polytope(cp, seed, workdir):
    gen = cp.generators
    rng = gen.rng_from_seed(f"{seed}:polytope")

    def draw(stratum):
        dim = stratum[1]
        return gen.random_bounded_polytope(rng, dim), gen.random_direction(rng, dim)

    def stratum(item):
        P = item[0]
        return len(P.halfspaces) - 2 * P.dim, P.dim

    pool = _stratified(draw, stratum, POLYTOPE_QUOTAS, POLYTOPE_BLOCKS)
    return [(functools.partial(op_polytope, cp, P, w),) for P, w in pool]


def op_polytope(cp, P, w):
    """Acceptance criteria 4 and 5 on one bounded polytope."""
    ph = cp.polyhedra
    verts = ph.extreme_points(P)
    V = ph.VPolytope(verts, P.dim)
    ok = bool(verts) and ph.hull_equal(P, V)
    kept = ph.profile(V)
    for v in kept:
        rest = tuple(u for u in kept if u != v)
        if rest and ph.hull_contains(ph.VPolytope(rest, P.dim), v):
            ok = False
    face = ph.face_in_direction(P, w)
    face_verts = ph.extreme_points(face) if face is not None else ()
    ok = ok and face is not None and set(face_verts) <= set(verts)
    return [_coords(verts), _coords(kept), _coords(face_verts)], ok


def setup_visibility(cp, seed, workdir):
    gen = cp.generators
    rng = gen.rng_from_seed(f"{seed}:visibility")

    def stratum(poly):
        if cp.regions2d.convexity_oracle(poly):
            return "convex", min(poly.n, 7)
        vs = list(poly.vertices)
        if all(a.coords[0] == b.coords[0] or a.coords[1] == b.coords[1]
               for a, b in zip(vs, vs[1:] + vs[:1])):
            return "skyline", None
        return "notched", min(poly.n, 7)

    pool = _stratified(lambda _: gen.random_simple_polygon(rng, max_vertices=10),
                       stratum, VISIBILITY_QUOTAS, VISIBILITY_BLOCKS)
    return [
        (functools.partial(op_visibility, cp, poly,
                           gen.sample_member_points(poly, rng, VISIBILITY_MEMBERS)),)
        for poly in pool
    ]


def op_visibility(cp, poly, members):
    """Acceptance criteria 2 and 1 on one simple polygon."""
    r2 = cp.regions2d
    ker = r2.kernel(poly)
    ok = True
    in_kernel = []
    for x in members:
        member = all(h.contains(x) for h in ker.halfspaces)
        in_kernel.append(member)
        for m in DENSITIES:
            if r2.kernel_contains_by_visibility(poly, x, m) != member:
                ok = False
    convex, _ = r2.is_convex_by_pairs(r2.PolygonRegion(poly))
    ok = ok and convex == r2.convexity_oracle(poly)
    return [in_kernel, convex], ok


def setup_ngon(cp, seed, workdir):
    gen = cp.generators
    rng = gen.rng_from_seed(f"{seed}:ngon")
    Q = cp.core.Q
    ops = []
    for i in range(NGON_OPS):
        # Odd numerators keep every denominator exactly 8 and 16, so the
        # polygons differ in position and size but not in bit length. The
        # origin stays inside every polygon (|center| < 1.5 < radius); the
        # kernel LPs' pivot paths, and so their cost, change when it does not.
        center = cp.core.Point(
            (Q(2 * rng.randint(-4, 3) + 1, 8), Q(2 * rng.randint(-4, 3) + 1, 8)))
        radius = Q(2 * rng.randint(16, 31) + 1, 16)
        # 47 ladder points plus the antipode: a convex 48-gon, counter-clockwise.
        poly = cp.regions2d.SimplePolygon(cp.regions2d.circle_points(center, radius, 47))
        if poly.n != 48:
            raise ValueError(f"expected a 48-gon, built {poly.n} vertices")
        path = workdir / f"ngon-{i}.json"
        path.write_text(json.dumps(cp.geometry_io.dump_geometry(poly)), encoding="utf-8")
        vertices = {tuple(Fraction(c) for c in v.coords) for v in poly.vertices}
        ops.append((
            functools.partial(call_convexity, cp, path, workdir),
            functools.partial(call_kernel, cp, path, workdir, vertices),
        ))
    return ops


def _cli(cp, argv, workdir):
    out = workdir / "report.json"
    code = cp.cli.run([*argv, "--out", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8")) if code == 0 else None
    return code, doc


def call_convexity(cp, path, workdir):
    """CLI `convexity` on a convex polygon file: both verdicts must be true."""
    code, doc = _cli(cp, ["convexity", str(path)], workdir)
    if code != 0:
        return ["convexity exit", code], False
    report = doc["results"][0]
    ok = report["convex_by_pairs"] is True and report["vertex_turn_oracle"] is True
    return report, ok


def call_kernel(cp, path, workdir, vertices):
    """CLI `kernel` on a convex polygon file, which is its own kernel."""
    code, doc = _cli(cp, ["kernel", str(path)], workdir)
    if code != 0:
        return ["kernel exit", code], False
    report = doc["results"][0]
    got = {tuple(Fraction(c) for c in p) for p in report.get("kernel_vertices", ())}
    return report, got == vertices


def setup_check_all(cp, seed, workdir):
    ids = cp.theorems.THEOREM_IDS
    rng = cp.generators.rng_from_seed(f"{seed}:check-all")
    # The first pass checks with the workload seed itself, the others with
    # seeds drawn from it; a run uses as many passes as fit in its time.
    seeds = [seed] + [rng.randrange(2**32) for _ in range(CHECK_PASSES - 1)]
    return [
        tuple(functools.partial(op_check, cp, tid, s, workdir) for tid in ids)
        for s in seeds
    ]


def op_check(cp, tid, seed, workdir):
    code, doc = _cli(cp, ["check", tid, *THEOREM_ARGS, "--seed", str(seed)], workdir)
    if code != 0:
        return ["exit", code], False
    counterexample = any(
        r["hypothesis"] == "satisfied" and r["conclusion"] == "fails"
        for r in doc["results"]
    )
    return doc, bool(doc["results"]) and not counterexample


WORKLOADS = {
    # name: (setup, operations the digest and the traced run cover,
    #        least operations of an end-to-end run)
    "polytope": (setup_polytope, 90, 90),
    "visibility": (setup_visibility, 200, 200),
    "ngon": (setup_ngon, 2, 4),
    # One pass of all eight theorems takes about 4 s and its cost varies
    # twofold with its seed, so a run does as many seeded passes as fit.
    "check-all": (setup_check_all, 2, 3),
}


# -- measurement ------------------------------------------------------------------

def reference_loop():
    """Fixed pure-Python `Fraction` work that no change to the library touches."""
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i)
    return total


class HostSpeed:
    """Rescales measured times by the host's speed around them.

    Other load on a shared host slows every process on it, by up to half, in
    spells of a fraction of a second to many seconds. The library's exact
    arithmetic is pure-Python `Fraction` work like `reference_loop`, and
    slows in step with it. So the loop is timed just before and just after
    every timed call, and the call's time t is rescaled to t * REFERENCE_S /
    (the loop's mean time around the call): to reference seconds, in which
    the loop takes exactly REFERENCE_S, about its time on an idle host.
    """

    def __init__(self):
        self.loops = 0
        self.loop_s = 0.0
        self.last = self._sample(0.0)

    def _sample(self, after_s):
        """Mean loop time over one loop or more, for about REFERENCE_SHARE * after_s."""
        start = perf_counter()
        stop = start + min(REFERENCE_SHARE * after_s, REFERENCE_MAX_S)
        loops = 0
        while True:
            reference_loop()
            loops += 1
            now = perf_counter()
            if now >= stop:
                break
        self.loops += loops
        self.loop_s += now - start
        return (now - start) / loops

    def rescale(self, raw_s):
        """`raw_s`, measured just now, in reference seconds."""
        before = self.last
        self.last = self._sample(raw_s)
        return raw_s * 2 * REFERENCE_S / (before + self.last)

    def mean_loop_s(self):
        return self.loop_s / self.loops


def run_ops(ops, count, speed=None, seconds=None):
    """Run the pool's operations in pool order, cycling, timing every call.

    Runs `count` operations; with `seconds`, then more until the next one,
    taking as long as the mean so far, would end after `seconds`. With
    `speed`, every call's time is rescaled by `speed.rescale`.

    Returns (each executed operation's times, verdicts of each operation's
    first run, failed operation runs, operation runs, raw time of all calls,
    elapsed). An operation run fails if a call raises or rejects its verdict,
    or if a repeat's verdict differs from the first run's.
    """
    times = [[] for _ in ops]
    verdicts = []
    failed = 0
    runs = 0
    raw_s = 0.0
    start = perf_counter()
    while True:
        i = runs % len(ops)
        op_verdict = []
        op_ok = True
        op_s = 0.0
        for call in ops[i]:
            t0 = perf_counter()
            try:
                verdict, ok = call()
            except Exception as exc:  # a call that raises has failed
                traceback.print_exc(file=sys.stderr)
                verdict, ok = ["raised", type(exc).__name__], False
            call_s = perf_counter() - t0
            raw_s += call_s
            op_s += speed.rescale(call_s) if speed else call_s
            op_verdict.append(verdict)
            op_ok = op_ok and ok
        times[i].append(op_s)
        if runs < len(ops):
            verdicts.append(op_verdict)
        elif op_verdict != verdicts[i]:
            op_ok = False
        failed += not op_ok
        runs += 1
        now = perf_counter()
        if runs >= count and (
                seconds is None or now + (now - start) / runs > start + seconds):
            break
    return [t for t in times if t], verdicts, failed, runs, raw_s, now - start


def digest(verdicts):
    text = json.dumps(verdicts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tail(latencies):
    """(value, percentile level) of the highest percentile with ten ops beyond it.

    Never below the median: with fewer than 2 * TAIL_BEYOND operations no
    tail can be resolved and the median is reported with level 50.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def stamp(cp):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "q_backend": cp.core.Q.__module__,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_setups(setup, seed, workdir):
    """Import once untimed, then set up SETUP_REPEATS timed times.

    The first import may compile the sources, which is not set-up cost.
    Returns (library, pool, set-up times in reference seconds, raw times).
    """
    import_library()
    speed = HostSpeed()
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cp = import_library()
        ops = setup(cp, seed, workdir)
        raw.append(perf_counter() - t0)
        times.append(speed.rescale(raw[-1]))
    gc.collect()  # the discarded imports and inputs, before anything is timed
    return cp, ops, times, raw


def run_workload(name, seed, seconds, trace, workdir):
    setup, digest_ops, min_ops = WORKLOADS[name]
    cp, ops, setup_times, raw_setup_times = timed_setups(setup, seed, workdir)
    detail = {"workload": name, "seed": seed, "stamp": stamp(cp)}

    if not trace:
        speed = HostSpeed()
        times, verdicts, failed, attempted, raw_s, elapsed = run_ops(
            ops, min_ops, speed, seconds)
        latencies = [statistics.fmean(op_times) for op_times in times]
        tail_s, tail_level = tail(latencies)
        detail.update(
            verdict_digest=digest(verdicts[:digest_ops]),
            error_rate=failed / attempted,
            ops=attempted,
            distinct_ops=len(latencies),
            tail_percentile=tail_level,
            measured_s=elapsed,
            reference_loop_ms=1e3 * speed.mean_loop_s(),
            raw_ops_per_s=attempted / raw_s,
            raw_setup_s=statistics.median(raw_setup_times),
        )
        metrics = {
            "ops_per_s": metric(attempted / sum(map(sum, times)), "1/s"),
            "op_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": metric(1e3 * tail_s, "ms"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": metric(statistics.median(setup_times), "s"),
        }
        return detail, attempted, failed, failed == 0, metrics

    _, plain_verdicts, plain_failed, _, _, plain_s = run_ops(ops, digest_ops)
    tracer = Tracer()
    tracer.install()
    ops = setup(cp, seed, workdir)
    _, traced_verdicts, traced_failed, _, _, traced_s = run_ops(ops, digest_ops)
    plain_digest, traced_digest = digest(plain_verdicts), digest(traced_verdicts)
    layer_self = {layer: tracer.layer_self_s(layer) for layer in LAYERS}
    total_self = sum(layer_self.values()) or 1.0
    detail.update(
        verdict_digest=traced_digest,
        plain_verdict_digest=plain_digest,
        ops=digest_ops,
        plain_s=plain_s,
        traced_s=traced_s,
        layer_share={k: round(v / total_self, 4) for k, v in layer_self.items()},
    )
    metrics = {k: metric(v, unit) for k, (v, unit) in tracer.metrics().items()}
    metrics["trace.overhead_s"] = metric(traced_s - plain_s, "s")
    failed = plain_failed + traced_failed
    correct = failed == 0 and plain_digest == traced_digest
    return detail, 2 * digest_ops, failed, correct, metrics


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    env = {k: v for k, v in os.environ.items() if k != "CONVEX_PROFILE_SEED"}
    results = {}
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        results[name] = result
        ok = ok and result["correct"]
        for key, m in result["metrics"].items():
            print(f"{name:<11} {key:<46} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no convexprofile sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # cli._resolve_seed lets this variable silently override --seed.
    os.environ.pop("CONVEX_PROFILE_SEED", None)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        detail, attempted, failed, correct, metrics = run_workload(
            args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run's workdir is still there
            pass
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
