"""Outside-in tracer for the convexprofile layers.

The library is never edited: every public function of each layer module is
replaced by a timing wrapper, in its home module and in every
`convexprofile` module that imported it with `from .x import f`. Patching
only the home module would miss most calls, because those importers hold
their own reference to the original function.

Self time is kept by stack: a span's self time is its duration minus the
durations of the traced spans it called. Work counts are derived from the
arguments and results seen at the wrapped boundaries.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
from time import perf_counter

PACKAGE = "convexprofile"

LAYERS = (
    "linprog",
    "polyhedra",
    "core",
    "intgeom",
    "regions2d",
    "epigraph",
    "theorems",
    "generators",
    "geometry_io",
    "cli",
)

# Called millions of times per workload from inside the intgeom scans; a
# timing span here would cost more than the predicate, so it is counted only
# and its time stays with the caller.
COUNT_ONLY = {"intgeom.orient"}

LP_ENTRY_POINTS = (
    "linprog.solve_lp",
    "linprog.is_feasible",
    "linprog.solve_nonneg_feasibility",
)


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Wraps the layer functions of an imported `convexprofile` package."""

    def __init__(self):
        self.stats = {}  # "layer.function" -> _Stat
        self.counts = {}  # work counts derived at the boundaries
        self.lp_durations = []
        self._children = []  # per open span: traced child time so far
        self._names = []  # per open span: its "layer.function" name
        self._originals = {}  # id(original) -> original
        self._hooks = {
            "polyhedra.extreme_points": self._on_extreme_points,
            "polyhedra.hull_contains": self._on_hull_contains,
            "linprog.solve_lp": self._on_lp_constraints,
            "linprog.is_feasible": self._on_lp_constraints,
            "linprog.solve_nonneg_feasibility": self._on_lp_rows,
            "intgeom.sight_blocked": self._on_sight_blocked,
            "regions2d.partition_segment": self._on_partition_segment,
            "theorems.run_suite": self._on_run_suite,
        }

    # -- installation -----------------------------------------------------

    def _modules(self):
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and name.split(".", 1)[0] == PACKAGE
        ]

    def install(self):
        """Wrap every public layer function and rebind it at every import site."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for fname, fn in sorted(vars(module).items()):
                if (
                    fname.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                if inspect.isgeneratorfunction(fn):
                    raise TypeError(f"cannot time generator {layer}.{fname}")
                key = f"{layer}.{fname}"
                self._originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap(key, fn)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and self._originals[id(value)] is value:
                    setattr(module, attr, wrapper)
        self.check_installed()

    def check_installed(self):
        """Raise if an original layer function is still reachable from the package.

        Walks every `convexprofile` module namespace, the containers held
        there, the classes defined there and the default arguments of every
        function found on the way.
        """
        seen = set()
        leaks = []

        def visit(obj, where, depth):
            if id(obj) in seen or depth > 4:
                return
            seen.add(id(obj))
            if id(obj) in self._originals and self._originals[id(obj)] is obj:
                leaks.append(where)
                return
            if isinstance(obj, (tuple, list, set, frozenset)):
                for i, item in enumerate(obj):
                    visit(item, f"{where}[{i}]", depth + 1)
            elif isinstance(obj, dict):
                for k, v in obj.items():
                    visit(v, f"{where}[{k!r}]", depth + 1)
            elif isinstance(obj, (staticmethod, classmethod)):
                visit(obj.__func__, where, depth + 1)
            elif inspect.isfunction(obj):
                visit(obj.__defaults__ or (), f"{where}.__defaults__", depth + 1)
                visit(obj.__kwdefaults__ or {}, f"{where}.__kwdefaults__", depth + 1)
            elif inspect.isclass(obj) and obj.__module__.split(".", 1)[0] == PACKAGE:
                for k, v in vars(obj).items():
                    visit(v, f"{where}.{k}", depth + 1)

        for original in self._originals.values():
            visit(original.__defaults__ or (), f"{original.__qualname__}.__defaults__", 1)
        for module in self._modules():
            for attr, value in vars(module).items():
                visit(value, f"{module.__name__}.{attr}", 0)
        if leaks:
            raise RuntimeError("original functions still reachable: " + ", ".join(leaks))

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, _Stat())
        if key in COUNT_ONLY:
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        children = self._children
        names = self._names
        hook = self._hooks.get(key)
        lp = self.lp_durations if key in LP_ENTRY_POINTS else None

        def traced(*args, **kwargs):
            if hook is not None:
                hook_args = (args, kwargs)
            children.append(0.0)
            names.append(key)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                names.pop()
                stat.self_s += duration - children.pop()
                stat.calls += 1
                if children:
                    children[-1] += duration
                if lp is not None:
                    lp.append(duration)
            if hook is not None:
                hook(*hook_args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- work counts from the boundaries ----------------------------------

    def _add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _on_extreme_points(self, args, kwargs, result):
        P = args[0]
        self._add("polyhedra.extreme_points.subsets", math.comb(len(P.halfspaces), P.dim))
        self._add("polyhedra.extreme_points.vertices", len(result))

    def _on_hull_contains(self, args, kwargs, result):
        V, x = args
        if any(g.coords == x.coords for g in V.generators):
            self._add("polyhedra.hull_contains.generator_hits")

    def _on_lp_constraints(self, args, kwargs, result):
        # len() rather than tuple(): a one-shot iterator argument, already
        # consumed by the call, must fail loudly instead of counting 0 rows.
        if args and hasattr(args[0], "constraints"):  # solve_lp(LinearProgram)
            constraints = args[0].constraints
            infeasible = result.status.name == "INFEASIBLE"
        else:  # is_feasible(constraints, dim=None) -> (bool, witness)
            constraints = args[0] if args else kwargs["constraints"]
            infeasible = not result[0]
        self._add("linprog.rows", len(constraints))
        self._add(
            "linprog.eq_constraints",
            sum(c.relation.name == "EQ" for c in constraints),
        )
        self._add("linprog.infeasible", int(infeasible))

    def _on_lp_rows(self, args, kwargs, result):
        rows, rhs = args
        self._add("linprog.rows", len(rows))
        # Callers encode an equality a.x = b as the adjacent pair
        # a.x <= b, -a.x <= -b; count each such pair as one EQ constraint.
        eq = 0
        i = 0
        while i + 1 < len(rows):
            if rhs[i + 1] == -rhs[i] and all(
                u == -v for u, v in zip(rows[i], rows[i + 1])
            ):
                eq += 1
                i += 2
            else:
                i += 1
        self._add("linprog.eq_constraints", eq)
        self._add("linprog.infeasible", int(result is None))

    def _on_sight_blocked(self, args, kwargs, result):
        if result is None:
            self._add("intgeom.sight_blocked.degenerate")

    def _on_partition_segment(self, args, kwargs, result):
        if "regions2d.classify_pair" in self._names:
            self._add("regions2d.partition_segment.under_classify_pair")

    def _on_run_suite(self, args, kwargs, result):
        self._add("theorems.reports", len(result))

    # -- report -----------------------------------------------------------

    def layer_self_s(self, layer):
        return sum(
            s.self_s for key, s in self.stats.items()
            if key.split(".", 1)[0] == layer
        )

    def metrics(self):
        """The per-layer metrics as {name: (value, unit)}."""

        def calls(key):
            return self.stats[key].calls

        def count(name):
            return self.counts.get(name, 0)

        classify = calls("regions2d.classify_pair")
        fallbacks = count("regions2d.partition_segment.under_classify_pair")
        out = {
            "linprog.calls": (sum(calls(k) for k in LP_ENTRY_POINTS), "count"),
            "linprog.self_s": (self.layer_self_s("linprog"), "s"),
            "linprog.call_p50_us": (
                1e6 * statistics.median(self.lp_durations) if self.lp_durations else 0.0,
                "us",
            ),
            "linprog.rows": (count("linprog.rows"), "count"),
            "linprog.eq_constraints": (count("linprog.eq_constraints"), "count"),
            "linprog.infeasible": (count("linprog.infeasible"), "count"),
            "polyhedra.self_s": (self.layer_self_s("polyhedra"), "s"),
            "polyhedra.extreme_points.calls": (calls("polyhedra.extreme_points"), "count"),
            "polyhedra.extreme_points.self_s": (
                self.stats["polyhedra.extreme_points"].self_s, "s"),
            "polyhedra.extreme_points.subsets": (
                count("polyhedra.extreme_points.subsets"), "count"),
            "polyhedra.extreme_points.vertices": (
                count("polyhedra.extreme_points.vertices"), "count"),
            "polyhedra.hull_contains.calls": (calls("polyhedra.hull_contains"), "count"),
            "polyhedra.hull_contains.generator_hits": (
                count("polyhedra.hull_contains.generator_hits"), "count"),
            "core.self_s": (self.layer_self_s("core"), "s"),
            "core.solve_linear.calls": (calls("core.solve_linear"), "count"),
            "intgeom.self_s": (self.layer_self_s("intgeom"), "s"),
            "intgeom.sight_blocked.calls": (calls("intgeom.sight_blocked"), "count"),
            "intgeom.sight_blocked.degenerate": (
                count("intgeom.sight_blocked.degenerate"), "count"),
            "intgeom.point_in_polygon.calls": (calls("intgeom.point_in_polygon"), "count"),
            "intgeom.segment_in_polygon.calls": (
                calls("intgeom.segment_in_polygon"), "count"),
            "intgeom.orient.calls": (calls("intgeom.orient"), "count"),
            "regions2d.self_s": (self.layer_self_s("regions2d"), "s"),
            "regions2d.classify_pair.calls": (classify, "count"),
            "regions2d.partition_segment.calls": (
                calls("regions2d.partition_segment"), "count"),
            # Share of pair classifications the integer fast path settled
            # without the rational partition; 0 when no pair was classified.
            "regions2d.fast_path_ratio": (
                (classify - fallbacks) / classify if classify else 0.0, "ratio"),
            "regions2d.kernel_contains_by_visibility.calls": (
                calls("regions2d.kernel_contains_by_visibility"), "count"),
            "regions2d.sees.calls": (calls("regions2d.sees"), "count"),
            "epigraph.self_s": (self.layer_self_s("epigraph"), "s"),
            "epigraph.chord_find.calls": (calls("epigraph.chord_find"), "count"),
            "theorems.self_s": (self.layer_self_s("theorems"), "s"),
            "theorems.reports": (count("theorems.reports"), "count"),
            "generators.self_s": (self.layer_self_s("generators"), "s"),
            "geometry_io.self_s": (self.layer_self_s("geometry_io"), "s"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
        }
        return out
