"""Per-layer spans recorded from outside the program, by wrapping functions.

Each public function of a layer module is replaced, under every module name
it is bound to (modules use `from .x import f`, and the CLI keeps renderers
in a dict), by one wrapper that counts calls and times a span.  A span's
self time is its duration minus that of its child spans; a layer's self time
is the sum over its functions.  A sample makes millions of calls, so spans
are added up per function in memory rather than kept one by one, and are
summarised when the sample ends.

The list below names the functions the per-layer metrics read.  A named
function that does not exist in its layer, because a refactor moved or
removed it, is reported as absent with zero calls.  Public functions that
are not named are wrapped too, so that their time is charged to their own
layer.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

PACKAGE = "scroll_ulrich"
LAYERS = {
    "chow": ("mul_div_div", "mul_div_c2", "triple", "numerical_invariants"),
    "cohomology": ("h_p1", "h_hirzebruch", "h_scroll", "chi", "chi_closed_form", "serre_dual"),
    "ulrich": (
        "is_ulrich_line", "ulrich_dual", "base_swap", "named_line_bundles", "expected_count",
        "z_window", "pinned_z", "classify_ulrich_line_bundles", "verify_scan_bounds", "slope",
        "is_special_rank2", "pullback_obstruction_report", "pullback_obstruction",
    ),
    "extensions": (
        "ext1_dim", "extension_chern", "twisted_chern", "chi_endomorphisms_rank2",
        "h2_endomorphisms_rank2", "build_extension_record", "enumerate_cases",
        "moduli_prediction", "instanton_admissible",
    ),
    "tower": (
        "epsilon", "in_tower_hypothesis", "tower_pair", "tower_chern", "iter_tower",
        "chi_tower_vs_line", "chi_endo_tower", "tower_h1_recursion", "moduli_dim_tower",
        "moduli_dim_gap",
    ),
    "verify": (
        "run_cell_checks", "run_cohomology_box_checks", "run_tower_checks",
        "run_instanton_checks", "verify_scan_bounds",
    ),
    "cli": (
        "main", "build_parser", "render_json", "parse_range", "parse_triple", "cmd_classify",
        "cmd_cohom", "cmd_ext_table", "cmd_tower_report", "cmd_verify",
    ),
}


def _pushforward_terms(x: int, y: int) -> int:
    """P^1 terms the pushforward sums for O(x, y, z), after Serre normalisation."""
    if x < -1:
        x, y = -2 - x, -2 - y
    if x < 0 or y == -1:
        return 0
    return (x + 1) * ((-2 - y if y < -1 else y) + 1)


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.absent: list[str] = []
        self.h_scroll_args: Counter[tuple[int, int, int, int, int]] = Counter()
        self.ulrich_hits = 0
        self.rank_sum = 0
        self.checks = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, object, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer, named in LAYERS.items():
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                self.absent += [f"{layer}.{n}" for n in named]
                continue
            own = {
                name
                for name, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_")
            }
            self.absent += [f"{layer}.{n}" for n in named if n not in own]
            for name in sorted(own):
                fn = vars(mod)[name]
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            self._restore.append((obj, k, v))
                            obj[k] = wrappers[v]
                elif inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((vars(mod), attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            namespace[key] = original
        self._restore.clear()

    def _wrap(self, key: str, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        hook = getattr(self, "_hook_" + key.replace(".", "_"), None)
        if hook is None and key.startswith("verify.run_"):
            hook = self._hook_verify_checks

        def wrapper(*args, **kwargs):
            calls[key] += 1
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                duration = perf_counter_ns() - start
                self_ns[key] += duration - stack.pop()
                if stack:
                    stack[-1] += duration

        return wrapper

    def _hook_cohomology_h_scroll(self, args, kwargs, result):
        params = args[0] if args else kwargs["params"]
        div = args[1] if len(args) > 1 else kwargs["div"]
        self.h_scroll_args[(params.a, params.b, div.x, div.y, div.z)] += 1

    def _hook_ulrich_is_ulrich_line(self, args, kwargs, result):
        self.ulrich_hits += bool(result)

    def _hook_tower_tower_chern(self, args, kwargs, result):
        self.rank_sum += result.rank

    def _hook_verify_checks(self, args, kwargs, result):
        self.checks += len(result)

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer figures of one traced sample; `ops` is its operation count."""
        layer_ns = Counter()
        for key, ns in self.self_ns.items():
            layer_ns[key.split(".")[0]] += ns
        calls = self.calls
        h_calls = calls["cohomology.h_scroll"]
        u_calls = calls["ulrich.is_ulrich_line"]
        classify_calls = calls["ulrich.classify_ulrich_line_bundles"]
        out = {f"{layer}.self_s": layer_ns[layer] / 1e9 for layer in LAYERS}
        out.update({
            "chow.mul_div_div.calls": calls["chow.mul_div_div"],
            "cohomology.h_scroll.calls": h_calls,
            "cohomology.h_scroll.pushforward_terms": sum(
                n * _pushforward_terms(x, y) for (_, _, x, y, _), n in self.h_scroll_args.items()
            ),
            "cohomology.h_scroll.distinct_ratio": len(self.h_scroll_args) / h_calls if h_calls else 0.0,
            "cohomology.chi.calls": calls["cohomology.chi"],
            "ulrich.is_ulrich_line.calls": u_calls,
            "ulrich.is_ulrich_line.hit_ratio": self.ulrich_hits / u_calls if u_calls else 0.0,
            "ulrich.is_ulrich_line.calls_per_classify": u_calls / classify_calls if classify_calls else 0.0,
            "extensions.enumerate_cases.calls": calls["extensions.enumerate_cases"],
            "extensions.enumerate_cases.calls_per_cell": calls["extensions.enumerate_cases"] / ops,
            "tower.tower_chern.calls": calls["tower.tower_chern"],
            "tower.tower_chern.rank_sum": self.rank_sum,
            "tower.chi_endo_tower.self_s": self.self_ns["tower.chi_endo_tower"] / 1e9,
            "verify.run_cell_checks.calls": calls["verify.run_cell_checks"],
            "verify.checks": self.checks,
            "cli.render_json.self_s": self.self_ns["cli.render_json"] / 1e9,
            "trace.absent_functions": len(self.absent),
        })
        return out
