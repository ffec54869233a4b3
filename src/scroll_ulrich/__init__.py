"""Exact Ulrich-bundle invariants on threefold scrolls over Hirzebruch surfaces.

A layer module is imported when one of its public names is first used, so
that `import scroll_ulrich` loads no layer, and a CLI command loads only the
layers it runs.
"""

from importlib import import_module

_LAYERS = {
    "chow": (
        "Codim2Class",
        "DivisorClass",
        "ScrollParams",
        "mul_div_c2",
        "mul_div_div",
        "numerical_invariants",
        "triple",
        "whitney",
    ),
    "cohomology": (
        "CohomologyVector",
        "chi",
        "chi_closed_form",
        "chi_filtered",
        "h_scroll",
        "serre_dual",
    ),
    "extensions": (
        "InstantonTriple",
        "ModuliPrediction",
        "Rank2ExtensionRecord",
        "enumerate_cases",
        "instanton_admissible",
        "moduli_predictions",
    ),
    "tower": (
        "TowerBundle",
        "chi_endo_tower",
        "chi_tower_vs_line",
        "iter_tower",
        "moduli_dim_gap",
        "moduli_dim_tower",
        "tower_h1_recursion",
    ),
    "ulrich": (
        "UlrichLineBundleRecord",
        "base_swap",
        "classify_ulrich_line_bundles",
        "is_special_rank2",
        "is_ulrich_line",
        "named_line_bundles",
        "pullback_obstruction_report",
        "slope",
        "ulrich_dual",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    """Import the layer that defines `name` and bind the name here (PEP 562)."""
    try:
        layer = _LAYER_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value  # later reads are plain attribute access
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
