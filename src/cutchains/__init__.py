"""Exact counting and classification of fuzzy matrices via their chains of level cuts.

The package's names are loaded on first use (PEP 562): `import cutchains`
imports none of its submodules, and reading a name imports only the submodule
that defines it, then keeps the value here.  So `cutchains.chain_count` loads
`counting` (and `matrices`, which every module imports), and
`cutchains.classify_corpus` loads `cuts`, but neither loads `enumeration`.  The
four submodules are themselves attributes of the package, loaded the same way.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the submodule that defines each public name of the package
_EXPORTS = {
    "counting": (
        "CountRow",
        "CountTable",
        "SizeVector",
        "binomial",
        "chain_count",
        "chain_count_ie",
        "chain_count_rooted",
        "chain_counts_by_k",
        "count_table",
        "flag_count",
        "sequence",
        "size_vectors",
        "term_count",
        "total_count",
    ),
    "cuts": (
        "ChainSignature",
        "Classification",
        "CutChain",
        "EquivalenceClass",
        "alpha_cut",
        "canonical_representative",
        "classify_corpus",
        "cut_chain",
        "equivalent_cuts",
        "equivalent_direct",
        "k_level",
        "reconstruct",
        "signature",
        "strong_alpha_cut",
    ),
    "enumeration": (
        "ChainRecord",
        "HasseDiagram",
        "chain_lines",
        "count_chains",
        "enumerate_chains",
        "enumerate_supports",
        "group_by_size_vector",
        "hasse_export",
        "support_label",
    ),
    "matrices": (
        "CrispMatrix",
        "FuzzyMatrix",
        "InfeasibleJobError",
        "bits_to_mask",
        "format_value",
        "mask_to_bits",
        "parse_value",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it here as well
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
