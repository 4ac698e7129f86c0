"""Product-one sequences over finite groups: atoms, Davenport constants,
class semigroups, and factorization invariants.

The names of `__all__` are loaded from their home modules on first access
(PEP 562), so importing one submodule, such as `prodone.cli`, does not load
the others.
"""

import importlib

_HOMES = {
    "factor": ("AtomSet", "DavenportReport", "LengthSet", "davenport",
               "divides_in_B", "enumerate_atoms", "factorization_lengths",
               "is_atom"),
    "groups": ("Group", "GroupStructure", "Subgroup", "analyze", "parse_group",
               "subgroup_generated"),
    "sequences": ("PiEngine", "ProductSet", "Sequence", "is_product_one",
                  "is_product_one_free", "product_set", "subsequence_products"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "AtomSet",
    "DavenportReport",
    "Group",
    "GroupStructure",
    "LengthSet",
    "PiEngine",
    "ProductSet",
    "Sequence",
    "Subgroup",
    "analyze",
    "davenport",
    "divides_in_B",
    "enumerate_atoms",
    "factorization_lengths",
    "is_atom",
    "is_product_one",
    "is_product_one_free",
    "parse_group",
    "product_set",
    "subgroup_generated",
    "subsequence_products",
    "__version__",
]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
