"""codecat: a calculus of morphisms between combinatorial neural codes.

Codes are sets of subsets of {1..n}; morphisms are the maps whose trunk
preimages are trunks.  The package covers trunk computations, reduction and
canonical forms, products and coproducts, exhaustive enumeration of reduced
images, local-obstruction topology checks, and the neural-ring side of the
story, plus a command line front end (`codecat`).

`import codecat` loads none of its modules.  Each public name is looked up
in `_NAMES` on first access, which imports the module defining it (and the
modules that one imports) and keeps the object here, so later lookups are
plain attribute reads; a module name such as `codecat.topology` loads that
module.  A query pays only for the modules it uses: `codecat iso` never
loads the enumeration or topology code, and `codecat local-obs` never loads
the labelling search.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it, in the order of __all__.
_NAMES = {
    **dict.fromkeys(("Code", "MAX_NEURONS", "parse_code", "format_code", "contains",
                     "code_to_obj"), "codes"),
    **dict.fromkeys(("Trunk", "trunk_of", "simple_trunks", "all_trunks", "is_trunk",
                     "irreducible_trunks"), "trunks"),
    **dict.fromkeys(("Morphism", "ExplicitMap", "is_morphism", "decompose", "compose",
                     "restriction_morphism", "permutation_morphism", "union_morphism",
                     "morphism_to_obj", "morphism_from_obj",
                     "explicit_map_to_obj", "explicit_map_from_obj"), "morphisms"),
    **dict.fromkeys(("ReductionResult", "CanonicalForm", "trivial_neurons",
                     "redundant_neurons", "is_reduced", "reduce_code",
                     "minimum_neuron_number", "canonical_form", "is_isomorphic"),
                    "reduction"),
    **dict.fromkeys(("product", "coproduct", "is_intersection_complete",
                     "all_trunks_have_unique_minimum", "is_max_intersection_complete"),
                    "constructions"),
    **dict.fromkeys(("ImageSet", "EnumerationStats", "enumerate_reduced_images",
                     "image_set_difference", "verify_image_membership", "cached_enumerate",
                     "default_cache_dir", "image_set_to_obj", "image_set_from_obj"),
                    "enumeration"),
    **dict.fromkeys(("SimplicialComplex", "ObstructionReport", "ObstructionEntry",
                     "simplicial_complex", "link", "is_collapsible", "f2_reduced_homology",
                     "local_obstruction_report"), "topology"),
    **dict.fromkeys(("RingElement", "MonomialMap", "coordinate", "indicator",
                     "evaluate_monomial", "morphism_to_monomial_map",
                     "monomial_map_to_morphism", "compose_monomial_maps"), "neural_ring"),
    "ResourceCapError": "exceptions",
}
_MODULES = frozenset(_NAMES.values())

__all__ = list(_NAMES)


def __getattr__(name: str):
    """Load a public name, or one of the modules that define them, on first
    access; importing a submodule binds it here by itself."""
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    module = _NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
