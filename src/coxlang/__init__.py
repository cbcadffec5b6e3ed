"""Standard-language normal forms and automata for Coxeter groups.

The public names are resolved on first use (PEP 562 module `__getattr__`),
so importing the package loads no submodule, and a program loads only the
modules whose names it reads.  `__all__` lists every name, so
`from coxlang import *` loads them all.
"""

__version__ = "0.1.0"

_NAMES = {
    "automaton": ("BuildReport", "EquivalenceReport", "ResidueFsa",
                  "Transition", "accepts", "build", "equivalence_scan",
                  "from_json", "to_dot", "to_json"),
    "core": ("INF", "CoxeterMatrix", "CoxeterSystem", "Element", "Word",
             "k_constant", "parse_system"),
    "errors": ("CoxeterError", "FieldMismatchError", "InfiniteParabolicError",
               "InvariantViolation", "ParseError", "PreconditionError",
               "ResourceLimitError", "SystemMismatchError"),
    "experiments": ("DivergenceRow", "DivergenceTable", "FtReport",
                    "PropMainReport", "divergence_scan", "ft_pair_divergence",
                    "ft_scan", "prop_main_scan"),
    "language": ("Chunk", "canonical_word", "check_append_lemma",
                 "check_prop_main", "chunk_decomposition", "descent_data",
                 "is_in_standard_language", "language_words",
                 "reduced_words"),
    "walls": ("Wall", "conjugate_wall", "inversion_walls", "residue_walls",
              "separates_vertex_from_wall", "wall_from_root",
              "wall_of_generator", "wall_set", "walls_cross"),
}

_MODULE_OF = {name: module for module, names in _NAMES.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
