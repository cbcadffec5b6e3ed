"""Standard-language normal forms and automata for Coxeter groups."""

from .automaton import (BuildReport, EquivalenceReport, ResidueFsa, Transition,
                        accepts, build, equivalence_scan, from_json, to_dot,
                        to_json)
from .core import (INF, CoxeterMatrix, CoxeterSystem, Element, Word,
                   parse_system)
from .errors import (CoxeterError, FieldMismatchError, InfiniteParabolicError,
                     InvariantViolation, ParseError, PreconditionError,
                     ResourceLimitError, SystemMismatchError)
from .experiments import (DivergenceRow, DivergenceTable, FtReport,
                          PropMainReport, divergence_scan, ft_pair_divergence,
                          ft_scan, k_constant, prop_main_scan)
from .language import (Chunk, canonical_word, check_append_lemma,
                       check_prop_main, chunk_decomposition, descent_data,
                       is_in_standard_language, language_words)
from .walls import (FAR, NEAR, Wall, conjugate_wall, inversion_walls,
                    residue_walls, separates_vertex_from_wall, side,
                    wall_from_root, wall_of_generator, wall_set, walls_cross)

__version__ = "0.1.0"

__all__ = [
    "BuildReport", "Chunk", "CoxeterError", "CoxeterMatrix", "CoxeterSystem",
    "DivergenceRow", "DivergenceTable", "Element", "EquivalenceReport",
    "FAR", "FieldMismatchError", "FtReport", "INF", "InfiniteParabolicError",
    "InvariantViolation", "NEAR", "ParseError", "PreconditionError",
    "PropMainReport", "ResidueFsa", "ResourceLimitError", "SystemMismatchError",
    "Transition", "Wall", "Word", "accepts", "build",
    "canonical_word", "check_append_lemma", "check_prop_main",
    "chunk_decomposition", "conjugate_wall", "descent_data",
    "divergence_scan", "equivalence_scan", "from_json", "ft_pair_divergence",
    "ft_scan", "inversion_walls", "is_in_standard_language", "k_constant",
    "language_words", "parse_system", "prop_main_scan", "residue_walls",
    "separates_vertex_from_wall", "side", "to_dot", "to_json",
    "wall_from_root", "wall_of_generator", "wall_set", "walls_cross",
]
