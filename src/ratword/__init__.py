"""Prime (Lyndon) factorization of transfinite rational words."""

from .automaton import (SingleWordAutomaton, compile_expr, first_visit_prefix,
                        numbered_word, read_word, suffix_word, to_dot, validate)
from .duplication import depth, size, tau
from .expr import (Alphabet, Concat, DEFAULT_ALPHABET, Letter, Omega, RatExpr,
                   as_finite_word, concat, expr_length, format_expr, letter_at,
                   parse_expr, power, prefix_to, suffix_from)
from .factorizer import (Factorization, FactorizerState, extract_factorization,
                         factorize, factorize_states, marked_expression)
from .oracles import (brute_force_factorize, duval_factorize, is_prime_finite,
                      is_prime_rational, longest_prime_prefix_finite,
                      prime_witness, primitive_root)
from .order import CompareOutcome, Rel, compare, compare_via_automata, word_equal
from .ordinal import (Ordinal, OrdinalError, OrdKind, div_left, format_ordinal,
                      parse_ordinal, sub_left)
from .structural import circular_fact, concat_pp, fact_omega, fact_product, factorize_structural

__all__ = [name for name in dir() if not name.startswith("_")]
