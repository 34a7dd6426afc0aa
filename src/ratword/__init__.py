"""Prime (Lyndon) factorization of transfinite rational words."""

from .automaton import (SingleWordAutomaton, compile_expr, numbered_word, render_tokens,
                        suffix_word, to_dot, validate)
from .duplication import depth, size, tau
from .expr import (Concat, Letter, Omega, RatExpr, as_finite_word, concat, expr_length,
                   format_expr, parse_expr, power, prefix_to, suffix_from)
from .factorizer import (Factorization, FactorizerState, extract_factorization,
                         factorize, factorize_states, marked_expression)
from .oracles import duval_factorize, is_prime_finite, prime_witness, primitive_root
from .order import CompareOutcome, Rel, compare, compare_via_automata, word_equal
from .ordinal import Ordinal, OrdinalError, div_left, format_ordinal, sub_left
from .structural import circular_fact, concat_pp, fact_omega, fact_product, factorize_structural

__all__ = [name for name in dir() if not name.startswith("_")]
