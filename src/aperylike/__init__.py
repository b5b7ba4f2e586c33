"""Exact computation and verification for Apery-like sequences.

Subpackages by concern:

- rings        exact scalars over Z, Q, and Q(sqrt(d))
- recurrence   (k+1)-term relations, companions too, from (G, H); term streams
- catalog      committed tables, binomial-sum oracles, reference values; a
               sequence is built on its first use
- series       the Clausen-type and level-14/15 generating-function checks
- qseries      q-expansions (eta, theta, Eisenstein) and modular verifiers
               (the command line loads these two only where they are used)
- congruence   Lucas / supercongruence scanning
- asymptotics  growth constants R, b1, and numeric estimation of C (the one
               module that imports mpmath; only the asymptotics commands load it)
- cli          the command-line front end
"""

__version__ = "1.0.0"

from .rings import QuadElem, RingTag, RING_Q, RING_Z, conj, reduce_mod, reduce_pair
from .recurrence import (
    InexactDivision,
    Poly,
    RecurrenceSpec,
    Sequence,
    asz_gh,
    ctyz_gh,
    fourterm_params,
    generate_terms,
    is_self_starting,
    recurrence_from_gh,
    recurrence_from_quadratic,
    scaled_integrality_check,
    term_iterator,
    term_pairs,
)
from .catalog import binomial_oracle, get_entry, sequence

__all__ = [
    "QuadElem", "RingTag", "RING_Q", "RING_Z", "conj", "reduce_mod", "reduce_pair",
    "InexactDivision", "Poly", "RecurrenceSpec", "Sequence",
    "asz_gh", "ctyz_gh", "fourterm_params",
    "generate_terms", "is_self_starting", "recurrence_from_gh",
    "recurrence_from_quadratic", "scaled_integrality_check", "term_iterator",
    "term_pairs",
    "binomial_oracle", "get_entry", "sequence",
]
