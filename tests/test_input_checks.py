"""Argument checks at the library's entry points: each bad argument raises
at once, before any work, with the exception type callers catch. Every
library refusal of an argument is `InvalidInput`, a `ValueError`."""

from fractions import Fraction as F

import pytest

from lambdaset.cantor_metrics import (DefiningSequence, newhouse_lower,
                                      thickness_of)
from lambdaset.constructions import (lipschitz_check, piece_endpoints,
                                     thickness_Cl)
from lambdaset.errors import InvalidInput
from lambdaset.ifs_core import greedy_digits, pi_eval
from lambdaset.intersect import find_common
from lambdaset.lambda_set import (admissible_prefixes, block_codes,
                                  psi_inverse)
from lambdaset.numerics import (MAX_BITS, Enclosure, PrecisionConfig,
                                parse_rational)
from lambdaset.seqcode import (EpSequence, binary_expansion,
                               word_at_position, zero_indices)
from lambdaset.svg import svg_gaps

SEQ = EpSequence((0,), (1,))
HULL = (F(0), F(1))
CELLS = tuple(Enclosure.from_fraction(q, 64) for q in (F(0), F(1, 2), F(1)))

BAD_CALLS = [
    ("piece index 0", lambda: piece_endpoints(F(1, 3), 0), InvalidInput),
    ("search depth 0", lambda: find_common([F(1, 3)], 0), InvalidInput),
    ("prefix depth 0", lambda: admissible_prefixes(F(1, 3), 0), InvalidInput),
    ("ratio 1", lambda: pi_eval(SEQ, F(1)), InvalidInput),
    ("position 0", lambda: word_at_position(0), InvalidInput),
    ("zero count 0", lambda: zero_indices(SEQ, 0), InvalidInput),
    ("reversed cell", lambda: Enclosure((2, 1, 2), 64), InvalidInput),
    ("sequence <= int", lambda: SEQ <= 1, TypeError),
    ("no pairs asked for", lambda: lipschitz_check(F(1, 3), F(45, 100), 0),
     InvalidInput),
    ("empty period", lambda: EpSequence((0,), ()), InvalidInput),
    ("sequence literal", lambda: EpSequence.from_string("01"), InvalidInput),
    ("target 1/2", lambda: binary_expansion(F(1, 2)), InvalidInput),
    ("too few zeros", lambda: zero_indices(SEQ, 1), InvalidInput),
    ("tail piece 0", lambda: thickness_Cl(F(1, 3), 0, 1, 0), InvalidInput),
    ("coding above 0 1^inf",
     lambda: psi_inverse(F(1, 3), EpSequence((1,), (0,))), InvalidInput),
    ("word above 0 1^inf",
     lambda: block_codes(binary_expansion(F(1, 4)), (1,)), InvalidInput),
    ("ratio below target", lambda: lipschitz_check(F(1, 3), F(1, 4), 10),
     InvalidInput),
    ("common target 3/4", lambda: find_common([F(3, 4)], 4), InvalidInput),
    ("not a rational", lambda: parse_rational("x/y"), InvalidInput),
    ("precision 16", lambda: PrecisionConfig(16), InvalidInput),
    ("width -1", lambda: PrecisionConfig(width_bits=-1), InvalidInput),
    ("precision above cap", lambda: PrecisionConfig(MAX_BITS + 1),
     InvalidInput),
    ("width above cap", lambda: PrecisionConfig(width_bits=MAX_BITS + 1),
     InvalidInput),
    ("greedy point 3/2", lambda: greedy_digits(F(3, 2), F(1, 2)),
     InvalidInput),
    ("greedy ratio 3/5", lambda: greedy_digits(F(1, 4), F(3, 5)),
     InvalidInput),
    ("greedy steps 0", lambda: greedy_digits(F(1, 4), F(1, 3), 0),
     InvalidInput),
    ("empty removal", lambda: thickness_of(DefiningSequence.parse(
        HULL, [(F(1, 2), F(1, 2))])), InvalidInput),
    ("removal outside hull",
     lambda: thickness_of(DefiningSequence.parse(
         HULL, [(F(2), F(3))])), InvalidInput),
    ("three-end gap", lambda: DefiningSequence.parse(
        HULL, [(F(1, 3), F(2, 3), F(3, 4))]), InvalidInput),
    ("one-end hull", lambda: DefiningSequence.parse(
        HULL[:1], [(F(1, 3), F(2, 3))]), InvalidInput),
    ("gap file precision 0", lambda: DefiningSequence.parse(
        HULL, [(F(1, 3), F(2, 3))], 0), InvalidInput),
    ("gap file precision above cap", lambda: DefiningSequence.parse(
        HULL, [(F(1, 3), F(2, 3))], MAX_BITS + 1), InvalidInput),
    ("three-cell removal", lambda: DefiningSequence.from_cells(
        CELLS[:2], [CELLS]), InvalidInput),
    ("thickness 0", lambda: newhouse_lower(0), InvalidInput),
    ("diagram q_max 2", lambda: svg_gaps(F(1, 3), 1, 1, 2), InvalidInput),
]


@pytest.mark.parametrize("call, error", [c[1:] for c in BAD_CALLS],
                         ids=[c[0] for c in BAD_CALLS])
def test_bad_argument_raises(call, error):
    with pytest.raises(error):
        call()
