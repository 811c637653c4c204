"""Argument checks at the library's entry points: each bad argument raises
at once, before any work, with the exception type callers catch."""

from fractions import Fraction as F

import pytest

from lambdaset.constructions import piece_endpoints
from lambdaset.errors import OutOfRange
from lambdaset.ifs_core import pi_eval
from lambdaset.intersect import find_common
from lambdaset.lambda_set import admissible_prefixes, lipschitz_check
from lambdaset.numerics import Enclosure
from lambdaset.seqcode import EpSequence, word_at_position, zero_indices

SEQ = EpSequence((0,), (1,))

BAD_CALLS = [
    ("piece index 0", lambda: piece_endpoints(F(1, 3), 0), ValueError),
    ("search depth 0", lambda: find_common([F(1, 3)], 0), ValueError),
    ("prefix depth 0", lambda: admissible_prefixes(F(1, 3), 0), ValueError),
    ("ratio 1", lambda: pi_eval(SEQ, F(1)), OutOfRange),
    ("position 0", lambda: word_at_position(0), ValueError),
    ("zero count 0", lambda: zero_indices(SEQ, 0), ValueError),
    ("reversed cell", lambda: Enclosure(F(1, 2), F(1, 4), 64), ValueError),
    ("sequence <= int", lambda: SEQ <= 1, TypeError),
    ("no pairs asked for", lambda: lipschitz_check(F(1, 3), F(45, 100), 0),
     ValueError),
]


@pytest.mark.parametrize("call, error", [c[1:] for c in BAD_CALLS],
                         ids=[c[0] for c in BAD_CALLS])
def test_bad_argument_raises(call, error):
    with pytest.raises(error):
        call()
