import contextlib
import io
import json
import math
import sys
from fractions import Fraction
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lambdaset.cantor_metrics import (DefiningSequence, newhouse_lower,
                                      thickness_of)
from lambdaset.cli import main
from lambdaset.errors import (InvalidInput, MalformedSequence,
                              NonpositiveThickness)
from lambdaset.numerics import Enclosure, exact_str, parse_rational

F = Fraction
TOL = F(1, 1 << 40)


def middle_alpha(alpha: F, levels: int, hull=(F(0), F(1))) -> DefiningSequence:
    """Size-ordered defining sequence of the middle-alpha Cantor set."""
    gaps = []
    comps = [hull]
    for _ in range(levels):
        nxt = []
        for a, b in comps:
            length = b - a
            gl = a + (1 - alpha) / 2 * length
            gr = b - (1 - alpha) / 2 * length
            gaps.append((gl, gr))
            nxt += [(a, gl), (gr, b)]
        comps = nxt
    return DefiningSequence.from_fractions(hull, gaps)


def test_malformed_removals():
    touching = DefiningSequence.from_fractions((F(0), F(1)), [(F(0), F(1, 3))])
    with pytest.raises(MalformedSequence):
        thickness_of(touching)
    outside = DefiningSequence.from_fractions((F(0), F(1)), [(F(2), F(3))])
    with pytest.raises(MalformedSequence):
        thickness_of(outside)
    overlapping = DefiningSequence.from_fractions(
        (F(0), F(1)), [(F(1, 3), F(2, 3)), (F(1, 2), F(3, 4))])
    with pytest.raises(MalformedSequence):
        thickness_of(overlapping)
    empty_gap = DefiningSequence.from_fractions((F(0), F(1)), [(F(1, 2), F(1, 2))])
    with pytest.raises(MalformedSequence):
        thickness_of(empty_gap)
    with pytest.raises(InvalidInput):
        thickness_of(DefiningSequence.from_fractions((F(0), F(1)), []))


def linear_replay(hull, removals):
    """Reference replay: scan every component for the removal's home."""
    components = [hull]
    records = []
    for idx, (vl, vr) in enumerate(removals, start=1):
        if not vl.hi < vr.lo:
            raise MalformedSequence(f"removal {idx} has no certified length")
        home = next((j for j, (clo, chi) in enumerate(components)
                     if clo.hi < vl.lo and vr.hi < chi.lo), None)
        if home is None:
            raise MalformedSequence(
                f"removal {idx} is not strictly interior to any component")
        clo, chi = components[home]
        left, right = (clo, vl), (vr, chi)
        components[home:home + 1] = [left, right]
        records.append(((clo, chi), left, right))
    return records


def reference_thickness(hull, removals):
    """Reference thickness of Enclosure pairs: the linear replay's records,
    then the minimum bridge-to-gap ratio in Fraction arithmetic."""
    if not removals:
        raise InvalidInput("defining sequence lists no removals")
    best = None
    for _component, (left_lo, vl), (vr, right_hi) in linear_replay(
            hull, removals):
        ratio = min(vl.lo - left_lo.hi, right_hi.lo - vr.hi) / (vr.hi - vl.lo)
        if best is None or ratio < best:
            best = ratio
    return best


def _outcome(thickness, *args):
    try:
        return thickness(*args)
    except (InvalidInput, MalformedSequence) as exc:
        return f"{type(exc).__name__}: {exc}"


grid = st.builds(F, st.integers(-8, 40), st.integers(1, 12))


@st.composite
def defining_sequences(draw):
    """Removals mostly cut strictly inside a component of the exact
    replay; the rest are arbitrary pairs (reversed, empty, overlapping or
    outside the hull), and a few hulls are reversed. Coarse rounding makes
    some interior cuts uncertain."""
    lo, length = draw(grid), draw(st.builds(F, st.integers(1, 40),
                                            st.integers(1, 12)))
    hull = (lo + length, lo) if draw(st.integers(0, 9)) == 0 else (lo, lo + length)
    components = [hull]
    removals = []
    for _ in range(draw(st.integers(0, 40))):
        a, b = components[draw(st.integers(0, len(components) - 1))]
        t1, t2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        if a < b and draw(st.integers(0, 11)):
            gl, gr = a + (b - a) * F(t1, 8), b - (b - a) * F(t2, 8)
            home = components.index((a, b))
            components[home:home + 1] = [(a, gl), (gr, b)]
        else:
            gl, gr = draw(grid), draw(grid)
        removals.append((gl, gr))
    bits = draw(st.sampled_from((8, 32, 64)))
    return hull, removals, bits


@settings(deadline=None)
@given(defining_sequences())
@example(((F(0), F(1)), [], 128))
# a left end on an existing start cut, on an existing end cut, inside an
# earlier gap, and a hull of one point
@example(((F(0), F(1)), [(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))], 128))
@example(((F(0), F(1)), [(F(1, 4), F(1, 2)), (F(1, 4), F(3, 8))], 128))
@example(((F(0), F(1)), [(F(1, 4), F(3, 4)), (F(3, 8), F(1, 2))], 128))
@example(((F(1, 2), F(1, 2)), [(F(1, 4), F(3, 4))], 128))
def test_integer_replay_matches_fraction_reference(sequence):
    hull, removals, bits = sequence
    ds = DefiningSequence.from_fractions(hull, removals, bits)
    hull, *removals = [(Enclosure.from_fraction(a, bits),
                        Enclosure.from_fraction(b, bits))
                       for a, b in (hull, *removals)]
    # the same Fraction or the same error and message
    assert (_outcome(thickness_of, ds)
            == _outcome(reference_thickness, hull, removals))


def test_mixed_grid_exponents():
    """Endpoints at 2^-3 and at 2^-700 share one sequence: each is shifted
    onto the finest grid before any comparison."""
    fine = F(1, 1 << 700)
    hull = (Enclosure.point(F(0), 8), Enclosure.point(F(1), 8))
    removals = ((Enclosure.point(F(3, 8), 8), Enclosure.point(F(5, 8), 8)),
                (Enclosure.point(fine, 8), Enclosure.point(F(1, 8), 8)),
                (Enclosure.point(F(3, 4) - fine, 8),
                 Enclosure.point(F(7, 8), 8)))
    ds = DefiningSequence.from_cells(hull, removals)
    assert (thickness_of(ds) == reference_thickness(hull, removals)
            == fine / (F(1, 8) - fine))
    # a removal that straddles the left end of the second gap
    misplaced = DefiningSequence.from_cells(hull, removals + (
        (Enclosure.point(fine / 2, 8), Enclosure.point(2 * fine, 8)),))
    with pytest.raises(MalformedSequence,
                       match="removal 4 is not strictly interior"):
        thickness_of(misplaced)


def test_non_dyadic_endpoint_is_refused():
    # an Enclosure is a dyadic cell, so a third never reaches the sequence
    hull = (Enclosure.point(F(0), 8), Enclosure.point(F(1), 8))
    with pytest.raises(ValueError, match="not a dyadic rational: 1/3"):
        Enclosure.point(F(1, 3), 8)
    # the payload prints one precision for every cell
    with pytest.raises(InvalidInput, match="mixes precisions"):
        DefiningSequence.from_cells(hull, ((Enclosure.point(F(1, 4), 8),
                                            Enclosure.point(F(1, 2), 9)),))


@settings(deadline=None)
@given(st.integers(-(10 ** 45), 10 ** 45), st.integers(1, 10 ** 45),
       st.integers(1, 10 ** 6), st.sampled_from((1, 2, 8, 32, 128)))
# one end of the scaled quotient a power of two and the other one below it
# in magnitude: (3 * 2^129 - 1) / 3 scaled by 2 is 2^130 - 2/3, and the
# same negated
@example(3 * (1 << 129) - 1, 3, 2, 128)
@example(-3 * (1 << 129) + 1, 3, 2, 128)
@example((1 << 130) - 1, 1 << 130, 3, 128)
@example((1 << 200) + 1, 3, 1, 32)
@example(0, 7, 5, 32)
# the scaled quotient 2^33 / 3 has 32 bits already: no bit is dropped
@example(1, 3, 1, 32)
def test_grid_cells_are_round_dyadic_cells(num, den, k, bits):
    """An endpoint `p/q` of a gap file lands on the cell the rounding
    contract names for p/q, in lower terms or not, and an integer on its
    own cell; Enclosure.from_fraction gives those ends."""
    ds = DefiningSequence.parse([f"{num * k}/{den * k}", num], [], bits)
    [cells] = ds.intervals()
    for cell, q in zip(cells, (F(num, den), F(num))):
        expected = _outward(q, bits)
        assert (cell.lo, cell.hi) == expected
        enclosure = Enclosure.from_fraction(q, bits)
        assert (enclosure.lo, enclosure.hi) == expected


def _outward(q: F, bits: int) -> tuple[F, F]:
    """The largest value at or below q and the smallest at or above it
    that have at most `bits` significant bits; 0 rounds to itself."""
    if q <= 0:
        lo, hi = _outward(-q, bits) if q else (q, q)
        return -hi, -lo
    e = q.numerator.bit_length() - q.denominator.bit_length()
    if F(2) ** e > q:
        e -= 1
    # 2^e <= q < 2^(e+1), and the values in [2^e, 2^(e+1)] with at most
    # `bits` significant bits are the multiples of 2^(e+1-bits) there
    unit = F(2) ** (e + 1 - bits)
    return math.floor(q / unit) * unit, math.ceil(q / unit) * unit


# endpoints a gap file may hold that are no rational, or that only
# parse_rational reads: signs, spaces, other digits, underscores
ODD_ENDPOINTS = ["", "abc", "1/0", "3/00", "1/-3", "--1", "1/", "/2", "1 /3",
                 "0x10", "nan", "inf", "1e30", "٣", "١/٣", "1_0/3", "+1/3",
                 " 2/3\t", "-0", "1" * 5000, "1/" + "1" * 5000, None, True,
                 False, [], {}, 1.5, -2]


def _decimal(q: F):
    """(n, m) with q = n / 10^m, or None when q has no short decimal."""
    for m in range(12):
        if (q * 10 ** m).denominator == 1:
            return (q * 10 ** m).numerator, m
    return None


@st.composite
def endpoint_texts(draw, q: F):
    """q as a gap file may write it."""
    form = draw(st.sampled_from(("ratio", "unreduced", "integer", "decimal",
                                 "exponent", "float", "plus", "padded")))
    decimal = _decimal(q)
    if form == "unreduced":
        k = draw(st.integers(2, 9))
        return f"{q.numerator * k}/{q.denominator * k}"
    if form == "integer" and q.denominator == 1:
        return q.numerator
    if form == "decimal" and decimal:
        n, m = decimal
        digits = str(abs(n)).rjust(m + 1, "0")
        point = len(digits) - m
        return f"{'-' if n < 0 else ''}{digits[:point]}.{digits[point:]}"
    if form == "exponent" and decimal:
        n, m = decimal
        return f"{n}e-{m}" if m else f"{n}E0"
    if form == "float":
        return float(q)
    if form == "plus" and q >= 0:
        return f"+{q}"
    if form == "padded":
        return f" {q}\n"
    return str(q)


@st.composite
def gap_documents(draw):
    """`thickness --gaps` documents: the cuts of defining_sequences, each
    endpoint written in one of the forms a gap file may use, and in a third
    of them one endpoint replaced by an odd one."""
    hull, removals, _bits = draw(defining_sequences())
    ends = [[draw(endpoint_texts(a)), draw(endpoint_texts(b))]
            for a, b in (hull, *removals)]
    if draw(st.integers(0, 2)) == 0:
        ends[draw(st.integers(0, len(ends) - 1))][draw(st.integers(0, 1))] = (
            draw(st.sampled_from(ODD_ENDPOINTS)))
    return {"hull": ends[0], "gaps": ends[1:]}


def reference_cli(doc: dict, bits: int) -> tuple[int, str]:
    """What `thickness --gaps` answers for doc, from the definitions: every
    endpoint through parse_rational, then Enclosure.from_fraction, then the
    linear Fraction replay. (0, the exact thickness) or (1, the error
    line)."""
    try:
        values = [parse_rational(str(v))
                  for v in chain(doc["hull"], *doc["gaps"])]
    except ValueError as exc:
        return 1, f"error: {exc}"
    cells = [Enclosure.from_fraction(q, bits) for q in values]
    hull, *removals = zip(cells[::2], cells[1::2])
    try:
        return 0, exact_str(reference_thickness(hull, removals))
    except (InvalidInput, MalformedSequence) as exc:
        return 1, f"error: {exc}"


def cli_thickness(doc: dict, bits: int) -> tuple[int, str]:
    """(0, the payload's thickness) or (exit code, the error line) of
    `thickness --gaps -` with doc on stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["thickness", "--gaps", "-", "--bits", str(bits)])
    if code == 0:
        return code, json.loads(out.getvalue())["thickness"]
    assert out.getvalue() == ""
    return code, err.getvalue().splitlines()[0]


MIXED = {"hull": ["-1", 2], "gaps": [["1/3", "2/3"], ["-1/2", "1e-1"],
                                     [0.25, "3/10"], [1, "3/2"]]}


@settings(deadline=None)
@given(gap_documents(), st.sampled_from((32, 40, 128)))
@example(MIXED, 128)
@example({"hull": [" 0", "1\n"], "gaps": [["\t1/3", "2/3 "]]}, 128)
@example({"hull": ["0", "1"], "gaps": [["1/3", "2/0"]]}, 128)
@example({"hull": ["0", "1"], "gaps": []}, 32)
def test_thickness_cli_matches_the_definitions(doc, bits):
    assert cli_thickness(doc, bits) == reference_cli(doc, bits)


def test_thickness_examples():
    assert abs(thickness_of(middle_alpha(F(1, 3), 3)) - 1) <= TOL
    assert abs(thickness_of(middle_alpha(F(1, 2), 3)) - F(1, 2)) <= TOL
    single = DefiningSequence.from_fractions((F(0), F(1)), [(F(1, 4), F(1, 2))])
    assert abs(thickness_of(single) - 1) <= TOL


def test_middle_alpha_formula():
    for alpha in (F(1, 3), F(1, 2), F(3, 5)):
        tau = thickness_of(middle_alpha(alpha, 4))
        assert abs(tau - (1 - alpha) / (2 * alpha)) <= TOL


def test_thickness_affine_invariance():
    for scale, shift in ((F(3, 7), F(2)), (F(5), F(-1, 3)), (F(1, 9), F(0))):
        plain = middle_alpha(F(1, 2), 3)
        moved = middle_alpha(F(1, 2), 3,
                             hull=(shift, shift + scale))
        assert abs(thickness_of(plain) - thickness_of(moved)) <= 2 * TOL


def test_more_removals_never_increase_thickness():
    previous = None
    for levels in range(1, 5):
        tau = thickness_of(middle_alpha(F(2, 5), levels))
        if previous is not None:
            assert tau <= previous + TOL
        previous = tau


def test_newhouse_examples():
    assert abs(newhouse_lower(1) - math.log(2) / math.log(3)) < 1e-15
    assert 0.999999 < newhouse_lower(10 ** 6) < 1
    assert abs(newhouse_lower(F(1, 2)) - 0.5) < 1e-15
    with pytest.raises(NonpositiveThickness):
        newhouse_lower(0)
    with pytest.raises(NonpositiveThickness):
        newhouse_lower(-2)


def test_newhouse_lower_below_float_range():
    """A positive thickness too small for 1/tau to be a finite float keeps
    a positive bound, log 2 / log(2 + 1/tau), read from its integers."""
    assert newhouse_lower(F(1, 10 ** 400)) == pytest.approx(
        math.log(2) / (400 * math.log(10)), rel=1e-12)
    assert newhouse_lower(F(1, 1 << 1070)) == pytest.approx(1 / 1070,
                                                            rel=1e-12)
    with pytest.raises(NonpositiveThickness, match="positive: -1/10{400}$"):
        newhouse_lower(F(-1, 10 ** 400))


def test_newhouse_monotone_bounded():
    values = [newhouse_lower(F(n, 7)) for n in range(1, 60)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(0 < v < 1 for v in values)
