import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lambdaset.cantor_metrics import (DefiningSequence, newhouse_lower,
                                      thickness_of)
from lambdaset.errors import (InvalidInput, MalformedSequence,
                              NonpositiveThickness)
from lambdaset.numerics import Enclosure

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


def reference_thickness(ds):
    """Reference thickness: the linear replay's records, then the minimum
    bridge-to-gap ratio in Fraction arithmetic."""
    if not ds.removals:
        raise InvalidInput("defining sequence lists no removals")
    best = None
    for _component, (left_lo, vl), (vr, right_hi) in linear_replay(
            ds.hull, ds.removals):
        ratio = min(vl.lo - left_lo.hi, right_hi.lo - vr.hi) / (vr.hi - vl.lo)
        if best is None or ratio < best:
            best = ratio
    return best


def _outcome(thickness, ds):
    try:
        return thickness(ds)
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
    return DefiningSequence.from_fractions(hull, removals, bits)


@settings(deadline=None)
@given(defining_sequences())
@example(DefiningSequence.from_fractions((F(0), F(1)), []))
# a left end on an existing start cut, on an existing end cut, inside an
# earlier gap, and a hull of one point
@example(DefiningSequence.from_fractions(
    (F(0), F(1)), [(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))]))
@example(DefiningSequence.from_fractions(
    (F(0), F(1)), [(F(1, 4), F(1, 2)), (F(1, 4), F(3, 8))]))
@example(DefiningSequence.from_fractions(
    (F(0), F(1)), [(F(1, 4), F(3, 4)), (F(3, 8), F(1, 2))]))
@example(DefiningSequence.from_fractions(
    (F(1, 2), F(1, 2)), [(F(1, 4), F(3, 4))]))
def test_integer_replay_matches_fraction_reference(ds):
    # the same Fraction or the same error and message
    assert _outcome(thickness_of, ds) == _outcome(reference_thickness, ds)


def test_mixed_grid_exponents():
    """Endpoints at 2^-3 and at 2^-700 share one sequence: each is shifted
    onto the finest grid before any comparison."""
    fine = F(1, 1 << 700)
    ds = DefiningSequence(
        (Enclosure.point(F(0), 8), Enclosure.point(F(1), 8)),
        ((Enclosure.point(F(3, 8), 8), Enclosure.point(F(5, 8), 8)),
         (Enclosure.point(fine, 8), Enclosure.point(F(1, 8), 8)),
         (Enclosure.point(F(3, 4) - fine, 8), Enclosure.point(F(7, 8), 8))))
    assert thickness_of(ds) == reference_thickness(ds) == fine / (F(1, 8) - fine)
    # a removal that straddles the left end of the second gap
    misplaced = DefiningSequence(ds.hull, ds.removals + (
        (Enclosure.point(fine / 2, 8), Enclosure.point(2 * fine, 8)),))
    with pytest.raises(MalformedSequence,
                       match="removal 4 is not strictly interior"):
        thickness_of(misplaced)


def test_non_dyadic_endpoint_is_refused():
    third = Enclosure.point(F(1, 3), 8)
    ds = DefiningSequence(
        (Enclosure.point(F(0), 8), Enclosure.point(F(1), 8)),
        ((third, Enclosure.point(F(1, 2), 8)),))
    with pytest.raises(InvalidInput, match="not dyadic"):
        thickness_of(ds)


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


def test_newhouse_monotone_bounded():
    values = [newhouse_lower(F(n, 7)) for n in range(1, 60)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(0 < v < 1 for v in values)
