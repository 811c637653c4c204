"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Tolerances are pinned here and nowhere else.
"""

import math
import random
from fractions import Fraction

from lambdaset.cantor_metrics import (DefiningSequence, newhouse_lower,
                                      thickness_of)
from lambdaset.constructions import thickness_Cl, verify_caseA, verify_caseB
from lambdaset.ifs_core import Member, greedy_digits, membership, pi_eval
from lambdaset.intersect import find_common
from lambdaset.lambda_set import (box_dim_estimate, cover, gaps,
                                  lipschitz_check, psi_inverse)
from lambdaset.numerics import PrecisionConfig
from lambdaset.seqcode import EpSequence, Word

F = Fraction
CFG = PrecisionConfig()
S = EpSequence.from_string

LOG2_OVER_LOG3 = F("0.63092975357145743709952711434276085429958564013191")


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_endpoints():
    width_cap = F(1, 1 << 80)
    ok = True
    for x in (F(1, 5), F(1, 4), F(1, 3), F(2, 5)):
        for depth in range(1, 11):
            c = cover(x, depth, CFG)
            ok &= c.intervals[0].lo.contains(x)
            ok &= c.intervals[-1].hi.contains(F(1, 2))
        e = psi_inverse(x, S("0(1)"), CFG)
        ok &= e.contains(x) and e.width() <= width_cap
    _report(1, ok, "cover endpoints reach x and 1/2 for depth <= 10; "
                   "the 0(1) coding pins x to width 2^-80")


def test_criterion_02_greedy_ground_truth():
    out = greedy_digits(F(1, 4), F(1, 2), 64)
    ok = isinstance(out, Member) and out.coding == S("01(0)")
    rng = random.Random(2024)
    done = 0
    while done < 1000:
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 8)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
        lam = F(rng.randint(1, 120), 240)
        s = EpSequence(Word(pre), Word(per))
        x = pi_eval(s, lam)
        outcome = greedy_digits(x, lam, 512)
        ok &= isinstance(outcome, Member)
        ok &= pi_eval(outcome.coding, lam) == x
        done += 1
    _report(2, ok, "greedy coding of 1/4 at ratio 1/2 is 01(0); "
                   "1000 member round trips are exact")


def test_criterion_03_local_dimension():
    fast = PrecisionConfig(64, target_width=F(1, 1 << 24))
    near_half = box_dim_estimate(F(1, 3), (F(1, 2) - F(1, 16), F(1, 2)),
                                 [8, 9, 10, 11, 12, 13], fast)
    ok = abs(near_half.slope - 1.0) <= 0.15
    lam_star = psi_inverse(F(1, 3), S("0(110)"), CFG)   # (sqrt(3)-1)/2
    center = lam_star.mid_fraction()
    target = math.log(2) / -math.log(center)
    interior = box_dim_estimate(F(1, 3), (center - F(1, 32), center + F(1, 32)),
                                [8, 9, 10, 11, 12, 13], fast)
    ok &= abs(interior.slope - target) <= 0.15
    _report(3, ok, f"box slope near 1/2 is {near_half.slope:.3f} (target 1 "
                   f"+- 0.15); near the interior member {float(center):.4f} "
                   f"it is {interior.slope:.3f} (target {target:.3f} +- 0.15)")


def test_criterion_04_lipschitz_bound():
    ok = True
    for x, lam in ((F(1, 3), F(45, 100)), (F(1, 4), F(4, 10))):
        rep = lipschitz_check(x, lam, 200, seed=7, cfg=CFG)
        ok &= rep.violations == 0 and rep.min_ratio >= rep.bound
    _report(4, ok, "200-pair minimum difference quotients clear "
                   "x(1-2L)^2/L at (1/3, 0.45) and (1/4, 0.4)")


def test_criterion_05_caseA_ledger():
    ledger = verify_caseA(F(1, 3), 100, CFG, seed=11)
    ok = ledger.violations == [] and len(ledger.entries) == 500
    _report(5, ok, f"case A: {len(ledger.entries)} certified instances "
                   f"across 5 shapes, {len(ledger.violations)} violations")


def test_criterion_06_caseB_ledger():
    ledger = verify_caseB(100, CFG, seed=11)
    squares = [e for e in ledger.entries if e.kind == "square_identity"]
    ok = ledger.violations == [] and len(squares) == 6
    ok &= all(F(e.lhs) <= F(1, 1 << 70) for e in squares)
    _report(6, ok, "case B: all instances certified; square-identity "
                   "residuals stay within 2^-70 for k <= 6 at 128 bits")


def test_criterion_07_thickness_divergence_trend():
    taus = []
    for ell in range(2, 9):
        rep = thickness_Cl(F(1, 3), ell, 6, 3, CFG)
        assert rep.bound_violations == ()
        taus.append(rep.tau_truncated)
    slack = F(1, 1 << 20)
    ok = all(b >= a - slack for a, b in zip(taus, taus[1:]))
    bounds = [newhouse_lower(t) for t in taus]
    ok &= max(bounds) > 0.8
    _report(7, ok, "truncated thickness is nondecreasing for ell = 2..8 "
                   f"(tau: {float(taus[0]):.2f} -> {float(taus[-1]):.2f}); "
                   f"best Newhouse bound {max(bounds):.4f} > 0.8")


def test_criterion_08_intersection_witness():
    certs = find_common([F(1, 3), F(1, 4)], 8, CFG)
    half = [c for c in certs if c.lam_exact == F(1, 2) and c.status == "Exact"]
    tol = F(1, 1 << 60)
    below = [c for c in certs
             if c.lam.hi.to_fraction() < F(1, 2) and c.lam.width() <= tol]
    ok = len(half) == 1 and len(below) >= 1
    for c in certs:
        if c.lam_exact is not None:
            ok &= all(membership(y, c.lam_exact, 600) is True
                      for y in c.targets)
    _report(8, ok, f"common ratios for (1/3, 1/4): the 1/2 certificate plus "
                   f"{len(below)} below-1/2 certificate(s) at width <= 2^-60")


def _middle_alpha(alpha: F, levels: int) -> DefiningSequence:
    hull, comps, removed = (F(0), F(1)), [(F(0), F(1))], []
    for _ in range(levels):
        nxt = []
        for a, b in comps:
            length = b - a
            gl = a + (1 - alpha) / 2 * length
            gr = b - (1 - alpha) / 2 * length
            removed.append((gl, gr))
            nxt += [(a, gl), (gr, b)]
        comps = nxt
    return DefiningSequence.from_fractions(hull, removed)


def test_criterion_09_thickness_oracle():
    tol = F(1, 1 << 40)
    ok = True
    for alpha in (F(1, 3), F(1, 2), F(3, 5)):
        tau = thickness_of(_middle_alpha(alpha, 4))
        ok &= abs(tau - (1 - alpha) / (2 * alpha)) <= tol
    ok &= abs(F(newhouse_lower(1)) - LOG2_OVER_LOG3) <= tol
    _report(9, ok, "middle-alpha thickness matches (1-a)/(2a) to 2^-40 "
                   "for a in {1/3, 1/2, 3/5}; newhouse(1) = log2/log3 +- 2^-40")


def test_criterion_10_cover_soundness_suite():
    rng = random.Random(10)
    ok = True
    for x in (F(1, 4), F(1, 3)):
        c = cover(x, 8, CFG)
        gap_list = gaps(x, 8, CFG)
        for _ in range(500):
            lam = x + (F(1, 2) - x) * F(rng.randint(0, 4000), 4000)
            verdict = membership(x, lam, 300)
            if verdict is True:
                ok &= c.covers(lam)
            if any(g.interior_contains(lam) for g in gap_list):
                ok &= verdict is not True
        slack = F(1, 1 << 70)
        previous = None
        for depth in range(1, 9):
            current = cover(x, depth, CFG)
            if previous is not None:
                for child in current.intervals:
                    clo = child.lo.lo.to_fraction()
                    chi = child.hi.hi.to_fraction()
                    ok &= any(p.lo.lo.to_fraction() - slack <= clo
                              and chi <= p.hi.hi.to_fraction() + slack
                              for p in previous.intervals)
            previous = current
    _report(10, ok, "1000 membership queries consistent with covers and "
                    "gaps at depth 8; covers nest across depths 1..8")
