"""Seeded op lists for the four benchmark workloads.

An op is a JSON list: ``["gz", d1, d2]``, ``["yz", d1, d2]``,
``["gz_rhs", d1, d2]``, ``["yz_rhs", d1, d2]``, ``["yz_rhs_whittaker", d1,
d2]`` or ``["borcherds", case, n1, n2]``.  Every generator takes the seed and
nothing else; the same seed gives the same list.  The composition of each
list (how many ops of each kind, in which cost band) is fixed, and the seed
only chooses the members of each band, so the cost of a pass varies little
between seeds.

The discriminant arithmetic here is the benchmark's own, so that the inputs do
not change when the program under test changes.
"""

import random
from math import gcd, isqrt

WORKLOADS = ("cm-grid", "cm-large", "rhs-large", "borcherds")

# Inputs of the warm-up op that set-up time includes.  No generated op uses
# these discriminants or boxes.
WARMUP = {
    "cm-grid": ["gz", -3, -4],
    "cm-large": ["gz", -3, -4],
    "rhs-large": ["gz_rhs", -3, -4],
    "borcherds": ["borcherds", "j", 2, 2],
}


def _squarefree(n):
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1
    return True


def is_fundamental(d):
    """True for a negative fundamental discriminant."""
    if d >= 0:
        return False
    if d % 4 == 1:
        return _squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and _squarefree(d // 4)


def class_number(d):
    """Number of reduced primitive forms of discriminant d < 0."""
    count = 0
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or (a == c and b < 0) or gcd(gcd(a, b), c) != 1:
                continue
            count += 1
    return count


def _discs(lo, hi):
    """Fundamental discriminants d with lo <= |d| <= hi, with class numbers."""
    return {d: class_number(d) for d in range(-lo, -hi - 1, -1)
            if is_fundamental(d)}


def cm_grid(rng):
    """Every coprime pair of fundamental discriminants with 5 <= |d| < 160,
    h <= 6 and h1 h2 <= 12 is admissible for gz, and for yz too when both
    are 1 mod 8.  The list holds 40 % of the admissible pairs of each
    (kind, h1 h2) stratum, at least one: about 210 ops, in which each
    discriminant recurs about 11 times."""
    discs = {d: h for d, h in _discs(5, 159).items() if h <= 6}
    strata = {}
    for d1 in discs:
        for d2 in discs:
            hh = discs[d1] * discs[d2]
            if d1 <= d2 or gcd(d1, d2) != 1 or hh > 12:
                continue
            strata.setdefault(("gz", hh), []).append(["gz", d1, d2])
            if d1 % 8 == 1 and d2 % 8 == 1:
                strata.setdefault(("yz", hh), []).append(["yz", d1, d2])
    ops = [op for key in sorted(strata)
           for op in rng.sample(strata[key],
                                max(1, round(0.4 * len(strata[key]))))]
    rng.shuffle(ops)
    return ops


# Pairs with |d| <= 200 (gz: h1 h2 from 35 to 48, 2500 to 3000 working
# bits; yz: h1 h2 from 28 to 35, about 1900 bits), grouped by their median
# paced time over five runs, each in a fresh interpreter, at the commit that
# defined the benchmark: about 0.48, 0.51, 0.55, 0.62, 0.65 and 0.68 s for
# the gz groups and 0.41 and 0.46 s for the yz groups.  Pairs of one size
# (h1 h2 sqrt(max |d|)) differ by up to 3x in time, so these groups, not a
# size band, keep the cost of a list the same across seeds.
CM_LARGE_GZ = (
    ((-55, -119), (-127, -183), (-136, -159), (-155, -159), (-56, -159),
     (-68, -159), (-79, -183)),
    ((-55, -159), (-119, -132), (-87, -95), (-39, -199), (-71, -116),
     (-120, -199), (-168, -199), (-132, -199)),
    ((-120, -143), (-95, -131), (-87, -151), (-111, -131), (-151, -179),
     (-131, -164), (-131, -183), (-179, -183)),
    ((-68, -143), (-116, -151), (-56, -143), (-143, -168), (-55, -199),
     (-195, -199), (-84, -199), (-111, -179)),
    ((-71, -179), (-104, -151), (-159, -184), (-136, -143), (-155, -199),
     (-95, -116), (-56, -199), (-68, -199)),
    ((-111, -116), (-84, -143), (-103, -164), (-184, -199), (-136, -199),
     (-119, -155), (-127, -164), (-104, -111)),
)
CM_LARGE_YZ = (
    ((-55, -151), (-23, -119), (-39, -151)),
    ((-31, -119), (-55, -111), (-71, -103), (-87, -127)),
)


def cm_large(rng):
    """Two yz and six gz pairs, one from each group above, with no
    discriminant used twice, so nothing is shared between ops.  With eight
    ops the median op time averages the second and third gz groups."""
    while True:
        used, ops = set(), []
        for kind, groups in (("yz", CM_LARGE_YZ), ("gz", CM_LARGE_GZ)):
            for group in groups:
                free = [p for p in group if not used & set(p)]
                if not free:
                    break
                d1, d2 = rng.choice(free)
                used |= {d1, d2}
                ops.append([kind, d1, d2])
        if len(ops) == len(CM_LARGE_YZ) + len(CM_LARGE_GZ):
            rng.shuffle(ops)
            return ops


def _rhs_pair(rng, target, yz):
    """A coprime pair of fundamental discriminants with d1 d2 just above
    target (d1 = d2 = 1 mod 8 when yz)."""
    while True:
        d1 = -rng.randrange(400, 2400)
        if not is_fundamental(d1) or yz and d1 % 8 != 1:
            continue
        d2 = -(target // -d1)
        while not (is_fundamental(d2) and gcd(d1, d2) == 1 and d2 != d1
                   and (not yz or d2 % 8 == 1)):
            d2 -= 1
        return d1, d2


def rhs_large(rng):
    """8 gz_rhs, 6 yz_rhs and 6 yz_rhs_whittaker calls; each kind spreads
    its D = d1 d2 over equal log-bands of [1e6, 1e7], within 3 % of each
    band's centre, since the cost grows like D."""
    ops = []
    for kind, n in (("gz_rhs", 8), ("yz_rhs", 6), ("yz_rhs_whittaker", 6)):
        for i in range(n):
            offset = 0.5 + 0.2 * (rng.random() - 0.5)
            target = int(10 ** (6 + (i + offset) / n))
            ops.append([kind, *_rhs_pair(rng, target, kind != "gz_rhs")])
    rng.shuffle(ops)
    return ops


# Boxes (n1, n2) in [6, 10] grouped so that the members of a group need the
# same input-series order, (n1 + 1)(n1 + n2 + 2) for weber and
# (n1 + 2)(n1 + n2 + 3) for j, within 2%; that order sets most of the cost.
WEBER_BOXES = (((6, 9), (7, 6)), ((6, 10), (7, 7)))
J_BOXES = (((7, 6), (6, 9)), ((6, 10), (7, 7)), ((8, 7), (7, 10)),
           ((8, 10), (9, 7)))


def borcherds(rng):
    """Two weber and four j boxes, one from each group above, and five
    cheap boxes (two eta1, two eta2, one f2) with n1, n2 in [8, 24].  With
    eleven ops the median op is the cheapest j box for every seed."""
    ops = [["borcherds", "weber", *rng.choice(g)] for g in WEBER_BOXES]
    ops += [["borcherds", "j", *rng.choice(g)] for g in J_BOXES]
    for case in ("eta1", "eta1", "eta2", "eta2", "f2"):
        ops.append(["borcherds", case, rng.randrange(8, 25),
                    rng.randrange(8, 25)])
    rng.shuffle(ops)
    return ops


GENERATORS = {"cm-grid": cm_grid, "cm-large": cm_large,
              "rhs-large": rhs_large, "borcherds": borcherds}


def generate(workload, seed):
    """The op list of a workload for a seed."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def op_key(op):
    return " ".join(str(x) for x in op)
