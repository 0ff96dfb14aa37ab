"""Admissible parameter families for flag-transitive point-imprimitive designs.

Given an invariant partition into v1 classes of size v0, the inner design on
a class has parameters (v0, k0, lambda0) and the quotient has (v1, k1,
lambda1); the global parameters are then rational multiples of the constant
mu (the number of blocks sharing a footprint).  all_rows lists every family
with v = v0*v1 below a bound in one loop over (v0, k0, v1), taking k1 from
the index relation (v1-1)*v0*(k0-1) = (k1-1)*k0*(v0-1); the shape of k0
(2, v0 - 1 or in between) only orders the rows and splits the published
tables.  symmetric_filter keeps the families reaching b = v at the
symmetric value mu_s = v/b1.

Which lambda1 (and lambda0) values actually occur on a given point count is
classification data, not arithmetic; those options are carried by the static
fixtures QUOTIENT_DESIGNS and INNER_DESIGNS together with the transitive
groups realizing them.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

# lambda1 options per quotient parameter pair (v1, k1), with the groups
# acting flag-transitively on a 2-(v1, k1, lambda1) design.
QUOTIENT_DESIGNS: dict[tuple[int, int], tuple[tuple[int, str], ...]] = {
    (4, 3): ((2, "A_4, S_4"),),
    (5, 4): ((3, "AGL_1(5), A_5, S_5"),),
    (6, 4): ((6, "S_5, A_6, S_6"),),
    (6, 5): ((4, "A_5, S_5, A_6, S_6"),),
    (7, 5): ((10, "A_7, S_7"),),
    (7, 6): ((5, "AGL_1(7), PSL_2(7), A_7, S_7"),),
    (8, 5): ((20, "A_8, S_8"),),
    (8, 7): ((6, "AGL_1(8), AGammaL_1(8), AGL_3(2), PSL_2(7), PGL_2(7), A_8, S_8"),),
    (9, 6): ((5, "G <= AGL_2(3)"),
             (30, "ASL_2(3), AGL_2(3)"),
             (35, "PSL_2(8), PGammaL_2(8), A_9, S_9")),
    (9, 7): ((21, "PSL_2(8), PGammaL_2(8), A_9, S_9"),),
    (9, 8): ((7, "PSL_2(8), PGammaL_2(8), A_9, S_9; G <= AGL_2(3)"),),
    (10, 7): ((56, "A_10, S_10"),),
    (10, 8): ((28, "PGL_2(9), M_10, PGammaL_2(9), A_10, S_10"),),
    (10, 9): ((8, "PSL_2(9), PGL_2(9), PSigmaL_2(9), M_10, PGammaL_2(9), A_10, S_10"),),
    (11, 7): ((126, "A_11, S_11"),),
    (11, 9): ((36, "M_11, A_11, S_11"),),
    (11, 10): ((9, "AGL_1(11), PSL_2(11), M_11, A_11, S_11"),),
    (13, 8): ((42, "PSL_3(3)"), (462, "A_13, S_13")),
    (13, 9): ((6, "PSL_3(3)"), (330, "A_13, S_13")),
    (13, 10): ((165, "A_13, S_13"),),
    (13, 11): ((55, "A_13, S_13"),),
    (16, 10): ((3003, "A_16, S_16"),),
    (16, 11): ((2002, "A_16, S_16"),),
    (16, 13): ((364, "A_16, S_16"),),
    (17, 11): ((5005, "A_17, S_17"),),
    (17, 13): ((1365, "A_17, S_17"),),
    (17, 16): ((15, "AGL_1(17), A_17, S_17, PSL_2(16):2^e with e <= 2"),),
    (19, 13): ((12376, "A_19, S_19"),),
    (19, 16): ((680, "A_19, S_19"),),
    (19, 17): ((136, "A_19, S_19"),),
    (21, 16): ((12, "PSL_3(4):e with e | 6"), (11628, "A_21, S_21")),
    (22, 15): ((80, "M_22"),
               (160, "M_22:2"),
               (560, "M_22, M_22:2, A_22, S_22"),
               (77520, "A_22, S_22")),
    (25, 19): ((100947, "A_25, S_25"),),
    (29, 22): ((888030, "A_29, S_29"),),
    (33, 25): ((7888725, "A_33, S_33"),),
}

# lambda0 options per inner parameter pair (v0, k0) for 3 <= k0 <= v0-2,
# with the point-primitive groups realizing them.  Repeated lambda0 values
# are distinct families with different groups.
INNER_DESIGNS: dict[tuple[int, int], tuple[tuple[int, str], ...]] = {
    (5, 3): ((3, "A_5, S_5"),),
    (6, 3): ((2, "A_5"), (4, "S_5, A_6, S_6")),
    (6, 4): ((6, "S_5, A_6, S_6"),),
    (7, 3): ((1, "7:3, PSL_2(7)"),
             (2, "AGL_1(7)"),
             (4, "PSL_2(7)"),
             (5, "A_7, S_7")),
    (7, 4): ((2, "PSL_2(7)"), (10, "A_7, S_7")),
    (8, 4): ((3, "AGL_1(8), AGammaL_1(8), AGL_3(2), PSL_2(7)"),
             (6, "PGL_2(7)"),
             (9, "PSL_2(7), PGL_2(7)"),
             (12, "AGL_3(2)"),
             (15, "A_8, S_8")),
    (9, 3): ((1, "G <= AGL_2(3)"),
             (6, "ASL_2(3), AGL_2(3)"),
             (7, "PSL_2(8), PGammaL_2(8), A_9, S_9")),
    (9, 5): ((35, "A_9, S_9"),),
    (10, 4): ((2, "S_5, A_6, S_6"),
              (4, "M_10, PGL_2(9), PGammaL_2(9)"),
              (24, "M_10, PGL_2(9), PGammaL_2(9)"),
              (28, "A_10, S_10")),
    (16, 4): ((1, "2^4:5 <= G <= AGammaL_2(4)"),
              (2, "2^4:(5:4), ASL_2(4), ASigmaL_2(4)"),
              (3, "AGL_1(16), AGL_1(16):2"),
              (3, "ASL_2(4), ASigmaL_2(4), ASp_4(2), AGammaSp_4(2)"),
              (4, "ASp_4(2)"),
              (6, "2^4:(15:4), AGL_2(4), AGammaL_2(4)"),
              (7, "2^4:A_7, AGL_4(2)"),
              (12, "2^4:(15:4)"),
              (12, "ASigmaL_2(4), ASp_4(2)"),
              (36, "AGammaL_2(4)"),
              (84, "2^4:A_7, AGL_4(2)"),
              (91, "A_16, S_16")),
}

# the lambda0 = 4 family on (16, 4) admits no symmetric member even though
# the divisibility arithmetic alone would allow mu = 16
_NEVER_SYMMETRIC = {(16, 4, 4)}


class ParamRow(NamedTuple):
    """One admissible family, with global parameters as multiples of mu.

    theta is kept as an explicit (numerator, denominator) pair: when the
    inner design is complete on k0 = v0 - 1 points the quotient of lambda
    by lambda0 is recorded without reduction, and the divisibility
    condition on mu follows that denominator.
    """

    v0: int
    k0: int
    lambda0: int
    r0: int
    b0: int
    theta: tuple[int, int]
    v1: int
    k1: int
    lambda1: int
    r1: int
    b1: int
    v: int
    k: int
    lambda_of_mu: Fraction
    r_of_mu: Fraction
    b_of_mu: Fraction
    mu_condition: int
    mu_s: int | None

    def _at(self, coefficient: Fraction, mu: int) -> int:
        value = coefficient * mu
        if value.denominator != 1:
            raise ValueError("mu=%d violates the condition mod %d" % (mu, self.mu_condition))
        return int(value)

    def lambda_at(self, mu: int) -> int:
        return self._at(self.lambda_of_mu, mu)

    def r_at(self, mu: int) -> int:
        return self._at(self.r_of_mu, mu)

    def b_at(self, mu: int) -> int:
        return self._at(self.b_of_mu, mu)

    def theta_at(self, mu: int) -> int:
        return self._at(Fraction(*self.theta), mu)


def _sort_key(row: ParamRow) -> tuple[int, int, int, int, int]:
    return (row.v0, row.k0, row.v1, row.lambda1, row.lambda0)


def complete_inner(v0: int, k0: int) -> bool:
    """Whether the inner design is the complete one on k0 = v0 - 1 >= 3 points."""
    return k0 == v0 - 1 and k0 >= 3


def _shape(row: ParamRow) -> int:
    """0 for k0 = 2, 1 for a complete inner design on k0 = v0 - 1 >= 3, else 2."""
    if row.k0 == 2:
        return 0
    return 1 if complete_inner(row.v0, row.k0) else 2


def make_row(v0: int, k0: int, lambda0: int,
             v1: int, k1: int, lambda1: int) -> ParamRow:
    """The family of an inner 2-(v0,k0,lambda0) and a quotient 2-(v1,k1,lambda1)."""
    r0 = lambda0 * (v0 - 1) // (k0 - 1)
    assert r0 * (k0 - 1) == lambda0 * (v0 - 1)
    b0 = v0 * r0 // k0
    assert b0 * k0 == v0 * r0
    num = lambda1 * (v1 - 1)
    if num % (k1 - 1):
        raise ValueError("lambda1=%d gives a non-integral r1" % lambda1)
    r1 = num // (k1 - 1)
    if (v1 * r1) % k1:
        raise ValueError("lambda1=%d gives a non-integral b1" % lambda1)
    b1 = v1 * r1 // k1
    v, k = v0 * v1, k0 * k1

    # both index relations between the layers, checked exactly
    assert (v - 1) * (k0 - 1) == (v0 - 1) * (k - 1)
    assert (v1 - 1) * v0 * (k0 - 1) == (k1 - 1) * k0 * (v0 - 1)

    lam = Fraction(lambda1 * k0 * k0, v0 * v0)
    r = Fraction(r1 * k0, v0)
    theta_num, theta_den = lam.numerator, lam.denominator * lambda0
    if not complete_inner(v0, k0):
        g = gcd(theta_num, theta_den)
        theta_num, theta_den = theta_num // g, theta_den // g
    condition = lcm(lam.denominator, r.denominator, theta_den)

    mu_s: int | None = None
    if v % b1 == 0 and (v // b1) % condition == 0:
        mu_s = v // b1
    if (v0, k0, lambda0) in _NEVER_SYMMETRIC:
        mu_s = None

    return ParamRow(v0, k0, lambda0, r0, b0, (theta_num, theta_den),
                    v1, k1, lambda1, r1, b1, v, k,
                    lam, r, Fraction(b1), condition, mu_s)


def all_rows(vmax: int = 100) -> list[ParamRow]:
    """Every admissible family with v < vmax, ordered by shape, then _sort_key."""
    if vmax > 100:
        raise ValueError("bound above 100 not supported")
    rows = []
    for v0 in range(3, (vmax - 1) // 2 + 1):
        for k0 in range(2, v0):
            for v1 in range(2, (vmax - 1) // v0 + 1):
                # a quotient no larger than a class needs a common factor of
                # v0 and k0.  The shapes with a complete inner design satisfy
                # this by arithmetic alone: an integral k1 forces (v0-1) | (v1-1)
                # for k0 = 2 and (v0-1)^2 | (v1-1) for k0 = v0-1, so v1 >= v0,
                # and v1 = v0 only for k0 = 2 with v0 even, where gcd = 2
                if v1 <= v0 and gcd(v0, k0) == 1:
                    continue
                k1, rem = divmod((v1 - 1) * v0 * (k0 - 1), k0 * (v0 - 1))
                k1 += 1
                if rem or not 2 <= k1 <= v1 - 1:
                    continue
                if k0 == 2:
                    lambda0s = [1]
                elif complete_inner(v0, k0):
                    lambda0s = [v0 - 2]
                else:
                    lambda0s = [lam for lam, _ in INNER_DESIGNS[(v0, k0)]]
                for lambda1, _ in QUOTIENT_DESIGNS[(v1, k1)]:
                    for lambda0 in lambda0s:
                        rows.append(make_row(v0, k0, lambda0, v1, k1, lambda1))
    rows.sort(key=lambda row: (_shape(row), _sort_key(row)))
    return rows


def symmetric_filter(rows: list[ParamRow]) -> list[ParamRow]:
    """The families that reach a symmetric design at mu = mu_s.

    Families with a complete inner design on k0 = v0 - 1 >= 3 points are
    dropped: no symmetric design arises there even when the divisibility
    arithmetic admits the value v/b1.
    """
    kept = []
    for row in rows:
        if row.mu_s is None:
            continue
        if complete_inner(row.v0, row.k0):
            continue
        assert row.b_at(row.mu_s) == row.v
        assert row.r_at(row.mu_s) == row.k
        lam = row.lambda_at(row.mu_s)
        assert lam * (row.v - 1) == row.k * (row.k - 1)
        kept.append(row)
    kept.sort(key=_sort_key)
    return kept


def cell(value: int | Fraction | tuple[int, int] | None) -> str:
    """One table cell: "-" for None, else n or n/d; a (num, den) pair stays unreduced."""
    if value is None:
        return "-"
    num, den = value if isinstance(value, tuple) else (value.numerator, value.denominator)
    return "%d" % num if den == 1 else "%d/%d" % (num, den)


def render_rows(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """A CSV text: the header line, then one line of cells per row."""
    return "\n".join([",".join(header)] + [",".join(map(cell, row)) for row in rows]) + "\n"


# ParamRow's fields, in order
MU_HEADER = tuple("v0 k0 lambda0 r0 b0 theta_mu v1 k1 lambda1 r1 b1 "
                  "v k lambda_mu r_mu b_mu mu_mod mu_s".split())
# the twelve columns of a Table 5 decomposition (decomp.CZDecomposition.fields)
TABLE5_COLUMNS = tuple("v0 k0 lambda0 r0 b0 theta v1 k1 lambda1 r1 b1 mu".split())
SYMMETRIC_HEADER = TABLE5_COLUMNS + ("v", "k", "lambda")


def render_csv(rows: list[ParamRow]) -> str:
    return render_rows(MU_HEADER, rows)


def render_symmetric_csv(rows: list[ParamRow]) -> str:
    values = []
    for r in rows:
        mu = r.mu_s
        assert mu is not None
        # the inner and quotient columns with theta at mu, then mu, v, k, lambda
        values.append(r[:5] + (r.theta_at(mu),) + r[6:11] + (mu, r.v, r.k, r.lambda_at(mu)))
    return render_rows(SYMMETRIC_HEADER, values)


def table_rows(vmax: int = 100) -> dict[str, list[ParamRow]]:
    """The three mu-parameterized tables plus the symmetric one, by name.

    The (16,4) families form their own table; the complete-inner rows are
    appended to the k0 = 2 table, matching the published layout.
    """
    rows = all_rows(vmax)
    middle = [r for r in rows if _shape(r) == 2]
    return {
        "table2": sorted((r for r in rows if _shape(r) < 2), key=_sort_key),
        "table3": [r for r in middle if (r.v0, r.k0) != (16, 4)],
        "table4": [r for r in middle if (r.v0, r.k0) == (16, 4)],
        "table5": symmetric_filter(rows),
    }


def render_table(name: str, vmax: int = 100) -> str:
    rows = table_rows(vmax)[name]
    return render_symmetric_csv(rows) if name == "table5" else render_csv(rows)
