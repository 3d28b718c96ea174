import itertools
from fractions import Fraction

import pytest

from gfkit.polytools import bargmann_dot, poly_add, poly_mul
from gfkit.unitary import (BfrTable, GelfandPattern, IrrepLabel, _kernel_terms,
                           bfr_phi, bfr_generating_terms, boson_polynomial,
                           gelfand_enumerate, pattern_weight, pn1,
                           weyl_dimension)
from oracles import (highest_pattern, kernel_terms_expanded, pn1_oracle, poly_pow,
                     u3_hypergeometric_terms)


def test_enumeration_counts():
    assert len(gelfand_enumerate(IrrepLabel((1, 0)))) == 2
    assert len(gelfand_enumerate(IrrepLabel((2, 1, 0)))) == 8
    assert len(gelfand_enumerate(IrrepLabel((1, 0, 0, 0)))) == 4


def test_weyl_examples():
    assert weyl_dimension(IrrepLabel((0, 0, 0))) == 1
    assert weyl_dimension(IrrepLabel((1, 0, 0))) == 3
    assert weyl_dimension(IrrepLabel((2, 1, 0))) == 8


def test_count_equals_weyl_small():
    for n in range(2, 6):
        for h in itertools.combinations_with_replacement(range(4, -1, -1), n):
            if sum(h) > 6 or list(h) != sorted(h, reverse=True):
                continue
            lab = IrrepLabel(h)
            pats = gelfand_enumerate(lab)
            assert len(pats) == weyl_dimension(lab)
            # lexicographic by row tuples, as the recursion yields them
            assert pats == sorted(pats, key=lambda p: p.rows)


def test_pattern_weights():
    lab = IrrepLabel((2, 1, 0))
    assert pattern_weight(highest_pattern(lab)) == (2, 1, 0)
    pats = gelfand_enumerate(lab)
    weights = [pattern_weight(p) for p in pats]
    assert min(weights) == (0, 1, 2)
    for p in pats:
        assert sum(pattern_weight(p)) == 3
    # weight multiset of U(3) irrep is permutation symmetric
    from collections import Counter
    cnt = Counter(weights)
    for w, c in cnt.items():
        for perm in itertools.permutations(w):
            assert cnt[perm] == c
    # U(2) fundamental
    for p in gelfand_enumerate(IrrepLabel((1, 0))):
        assert pattern_weight(p) in ((1, 0), (0, 1))


def test_betweenness_enforced():
    with pytest.raises(ValueError):
        GelfandPattern(((2, 0), (3,)))


def test_pattern_text_roundtrip():
    p = GelfandPattern(((2, 1, 0), (2, 1), (1,)))
    assert p.to_text() == "2 1 0 / 2 1 / 1"
    assert GelfandPattern.from_text(p.to_text()) == p


def test_bfr_examples():
    assert str(bfr_phi(BfrTable((1, 0)))) == "y(2,1)"
    assert str(bfr_phi(BfrTable((1, 0, 1, 0)))) == "y(2,1)*x(3,2)*y(4,2)"
    assert str(bfr_phi(BfrTable((1, 1, 1, 0)))) == "y(4,3)"


# reference generating-function tables: minor rows -> parameter monomial
U4_TERMS = {
    (1,): "y(2,1)*y(3,1)*y(4,1)",
    (2,): "x(2,1)*y(3,1)*y(4,1)",
    (3,): "x(3,1)*y(4,1)",
    (4,): "x(4,1)",
    (1, 3): "y(2,1)*x(3,2)*y(4,2)",
    (2, 3): "x(2,1)*x(3,2)*y(4,2)",
    (1, 2): "y(3,2)*y(4,2)",
    (1, 4): "y(2,1)*y(3,1)*x(4,2)",
    (2, 4): "x(2,1)*y(3,1)*x(4,2)",
    (3, 4): "x(3,1)*x(4,2)",
    (1, 3, 4): "y(2,1)*x(3,2)*x(4,3)",
    (2, 3, 4): "x(2,1)*x(3,2)*x(4,3)",
    (1, 2, 4): "y(3,2)*x(4,3)",
    (1, 2, 3): "y(4,3)",
    (1, 2, 3, 4): "y(4,4)",
}

U5_TERMS = {
    (1,): "y(2,1)*y(3,1)*y(4,1)*y(5,1)",
    (2,): "x(2,1)*y(3,1)*y(4,1)*y(5,1)",
    (3,): "x(3,1)*y(4,1)*y(5,1)",
    (4,): "x(4,1)*y(5,1)",
    (5,): "x(5,1)",
    (1, 5): "y(2,1)*y(3,1)*y(4,1)*x(5,2)",
    (2, 5): "x(2,1)*y(3,1)*y(4,1)*x(5,2)",
    (3, 5): "x(3,1)*y(4,1)*x(5,2)",
    (4, 5): "x(4,1)*x(5,2)",
    (1, 3): "y(2,1)*x(3,2)*y(4,2)*y(5,2)",
    (2, 3): "x(2,1)*x(3,2)*y(4,2)*y(5,2)",
    (1, 2): "y(3,2)*y(4,2)*y(5,2)",
    (1, 4): "y(2,1)*y(3,1)*x(4,2)*y(5,2)",
    (2, 4): "x(2,1)*y(3,1)*x(4,2)*y(5,2)",
    (3, 4): "x(3,1)*x(4,2)*y(5,2)",
    (1, 3, 5): "y(2,1)*x(3,2)*y(4,2)*x(5,3)",
    (2, 3, 5): "x(2,1)*x(3,2)*y(4,2)*x(5,3)",
    (1, 2, 5): "y(3,2)*y(4,2)*x(5,3)",
    (1, 4, 5): "y(2,1)*y(3,1)*x(4,2)*x(5,3)",
    (2, 4, 5): "x(2,1)*y(3,1)*x(4,2)*x(5,3)",
    (3, 4, 5): "x(3,1)*x(4,2)*x(5,3)",
    (1, 3, 4, 5): "y(2,1)*x(3,2)*x(4,3)*x(5,4)",
    (2, 3, 4, 5): "x(2,1)*x(3,2)*x(4,3)*x(5,4)",
    (1, 2, 4, 5): "y(3,2)*x(4,3)*x(5,4)",
    (1, 2, 3, 5): "y(4,3)*x(5,4)",
    (1, 3, 4): "y(2,1)*x(3,2)*x(4,3)*y(5,3)",
    (2, 3, 4): "x(2,1)*x(3,2)*x(4,3)*y(5,3)",
    (1, 2, 4): "y(3,2)*x(4,3)*y(5,3)",
    (1, 2, 3): "y(4,3)*y(5,3)",
    (1, 2, 3, 4): "y(5,4)",
    # full determinant minor follows the same all-ones rule
    (1, 2, 3, 4, 5): "y(5,5)",
}


def test_bfr_regenerates_u4_u5_term_for_term():
    got4 = {rows: str(mono) for rows, mono in bfr_generating_terms(4)}
    assert got4 == U4_TERMS
    assert len(got4) == 15
    got5 = {rows: str(mono) for rows, mono in bfr_generating_terms(5)}
    assert got5 == U5_TERMS
    assert len(got5) == 31


def test_pn1_examples():
    pat = GelfandPattern(((2, 0, 0), (2, 0), (1,)))
    assert pn1(pat) == 2              # C(2,1)
    pat4 = GelfandPattern(((1, 1, 0, 0), (1, 0, 0), (0, 0), (0,)))
    # all L = R = 0 at the top levels gives small binomials; compare oracle
    assert pn1(pat4) == pn1_oracle(4, pat4)
    with pytest.raises(ValueError):
        pn1(GelfandPattern(((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0),
                            (0, 0, 0), (0, 0), (0,))))


def test_pn1_trivial_all_zero_hooks():
    pat = GelfandPattern(((1, 1, 1, 1), (1, 1, 1), (1, 1), (1,)))
    assert pn1(pat) == 1
    assert pn1(GelfandPattern(((2, 0), (1,)))) == 1


def test_pn1_oracle_agreement():
    for top in ((2, 1, 0), (3, 1, 0), (2, 2, 1)):
        for pat in gelfand_enumerate(IrrepLabel(top)):
            assert pn1(pat) == pn1_oracle(3, pat)
    for top in ((2, 1, 0, 0), (2, 1, 1, 0), (2, 2, 1, 0)):
        for pat in gelfand_enumerate(IrrepLabel(top)):
            assert pn1(pat) == pn1_oracle(4, pat)
    for top in ((1, 1, 0, 0, 0), (2, 1, 0, 0, 0)):
        for pat in gelfand_enumerate(IrrepLabel(top)):
            assert pn1(pat) == pn1_oracle(5, pat)


def test_u3_boson_polynomial_examples():
    pat = GelfandPattern(((2, 0, 0), (2, 0), (2,)))
    assert boson_polynomial(pat) == [(1, {(1,): 2})]
    pat = GelfandPattern(((2, 1, 0), (2, 0), (1,)))
    terms = boson_polynomial(pat)
    assert len(terms) == 2
    assert all(c == 1 for c, _ in terms)
    assert sorted(tuple(sorted(e.items())) for _, e in terms) == [
        (((1,), 1), ((2, 3), 1)), (((1, 3), 1), ((2,), 1))]


def test_boson_polynomial_refuses_a_negative_entry():
    # the kernel would raise a bracket to the power h33 = -1
    with pytest.raises(ValueError):
        boson_polynomial(GelfandPattern(((1, 0, -1), (0, 0), (0,))))


def test_u3_unit_substitution_is_p3():
    for top in ((2, 1, 0), (3, 2, 1), (2, 2, 0)):
        for pat in gelfand_enumerate(IrrepLabel(top)):
            terms = boson_polynomial(pat)
            assert sum(c for c, _ in terms) == pn1(pat)


def test_u4_boson_polynomial_examples():
    pat = GelfandPattern(((1, 0, 0, 0), (1, 0, 0), (1, 0), (1,)))
    assert boson_polynomial(pat) == [(1, {(1,): 1})]
    pat = GelfandPattern(((1, 1, 0, 0), (1, 1, 0), (1, 1), (1,)))
    assert boson_polynomial(pat) == [(1, {(1, 2): 1})]


def test_u4_unit_substitution_is_p4():
    # and U(5), the last n that pn1's closed form covers
    for top in ((2, 1, 0, 0), (2, 1, 1, 0), (2, 2, 1, 0),
                (2, 1, 0, 0, 0), (2, 1, 1, 0, 0), (2, 2, 1, 1, 0), (3, 2, 1, 0, 0)):
        for pat in gelfand_enumerate(IrrepLabel(top)):
            terms = boson_polynomial(pat)
            assert sum(c for c, _ in terms) == pn1(pat)
            # every exponent solution respects the minor degree constraints:
            # a minor of k rows has degree k
            for _, expo in terms:
                assert sum(len(rows) * e for rows, e in expo.items()) == sum(top)


def test_boson_polynomial_for_every_n():
    with pytest.raises(ValueError):
        boson_polynomial(GelfandPattern(((3,),)))
    # U(2): D1^(h11-h22) D2^(h12-h11) D12^h22
    assert boson_polynomial(GelfandPattern(((3, 1), (2,)))) == [
        (1, {(1,): 1, (2,): 1, (1, 2): 1})]
    # a highest pattern of U(7) is one product of the leading minors
    pat = highest_pattern(IrrepLabel((3, 2, 2, 1, 0, 0, 0)))
    assert boson_polynomial(pat) == [(1, {(1,): 1, (1, 2, 3): 1, (1, 2, 3, 4): 1})]


def _kernel_corpus():
    """Every pattern with n = 2 and top-row sum <= 12, n = 3 and <= 8,
    n = 4 and <= 5, n = 5 and <= 3, and n = 6 and <= 2."""
    for n, most in ((2, 12), (3, 8), (4, 5), (5, 3), (6, 2)):
        for top in itertools.combinations_with_replacement(range(most, -1, -1), n):
            if sum(top) <= most:
                yield from gelfand_enumerate(IrrepLabel(top))


def test_kernel_matches_the_full_expansion():
    # the pruned product drops only terms that cannot reach the target
    pats = list(_kernel_corpus())
    assert len(pats) == 1594
    for pat in pats:
        assert _kernel_terms(pat) == kernel_terms_expanded(pat), pat.to_text()


def test_u3_hypergeometric_crosscheck():
    # 6.3-style term list is proportional, term by term, to the 2F1 form
    for rows in (((2, 1, 0), (2, 0), (1,)), ((3, 1, 0), (2, 1), (2,)),
                 ((2, 2, 0), (2, 1), (1,))):
        pat = GelfandPattern(rows)
        a = {tuple(sorted(e.items())): Fraction(c) for c, e in boson_polynomial(pat)}
        b = {tuple(sorted(e.items())): Fraction(c) for c, e in u3_hypergeometric_terms(pat)}
        assert set(a) == set(b)
        ratios = {a[k] / b[k] for k in a}
        assert len(ratios) == 1


def test_u3_hypergeometric_terms_run_to_the_end():
    # the series ends where b + k = h11 - h12 + k reaches 0: k runs 10..210
    pat = GelfandPattern(((500, 250, 0), (450, 20), (240,)))
    terms = u3_hypergeometric_terms(pat)
    assert len(terms) == 201
    assert [e[(2, 3)] for _, e in terms] == list(range(10, 211))


def _minor_polys(n):
    """Each minor of the n x n matrix z (the given rows, columns 1..k) as an
    exact polynomial in the n^2 z_ij, variable n(i-1) + (j-1)."""
    out = {}
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(1, n + 1), k):
            det = {}
            for perm in itertools.permutations(range(k)):
                inv = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
                e = [0] * n * n
                for col, r in enumerate(perm):
                    e[n * (rows[r] - 1) + col] += 1
                det[tuple(e)] = (-1) ** inv
            out[rows] = det
    return out


# The pairs of patterns whose kernel polynomials are not orthogonal, with
# their Fock-Bargmann product.  For n >= 4 the kernel's polynomial is not
# always a pure Gel'fand state: for 2 1 1 0 / 2 1 0 / 1 1 / 1 it is
# D3 D124, which holds a part of the U(3) irrep (1,1,1) that
# 2 1 1 0 / 1 1 1 / 1 1 / 1, D4 D123, spans.  A known defect of the
# construction, pinned so that any change to it shows.
_NOT_ORTHOGONAL = {
    ("2 1 1 0 / 1 1 1 / 1 1 / 1", "2 1 1 0 / 2 1 0 / 1 1 / 1"): 2,
    ("2 1 1 1 0 / 1 1 1 1 / 1 1 1 / 1 1 / 1", "2 1 1 1 0 / 2 1 1 0 / 1 1 1 / 1 1 / 1"): 6,
    ("2 1 1 1 0 / 1 1 1 1 / 1 1 1 / 1 1 / 1", "2 1 1 1 0 / 2 1 1 0 / 2 1 0 / 1 1 / 1"): -6,
    ("2 1 1 1 0 / 2 1 1 0 / 1 1 1 / 1 1 / 1", "2 1 1 1 0 / 2 1 1 0 / 2 1 0 / 1 1 / 1"): 6,
}


def test_u3_orthogonality_exact():
    # distinct patterns of one irrep are orthogonal under the Gaussian
    # measure with E|z_ij|^2 = 1, which is the Fock-Bargmann product: every
    # off-diagonal product is exactly 0, but for the pinned pairs above, and
    # every norm is positive; for U(3), U(4) and U(5)
    seen = {}
    for n, tops in ((3, ((2, 1, 0), (3, 1, 0), (2, 2, 1), (3, 2, 0), (4, 2, 1),
                         (4, 2, 0), (5, 3, 0))),
                    (4, ((2, 1, 0, 0), (2, 1, 1, 0), (2, 2, 1, 0), (3, 1, 0, 0))),
                    (5, ((1, 1, 0, 0, 0), (2, 1, 0, 0, 0), (2, 1, 1, 1, 0)))):
        minors = _minor_polys(n)
        for top in tops:
            polys = []
            for pat in gelfand_enumerate(IrrepLabel(top)):
                p = {}
                for c, expo in boson_polynomial(pat):
                    term = {(0,) * n * n: c}
                    for rows, e in expo.items():
                        term = poly_mul(term, poly_pow(minors[rows], e, n * n))
                    p = poly_add(p, term)
                polys.append((pat.to_text(), p))
            for i, (name, a) in enumerate(polys):
                assert bargmann_dot(a, a) > 0
                for other, b in polys[i + 1:]:
                    seen[name, other] = bargmann_dot(a, b)
    assert {k: v for k, v in seen.items() if v} == _NOT_ORTHOGONAL
