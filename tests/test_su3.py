import hashlib
import itertools
import json
import math
import random
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from gfkit.exact import SR_ZERO, SqrtRational
from gfkit.su3 import (Su3Label, coupling_table, dim_su3,
                       su3_decompose_multfree, su3_euler_matrix,
                       su3_isoscalar, su3_state_keys, su3_wigner_multfree)
from gfkit.wigner import threej, threej_second_route_square
from oracles import (casimir_eigenvalue, casimir_matrix, coupled_vectors,
                     coupling_table_contraction)


def test_decompose_examples():
    assert su3_decompose_multfree(1, 1) == [(2, 0), (0, 1)]
    assert su3_decompose_multfree(3, 0) == [(3, 0)]
    assert su3_decompose_multfree(2, 1) == [(3, 0), (1, 1)]
    assert dim_su3(3, 0) + dim_su3(1, 1) == 10 + 8 == 6 * 3


def test_decompose_refuses_a_negative_lambda():
    # a negative lam labels no irrep: refused as coupling_table refuses it,
    # not answered with an empty decomposition
    for lam1, lam2 in ((-5, 3), (3, -1), (-1, -1)):
        with pytest.raises(ValueError):
            su3_decompose_multfree(lam1, lam2)
        with pytest.raises(ValueError):
            coupling_table(lam1, lam2, 0)
        with pytest.raises(ValueError):
            su3_isoscalar(lam1, lam2, lam1 + lam2, 0, (0, 0), (0, 0), (0, 0))


def test_dimension_sums():
    for lam1, lam2 in itertools.product(range(4), repeat=2):
        dims = sum(dim_su3(l3, m3) for l3, m3 in su3_decompose_multfree(lam1, lam2))
        assert dims == dim_su3(lam1, 0) * dim_su3(lam2, 0)


def test_state_enumeration():
    keys = su3_state_keys(1, 0)
    assert len(keys) == 3
    assert len(su3_state_keys(1, 1)) == 8
    lab = Su3Label.from_key(1, 0, keys[0])
    assert lab.key == keys[0]
    with pytest.raises(ValueError):
        Su3Label(1, 0, 0, 0, 1, 3, -2)


def test_orthonormality_1_over_dim():
    tab = coupling_table(1, 1, 1).complete()     # (1,0)x(1,0) -> (0,1)
    per3 = {}
    for (k1, k2, k3), w in tab.items():
        per3[k3] = per3.get(k3, Fraction(0)) + w.square()
    assert set(per3.values()) == {Fraction(1, 3)}
    assert len(per3) == dim_su3(0, 1)


def test_factorization_exact():
    for lam1, lam2 in itertools.product(range(4), repeat=2):
        for mu3 in range(min(lam1, lam2) + 1):
            lam3 = lam1 + lam2 - 2 * mu3
            tab = coupling_table(lam1, lam2, mu3).complete()
            for (k1, k2, k3), w in tab.items():
                tj = threej(k1[1], k2[1], k3[1], k1[2], k2[2], -k3[2])
                iso = su3_isoscalar(lam1, lam2, lam3, mu3, (k1[0], k1[1]),
                                    (k2[0], k2[1]), (k3[0], k3[1]))
                assert w == iso * tj
            # every other chain triple, the third chain taken from any irrep
            # of the decomposition, has isoscalar factor exactly 0
            chains = {(k1[:2], k2[:2], k3[:2]) for k1, k2, k3 in tab}
            for c1, c2, c3 in itertools.product(
                    {k[:2] for k in su3_state_keys(lam1, 0)},
                    {k[:2] for k in su3_state_keys(lam2, 0)},
                    {k[:2] for l3, m3 in su3_decompose_multfree(lam1, lam2)
                     for k in su3_state_keys(l3, m3)}):
                if (c1, c2, c3) not in chains:
                    assert su3_isoscalar(lam1, lam2, lam3, mu3, c1, c2, c3) == SR_ZERO
    # (2,0) x (1,0) -> (1,1): the t triangle (1, 0, 0) fails, and (y, 2t) =
    # (3, 3) lies in (3,0) but not in (1,1); the same chains with a valid
    # triangle, or in (3,0), give nonzero factors
    assert su3_isoscalar(2, 1, 1, 1, (2, 2), (-2, 0), (0, 0)) == SR_ZERO
    assert su3_isoscalar(2, 1, 1, 1, (2, 2), (-2, 0), (0, 2)) == SqrtRational(Fraction(-1, 2))
    assert su3_isoscalar(2, 1, 1, 1, (2, 2), (1, 1), (3, 3)) == SR_ZERO
    assert su3_isoscalar(2, 1, 3, 0, (2, 2), (1, 1), (3, 3)) == SqrtRational(1, Fraction(2, 5))
    # a first chain outside (2,0), and a hypercharge that does not add up
    assert su3_isoscalar(2, 1, 3, 0, (2, 0), (1, 1), (3, 1)) == SR_ZERO
    assert su3_isoscalar(2, 1, 3, 0, (2, 2), (1, 1), (0, 2)) == SR_ZERO


def test_isoscalars_cleared_with_their_table():
    # the isoscalar factors live in their coupling table's cache entry: a
    # clear drops them with the table, and the rebuilt ones are equal
    lam1, lam2, mu3 = 3, 2, 1
    lam3 = lam1 + lam2 - 2 * mu3
    coupling_table.cache_clear()
    chains = sorted({(k1[:2], k2[:2], k3[:2])
                     for k1, k2, k3 in coupling_table(lam1, lam2, mu3).complete()})
    first = [su3_isoscalar(lam1, lam2, lam3, mu3, *c) for c in chains]
    table = coupling_table(lam1, lam2, mu3)
    assert len(table.iso) == len(chains) and any(first)
    assert coupling_table.cache_info().misses == 1
    coupling_table.cache_clear()
    assert [su3_isoscalar(lam1, lam2, lam3, mu3, *c) for c in chains] == first
    assert coupling_table.cache_info().misses == 1
    assert coupling_table(lam1, lam2, mu3) is not table
    # a failed t triangle, (1, 0, 0), and a (lam3, mu3) = (2, 1) outside
    # (2,0) x (1,0) return zero before any table is built
    coupling_table.cache_clear()
    assert su3_isoscalar(2, 1, 1, 1, (2, 2), (-2, 0), (0, 0)) is SR_ZERO
    assert su3_isoscalar(2, 1, 2, 1, (2, 2), (-2, 0), (0, 2)) is SR_ZERO
    info = coupling_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_isoscalar_t0_independence():
    # wigner/3j is constant across all magnetic pairs of each chain
    tab = coupling_table(3, 2, 1).complete()
    seen = {}
    for (k1, k2, k3), w in tab.items():
        tj = threej(k1[1], k2[1], k3[1], k1[2], k2[2], -k3[2])
        if not tj:
            assert not w
            continue
        key = (k1[0], k1[1], k2[0], k2[1], k3[0], k3[1])
        r = w / tj
        assert seen.setdefault(key, r) == r


def test_trivial_coupling_structure():
    # coupling with (0,0): diagonal chains, |isoscalar| = sqrt((2t+1)/dim)
    lam = 2
    tab = coupling_table(lam, 0, 0).complete()
    dim = dim_su3(lam, 0)
    for (k1, k2, k3), w in tab.items():
        assert k2 == (0, 0, 0)
        assert k1 == k3
    for key in su3_state_keys(lam, 0):
        y, tt, _ = key
        iso = su3_isoscalar(lam, 0, lam, 0, (y, tt), (0, 0), (y, tt))
        assert iso.square() == Fraction(tt + 1, dim)


def test_wigner_multfree_api_and_selection_rules():
    keys1 = su3_state_keys(1, 0)
    a1 = Su3Label.from_key(1, 0, keys1[0])
    a2 = Su3Label.from_key(1, 0, keys1[1])
    k3 = (keys1[0][0] + keys1[1][0], None, keys1[0][2] + keys1[1][2])
    # pick a matching third state in (2,0)
    for key3 in su3_state_keys(2, 0):
        if key3[0] == k3[0] and key3[2] == k3[2]:
            a3 = Su3Label.from_key(2, 0, key3)
            break
    w, iso = su3_wigner_multfree(1, 1, 2, 0, a1, a2, a3)
    assert w and iso
    # wrong irrep in the decomposition -> exact zeros
    w0, iso0 = su3_wigner_multfree(1, 1, 4, 0, a1, a2,
                                   Su3Label.from_key(4, 0, su3_state_keys(4, 0)[0]))
    assert w0 == SR_ZERO and iso0 == SR_ZERO
    with pytest.raises(ValueError):
        bad = Su3Label.from_key(1, 1, su3_state_keys(1, 1)[0])
        su3_wigner_multfree(1, 1, 2, 0, bad, a2, a3)
    # a state of another irrep is refused, not read as a missing key
    other = Su3Label.from_key(2, 0, (2, 2, 2))
    for labels in ((other, a2, a3), (a1, other, a3), (a1, a2, a1)):
        with pytest.raises(ValueError):
            su3_wigner_multfree(1, 1, 2, 0, *labels)


def test_completeness_sum():
    # sum of wigner^2 over one coupling is 1; over the full decomposition it
    # counts the irreps
    for lam1, lam2 in ((1, 1), (2, 1), (3, 3)):
        total = Fraction(0)
        for lam3, mu3 in su3_decompose_multfree(lam1, lam2):
            tab = coupling_table(lam1, lam2, mu3).complete()
            s = sum(w.square() for w in tab.values())
            assert s == 1
            total += s
        assert total == min(lam1, lam2) + 1


def test_casimir_projection():
    # explicitly constructed product states project onto the couplings
    for lam1, lam2 in ((1, 1), (2, 1), (2, 2)):
        C, _ = casimir_matrix(lam1, lam2)
        for lam3, mu3 in su3_decompose_multfree(lam1, lam2):
            vecs, _ = coupled_vectors(lam1, lam2, mu3)
            ev = casimir_eigenvalue(lam3, mu3)
            for v in vecs.values():
                assert np.linalg.norm(C @ v - ev * v) < 1e-10
                assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_coupling_tables_match_contraction():
    # the closed form against the invariant-polynomial contraction: every
    # table with lam1 + lam2 <= 10 is equal, key set included, and the
    # isoscalar factors it holds are the contraction's stretched entries,
    # t01 = t1 and t02 = -t2, over their 3j
    for lam1 in range(11):
        for lam2 in range(11 - lam1):
            for mu3 in range(min(lam1, lam2) + 1):
                oracle = coupling_table_contraction(lam1, lam2, mu3)
                table = coupling_table(lam1, lam2, mu3).complete()
                assert table.keys() == oracle.keys() and table == oracle
                iso = {(k1[0], k1[1], k2[0], k2[1], k3[0], k3[1]):
                       w / threej(k1[1], k2[1], k3[1], k1[1], -k2[1], k2[1] - k1[1])
                       for (k1, k2, k3), w in oracle.items()
                       if k1[2] == k1[1] and k2[2] == -k2[1]}
                assert table.iso == iso


def test_entries_are_isoscalar_times_an_independent_threej():
    # Every entry of every table with lam1, lam2 <= 6 is its isoscalar factor
    # times 3j(t1 t2 t3; t01 t02 -t03), the 3j's sign and exact square taken
    # from threej_second_route_square, the defining CG sum, which shares
    # neither the Van der Waerden sum nor from_exponents with the table.
    # The table holds an entry exactly where the 3j of a chain triple with
    # an isoscalar factor is nonzero.
    threej_square = lru_cache(maxsize=None)(threej_second_route_square)
    for lam1 in range(7):
        for lam2 in range(7):
            for mu3 in range(min(lam1, lam2) + 1):
                table = coupling_table(lam1, lam2, mu3).complete()
                want = {}
                for (y1, tt1, y2, tt2, y3, tt3), iso in table.iso.items():
                    for tt01 in range(-tt1, tt1 + 1, 2):
                        for tt02 in range(-tt2, tt2 + 1, 2):
                            tt03 = tt01 + tt02
                            sign, sq = threej_square(tt1, tt2, tt3, tt01, tt02, -tt03)
                            if sign:
                                want[(y1, tt1, tt01), (y2, tt2, tt02), (y3, tt3, tt03)] = (
                                    (iso.coeff > 0) == (sign > 0), iso.square() * sq)
                assert {k: (w.coeff > 0, w.square()) for k, w in table.items()} == want, (
                    lam1, lam2, mu3)


@lru_cache(maxsize=None)
def _lowering(tt, tt0):
    """<t, t0 - 1| T- |t, t0> = sqrt((t + t0)(t - t0 + 1)), doubled labels."""
    return SqrtRational(1, Fraction((tt + tt0) * (tt - tt0 + 2), 4))


def test_coupled_states_beyond_the_oracle():
    # Every (lam1,0) x (lam2,0) with lam1 + lam2 in {11, 12}, beyond the
    # contraction oracle's range, where only half of each table is computed
    # and the rest is its 3j mirror.
    for total in (11, 12):
        for lam1 in range(total + 1):
            lam2 = total - lam1
            for lam3, mu3 in su3_decompose_multfree(lam1, lam2):
                vecs = {}        # key3 -> {(key1, key2): w}
                for (k1, k2, k3), w in coupling_table(lam1, lam2, mu3).complete().items():
                    vecs.setdefault(k3, {})[k1, k2] = w
                # Exact orthonormality: the sum over (key1, key2) of w w' is
                # 1/dim for a state with itself and 0 for two states with
                # the same (y3, 2t03); other pairs share no support.  A sum
                # of square roots is zero only if it is zero on every ray,
                # so products are summed per ray, keyed by their canonical
                # square-free radicand (sqrt(1/390) and sqrt(2/195) lie on
                # the ray of sqrt(390)).
                norm = Fraction(1, dim_su3(lam3, mu3))
                by_weight = {}
                for (y3, tt3, tt03), v in vecs.items():
                    by_weight.setdefault((y3, tt03), []).append(v)
                for group in by_weight.values():
                    for i, va in enumerate(group):
                        assert sum(w.square() for w in va.values()) == norm
                        for vb in group[i + 1:]:
                            rays = {}
                            for k, w in va.items():
                                if k in vb:
                                    prod = w * vb[k]
                                    rays[prod.radicand] = rays.get(prod.radicand, SR_ZERO) + prod
                            assert not any(rays.values()), (lam1, lam2, mu3)
                # Orthonormality cannot see a sign shared by a whole state,
                # nor one that depends on (key1, key2) alone, so it misses
                # most mirror-phase errors.  The isospin lowering operator
                # T- = T-(1) + T-(2) links the computed half to the mirrored
                # one: from 2t03 = 0 or 1 it must give -<T-> times the state
                # at 2t03 - 2 (the minus is the 3j's (-1)^(t1-t2+t03)).
                for (y3, tt3, tt03), v in vecs.items():
                    if tt03 not in (0, 1):
                        continue
                    lowered = {}
                    for ((y1, p1, a), (y2, p2, b)), w in v.items():
                        if a > -p1:
                            k = (y1, p1, a - 2), (y2, p2, b)
                            lowered[k] = lowered.get(k, SR_ZERO) + w * _lowering(p1, a)
                        if b > -p2:
                            k = (y1, p1, a), (y2, p2, b - 2)
                            lowered[k] = lowered.get(k, SR_ZERO) + w * _lowering(p2, b)
                    c = _lowering(tt3, tt03)
                    below = vecs.get((y3, tt3, tt03 - 2), {})
                    assert ({k: w for k, w in lowered.items() if w}
                            == {k: -(c * w) for k, w in below.items()}), (lam1, lam2, mu3)


def test_coupling_table_under_threads():
    # four threads clear the cache and build the same tables, more than the
    # cache holds, in their own seeded orders: every table equals the one
    # built in a single thread, isoscalar factors included, and the cache
    # stays bounded
    labels = [(a, b, mu3) for a in range(6) for b in range(6) for mu3 in range(min(a, b) + 1)]
    coupling_table.cache_clear()
    expected = {lab: coupling_table(*lab).complete() for lab in labels}
    n_threads = 4
    got = [{} for _ in range(n_threads)]
    sizes = []

    def work(i):
        order = labels[:]
        random.Random(i).shuffle(order)
        coupling_table.cache_clear()
        for lab in order:
            got[i][lab] = coupling_table(*lab).complete()
        sizes.append(coupling_table.cache_info().currsize)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(labels) > coupling_table.cache_info().maxsize
    for tables in got:
        assert tables.keys() == expected.keys()
        for lab, table in tables.items():
            assert table == expected[lab] and table.iso == expected[lab].iso, lab
    assert len(sizes) == n_threads and max(sizes) <= 64
    assert coupling_table.cache_info().currsize <= 64


def _labelled_couplings(lam1, lam2, mu3):
    """Su3Label triples of every coupling (lam1,0) x (lam2,0) -> (lam3, mu3)
    with y3 = y1 + y2 and 2t03 = 2t01 + 2t02, failed t triangles included."""
    lam3 = lam1 + lam2 - 2 * mu3
    keys1, keys2 = su3_state_keys(lam1, 0), su3_state_keys(lam2, 0)
    return [(Su3Label.from_key(lam1, 0, k1), Su3Label.from_key(lam2, 0, k2),
             Su3Label.from_key(lam3, mu3, k3))
            for k3 in su3_state_keys(lam3, mu3) for k1 in keys1 for k2 in keys2
            if k1[0] + k2[0] == k3[0] and k1[2] + k2[2] == k3[2]]


def _expected(full, a1, a2, a3):
    return (full.get((a1.key, a2.key, a3.key), SR_ZERO),
            full.iso.get((a1.y, a1.two_t, a2.y, a2.two_t, a3.y, a3.two_t), SR_ZERO))


def test_single_queries_equal_the_completed_table():
    # From a cleared cache, every coupling of every table with lam1, lam2 <= 6
    # is queried through su3_wigner_multfree and every chain triple through
    # su3_isoscalar, in seeded random order, each filling only its own
    # block: every answer equals the completed table's, and the table left
    # behind equals a completed one, isoscalar factors included.  Each
    # Wigner answer is also its isoscalar factor times an SU(2) 3j, which
    # does not go through the table, so a block that drops entries from
    # both routes (its mirrors, say) fails here too.
    rng = random.Random(27)
    for lam1 in range(7):
        for lam2 in range(7):
            for mu3 in range(min(lam1, lam2) + 1):
                lam3 = lam1 + lam2 - 2 * mu3
                coupling_table.cache_clear()
                full = coupling_table(lam1, lam2, mu3).complete()
                coupling_table.cache_clear()
                queries = [("w", labels) for labels in _labelled_couplings(lam1, lam2, mu3)]
                queries += [("iso", chains) for chains in itertools.product(
                    sorted({k[:2] for k in su3_state_keys(lam1, 0)}),
                    sorted({k[:2] for k in su3_state_keys(lam2, 0)}),
                    sorted({k[:2] for k in su3_state_keys(lam3, mu3)}))]
                rng.shuffle(queries)
                for kind, q in queries:
                    if kind == "w":
                        w, iso = su3_wigner_multfree(lam1, lam2, lam3, mu3, *q)
                        assert (w, iso) == _expected(full, *q), (lam1, lam2, mu3, q)
                        a1, a2, a3 = q
                        assert w == iso * threej(a1.two_t, a2.two_t, a3.two_t, a1.two_t0,
                                                 a2.two_t0, -a3.two_t0), (lam1, lam2, mu3, q)
                    else:
                        assert su3_isoscalar(lam1, lam2, lam3, mu3, *q) == full.iso.get(
                            q[0] + q[1] + q[2], SR_ZERO), (lam1, lam2, mu3, q)
                left = coupling_table(lam1, lam2, mu3)
                assert left is not full and left == full and left.iso == full.iso
                assert left.filled == full.filled, (lam1, lam2, mu3)


def test_block_fills_under_threads():
    # Four threads, started together, query one cleared table,
    # lam1 + lam2 = 12, each over every coupling in its own seeded order,
    # while the others fill its blocks: every answer equals the completed
    # table's, so no query reads a block another thread is still filling
    # as a zero.  The threads take the blocks in one shared seeded order,
    # each block's couplings in the thread's own, so that they meet in the
    # same block; in independent orders a block marked filled before it is
    # written gave about one wrong answer a run, here dozens.
    lam1, lam2, mu3 = 6, 6, 2
    lam3 = lam1 + lam2 - 2 * mu3
    coupling_table.cache_clear()
    full = coupling_table(lam1, lam2, mu3).complete()
    couplings = _labelled_couplings(lam1, lam2, mu3)
    expected = [_expected(full, *labels) for labels in couplings]
    by_block = {}
    for k, (a1, a2, a3) in enumerate(couplings):
        block = (a1.two_t, a2.two_t, (a1.two_t + a2.two_t - a3.two_t) // 2)
        by_block.setdefault(block, []).append(k)
    blocks = sorted(by_block)
    random.Random(27).shuffle(blocks)
    n_threads = 4
    wrong = [[] for _ in range(n_threads)]

    def work(i):
        rng, order = random.Random(i), []
        for block in blocks:
            ks = by_block[block][:]
            rng.shuffle(ks)
            order += ks
        start.wait()
        for k in order:
            if su3_wigner_multfree(lam1, lam2, lam3, mu3, *couplings[k]) != expected[k]:
                wrong[i].append(k)

    coupling_table.cache_clear()
    table = coupling_table(lam1, lam2, mu3)
    start = threading.Barrier(n_threads)
    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [[]] * n_threads
    assert coupling_table(lam1, lam2, mu3) is table
    assert table == full and table.iso == full.iso and table.filled == full.filled


def test_queries_fill_only_their_own_block():
    # (2,0) x (1,0) -> (1,1): a query fills the one block of its chains,
    # and one that fails the t triangle (2t = 2, 0, 0), or has
    # y3 != y1 + y2, fills none.  2t0 that do not add up give a zero
    # coefficient but the chains' isoscalar factor, so they fill the block
    # too.  complete() then fills the rest.
    coupling_table.cache_clear()
    table = coupling_table(2, 1, 1)
    assert not table and not table.filled
    a1, a2 = Su3Label.from_key(2, 0, (2, 2, 0)), Su3Label.from_key(1, 0, (-2, 0, 0))
    for a3 in (Su3Label.from_key(1, 1, (0, 0, 0)), Su3Label.from_key(1, 1, (3, 1, 1))):
        assert su3_wigner_multfree(2, 1, 1, 1, a1, a2, a3) == (SR_ZERO, SR_ZERO)
    assert su3_isoscalar(2, 1, 1, 1, (2, 2), (-2, 0), (3, 2)) == SR_ZERO
    assert not table and not table.filled and not table.iso
    half = SqrtRational(Fraction(-1, 2))
    a3 = Su3Label.from_key(1, 1, (0, 2, 2))
    assert su3_wigner_multfree(2, 1, 1, 1, a1, a2, a3) == (SR_ZERO, half)
    assert table.filled == {(2, 0, 0)} and len(table.iso) == 1
    w, iso = su3_wigner_multfree(2, 1, 1, 1, a1, a2, Su3Label.from_key(1, 1, (0, 2, 0)))
    assert w and iso == half and table.filled == {(2, 0, 0)}
    assert table.complete() is table and len(table.filled) > 1
    coupling_table.cache_clear()


def test_euler_matrix():
    U = su3_euler_matrix((0.0, 0.0, 0.0), 0.0, 0.0, (0.0, 0.0, 0.0))
    assert np.allclose(U, np.eye(3))
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(-math.pi, math.pi, 3)
        b = rng.uniform(-math.pi, math.pi, 3)
        nu3 = rng.uniform(0, math.pi)
        beta3 = rng.uniform(0, math.pi)
        U = su3_euler_matrix(tuple(a), nu3, beta3, tuple(b))
        assert np.linalg.norm(U.conj().T @ U - np.eye(3)) < 1e-14
        assert abs(np.linalg.det(U) - 1) < 1e-14


DIGESTS = Path(__file__).parent / "data" / "su3_table_digests.json"


def digest_labels():
    """Every (lam1, lam2, mu3) with lam1, lam2 <= 5, plus the pairs with
    lam <= 6 and lam1 + lam2 <= 8 (the su3-table benchmark pairs)."""
    pairs = {(a, b) for a in range(7) for b in range(7)
             if max(a, b) <= 5 or a + b <= 8}
    return [(a, b, mu3) for a, b in sorted(pairs) for mu3 in range(min(a, b) + 1)]


def table_digest(lam1, lam2, mu3):
    entries = sorted([list(k1), list(k2), list(k3), str(w)]
                     for (k1, k2, k3), w in coupling_table(lam1, lam2, mu3).complete().items())
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


def digest_record():
    return {f"{a} {b} {mu3}": table_digest(a, b, mu3) for a, b, mu3 in digest_labels()}


def test_coupling_tables_match_digests():
    # One sha256 per coupling table, as recorded in
    # tests/data/su3_table_digests.json; regenerate it (run this file as a
    # script) only for an intended change of the tables.
    assert digest_record() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digest_record(), indent=1) + "\n")
