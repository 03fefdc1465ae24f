"""Tests for the exact shape arithmetic and the index bounds."""

from fractions import Fraction

import numpy as np
import pytest

from abindex import jordan_bounds as jb
from abindex.errors import InvalidInput


def lam(a, b):
    return jb.lambda_of(jb.shape(a, b))


def test_shape_rejects_zero_areas():
    with pytest.raises(InvalidInput, match="both areas must be nonzero"):
        jb.shape(0, 1)
    with pytest.raises(InvalidInput, match="both areas must be nonzero"):
        jb.shape(1, 0)


def test_parse_rational():
    assert jb.parse_rational("7/2") == Fraction(7, 2)
    assert jb.parse_rational("-3") == Fraction(-3)


def test_lambda_basic_values():
    assert lam(1, 1) == 1
    assert lam(5, 1) == 8
    assert lam(4, 1) == 6  # the strict-inequality boundary
    assert lam(Fraction(3, 2), 1) == 2
    assert lam(1, 4) == 1
    assert lam(100, 1) == 198
    assert lam(101, 1) == 200


def test_lambda_sign_and_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 12)))
        b = Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 12)))
        t = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        base = lam(a, b)
        assert lam(-a, b) == base
        assert lam(a, -b) == base
        assert lam(t * a, t * b) == base
        assert lam(-t * a, -t * b) == base


def test_lambda_even_above_one():
    for num in range(1, 80):
        v = lam(Fraction(num, 7), 1)
        assert v == 1 or v % 2 == 0


def test_jordan_bound_and_crossover():
    assert jb.jordan_bound(jb.shape(1, 1)) == 144  # lambda 1
    assert jb.jordan_bound(jb.shape(Fraction(25, 2), 1)) == 144  # lambda 24
    assert jb.jordan_bound(jb.shape(Fraction(27, 2), 1)) == 156  # lambda 26
    for num in range(1, 200):
        s = jb.shape(Fraction(num, 3), 1)
        lv = jb.lambda_of(s)
        bound = jb.jordan_bound(s)
        assert bound >= 144
        assert (bound == 144) == (lv <= 24)
        if lv >= 24:
            assert bound == max(144, 6 * lv)


def test_p_admissibility():
    assert jb.nonabelian_p_admissible(jb.shape(Fraction(11, 2), 1), 5).admissible  # lambda 10
    assert not jb.nonabelian_p_admissible(jb.shape(5, 1), 5).admissible  # lambda 8
    res = jb.nonabelian_p_admissible(jb.shape(7, 1), 7)  # lambda 12 < 14
    assert res.lam == 12 and not res.admissible
    ok = jb.nonabelian_p_admissible(jb.shape(13, 1), 5)  # lambda 24
    assert ok.admissible
    assert ok.witness_group == "Gamma_10"
    assert "X^5" in ok.witness_presentation and "[X,Y]=Z" in ok.witness_presentation


def test_p_admissibility_guards():
    with pytest.raises(InvalidInput, match="primes above 3"):
        jb.nonabelian_p_admissible(jb.shape(100, 1), 3)
    with pytest.raises(ValueError):
        jb.nonabelian_p_admissible(jb.shape(100, 1), 6)


def test_admissibility_consistent_with_degrees():
    for num in range(1, 100):
        s = jb.shape(Fraction(num, 4), 1)
        degrees = set(jb.admissible_fixed_surface_degrees(s))
        for p in (5, 7, 11):
            adm = 2 * p <= jb.lambda_of(s)
            assert adm == (2 * p in degrees)


def test_degree_lists():
    assert jb.admissible_fixed_surface_degrees(jb.shape(1, 1)) == [0]
    assert jb.admissible_fixed_surface_degrees(jb.shape(1, 4)) == [0]
    assert jb.admissible_fixed_surface_degrees(jb.shape(5, 1)) == list(range(-8, 9, 2))


def test_degrees_symmetric_and_contain_zero():
    rng = np.random.default_rng(1)
    for _ in range(200):
        s = jb.shape(Fraction(int(rng.integers(1, 99)), int(rng.integers(1, 9))),
                     Fraction(int(rng.integers(1, 9))))
        ds = jb.admissible_fixed_surface_degrees(s)
        assert 0 in ds
        assert sorted(-d for d in ds) == ds
