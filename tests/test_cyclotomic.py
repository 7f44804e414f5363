"""Exact cyclotomic arithmetic: canonical form, Galois action, conductors."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import count, islice
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime as sympy_isprime
from sympy import jacobi_symbol
from sympy import nextprime, primerange
from sympy.ntheory.primetest import is_strong_lucas_prp

import heightzero
from heightzero.cyclotomic import (
    _MR_BOUND,
    CycElt,
    _jacobi,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    isprime,
    nu_p,
    sigma_unit,
    subgroup_closure,
    unit_generators,
    zero,
    zumbroich_exponents,
)
from oracles import conductor_of_element, rational, root_of_unity, sigma_e


# ---------------------------------------------------------------------------
# canonical basis


def test_basis_of_q12_matches_known_convention():
    # the canonical integral basis of Q(zeta_12) is {z^4, z^7, z^8, z^11}
    assert zumbroich_exponents(12) == (4, 7, 8, 11)


def test_basis_sizes_are_euler_phi():
    from heightzero.cyclotomic import _euler_phi

    for n in range(1, 60):
        assert len(zumbroich_exponents(n)) == _euler_phi(n)


def test_zeta12_reduces_out_of_basis():
    # zeta_12 itself is not a basis element: zeta_12 = -zeta_12^7
    x = root_of_unity(12, 1)
    assert set(x.terms) == {7}
    assert x.terms[7] == -1


def test_no_zero_coefficients_stored():
    x = root_of_unity(5, 1) - root_of_unity(5, 1)
    assert x.terms == {}


# ---------------------------------------------------------------------------
# roots of unity and arithmetic identities


def test_root_of_unity_trivial_cases():
    assert root_of_unity(1, 0) == rational(1)
    assert root_of_unity(4, 2) == rational(-1, 4)


def test_zeta6_descends_to_modulus_3():
    # zeta_6 = -zeta_3^2, so its conductor is 3
    x = root_of_unity(6, 1)
    m, d = conductor_of_element(x)
    assert m == 3
    assert d == -root_of_unity(3, 2)


def test_i_plus_minus_i_is_zero():
    assert root_of_unity(4, 1) + root_of_unity(4, 3) == zero(4)


def test_sum_of_primitive_fifth_roots():
    s = sum((root_of_unity(5, j) for j in range(1, 5)), zero(5))
    assert s.to_rational() == -1


def test_sqrt_minus_two_squares():
    x = root_of_unity(8, 1) + root_of_unity(8, 3)
    assert (x * x).to_rational() == -2


def test_power_operator():
    z = root_of_unity(7, 1)
    assert z**7 == rational(1, 7)
    assert z**3 == root_of_unity(7, 3)


def test_moduli_auto_unify():
    x = root_of_unity(4, 1) + root_of_unity(6, 1)
    assert x.n == 12


# ---------------------------------------------------------------------------
# Galois action


def test_galois_fixes_sqrt_minus_two():
    x = root_of_unity(8, 1) + root_of_unity(8, 3)
    assert x.galois(3) == x


def test_galois_identity_and_composition():
    x = root_of_unity(15, 1) + 2 * root_of_unity(15, 2)
    assert x.galois(1) == x
    assert x.galois(2).galois(4) == x.galois(8)


def test_galois_rejects_non_coprime():
    with pytest.raises(ValueError):
        root_of_unity(6, 1).galois(2)


def test_conjugate_of_root():
    z = root_of_unity(5, 1)
    assert z.galois(-1) == root_of_unity(5, 4)


def test_sigma_e_fixes_odd_roots_and_twists_two_part():
    z3 = root_of_unity(3, 1)
    assert sigma_e(z3, 1) == z3
    z8 = root_of_unity(8, 1)
    assert sigma_e(z8, 1) == root_of_unity(8, 3)
    # on zeta_24 = zeta_3 * zeta_8 component-wise
    z24 = root_of_unity(24, 1)
    k = None
    for c in range(24):
        if c % 3 == 1 and c % 8 == 3:
            k = c
    assert sigma_e(z24, 1) == z24.galois(k)


def test_sigma_unit_is_one_on_the_odd_part_and_one_plus_two_to_e_on_the_two_part():
    for n in range(1, 2001):
        n2 = n & -n
        m = n // n2
        for e in range(1, 7):
            k = sigma_unit(n, e)
            assert 0 <= k < n, (n, e)
            assert gcd(k, n) == 1, (n, e)
            assert k % m == 1 % m, (n, e)
            assert k % n2 == (1 + 2**e) % n2, (n, e)


@pytest.mark.parametrize("n,e", [(2, 0), (6, 0), (12, 0), (12, -1), (9, 0)])
def test_sigma_unit_needs_e_at_least_one(n, e):
    # for even n and e = 0 the formula gives 1 + 2^0 = 2 on the 2-part, no unit
    with pytest.raises(ValueError, match="e >= 1"):
        sigma_unit(n, e)


@pytest.mark.parametrize(
    "call",
    [
        lambda: subgroup_closure(0, [1]),
        lambda: subgroup_closure(-5, []),
        lambda: unit_generators(0),
        lambda: unit_generators(-3),
        lambda: sigma_unit(0, 1),
        lambda: sigma_unit(-8, 1),
    ],
    ids=["closure-0", "closure-neg", "gens-0", "gens-neg", "sigma-0", "sigma-neg"],
)
def test_z_mod_n_helpers_need_n_at_least_one(call):
    # n = 0 used to divide by zero, and unit_generators(0) and (-3) returned []
    with pytest.raises(ValueError, match="n >= 1"):
        call()


def test_closure_at_a_negative_modulus_raises_instead_of_hanging():
    # x = x * 2 mod -5 stays negative and never reaches 1, so the closure loop
    # used to run forever; in a child process a hang fails the test with
    # subprocess.TimeoutExpired instead of stalling the suite
    probe = (
        "from heightzero.cyclotomic import subgroup_closure\n"
        "try:\n"
        "    subgroup_closure(-5, [2])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(heightzero.__file__).resolve().parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=5, check=True
    )
    assert out.stdout.strip() == "(Z/n)* needs n >= 1, got -5"


def test_nu_p_counts_factors_and_needs_a_base_of_at_least_two():
    assert [nu_p(n, 2) for n in (1, 2, 12, 96)] == [0, 1, 2, 5]
    assert nu_p(3**7 * 10, 3) == 7
    # 5 % 1 == 0 forever, and 5 % 0 divides by zero
    for p in (1, 0, -2):
        with pytest.raises(ValueError, match="p >= 2"):
            nu_p(5, p)
    with pytest.raises(ValueError, match="positive integer"):
        nu_p(0, 2)


def test_jacobi_matches_sympy_with_negative_arguments():
    for n in range(1, 200, 2):
        for a in range(-2 * n, 2 * n + 1):
            assert _jacobi(a, n) == jacobi_symbol(a, n), (a, n)


# ---------------------------------------------------------------------------
# rationality


def test_rational_roundtrip():
    assert rational(Fraction(3, 2), 12).to_rational() == Fraction(3, 2)
    assert rational(-5, 7).to_rational() == -5


def test_non_rational_raises():
    with pytest.raises(ValueError):
        root_of_unity(5, 1).to_rational()


def _to_rational_oracle(x):
    """The Fraction-division definition: r is read off one basis coefficient
    of the canonical 1, and x must be r times that form."""
    if not x.terms:
        return Fraction(0)
    one = rational(1, x.n)
    j, c = next(iter(one.terms.items()))
    r = Fraction(x.terms.get(j, 0)) / c
    if x.terms != {i: r * d for i, d in one.terms.items()}:
        raise ValueError("element is not rational")
    return r


def _oracle_verdict(f, x):
    try:
        return f(x)
    except ValueError:
        return "raises"


def _off_support(n):
    """The basis exponents of Q(zeta_n) where the canonical 1 is 0."""
    return [i for i in zumbroich_exponents(n) if i not in rational(1, n).terms]


# moduli where the canonical 1 has many terms: all 8 basis elements at 30
# (coefficient 1), all 48 at 105 (coefficient -1), 8 of 16 at 60 and 8 of 32
# at 120
_RATIONAL_MODULI = (30, 60, 105, 120)


@settings(max_examples=200, deadline=None)
@given(
    r=st.fractions(max_denominator=50).filter(bool),
    edit=st.integers(0, 3),
    data=st.data(),
)
def test_to_rational_agrees_with_the_fraction_oracle(r, edit, data):
    # edit 1 changes one coefficient on 1's support, 2 adds one term off that
    # support (so n is 60 or 120), 3 adds a random element of Q(zeta_n)
    n = data.draw(st.sampled_from([m for m in _RATIONAL_MODULI if edit != 2 or _off_support(m)]))
    one = rational(1, n)
    assert len(one.terms) > 1 and {abs(c) for c in one.terms.values()} == {1}
    x = rational(r, n)
    if edit == 1:
        j = data.draw(st.sampled_from(sorted(one.terms)))
        x = CycElt(n, {**x.terms, j: x.terms[j] + data.draw(st.fractions().filter(bool))})
    elif edit == 2:
        x = CycElt(n, {**x.terms, data.draw(st.sampled_from(_off_support(n))): 1}, reduced=True)
    elif edit == 3:
        x = x + CycElt(n, {i: data.draw(st.integers(-2, 2)) for i in range(n)})
    got = _oracle_verdict(CycElt.to_rational, x)
    assert got == _oracle_verdict(_to_rational_oracle, x)
    if edit in (1, 2):
        assert got == "raises"
    elif edit == 0:
        assert got == r and isinstance(got, Fraction)


# ---------------------------------------------------------------------------
# conductor: main route vs divisor-scan oracle


def _random_cyc(rng, n):
    basis = zumbroich_exponents(n)
    k = rng.randint(1, min(4, len(basis)))
    return CycElt(
        n,
        {rng.choice(basis): Fraction(rng.randint(-3, 3)) for _ in range(k)},
    )


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _oracle_conductor(x):
    """Smallest divisor m of n with x fixed by every k = 1 mod m; brute force
    over all units of n, independent of the library's descent logic."""
    n = x.n
    for m in _divisors(n):
        if all(
            x.galois(k) == x
            for k in range(1, n + 1)
            if gcd(k, n) == 1 and k % m == 1 % m
        ):
            return m
    raise AssertionError


def test_conductor_vs_divisor_scan_oracle_on_random_elements():
    rng = random.Random(20240817)
    checked = 0
    while checked < 200:
        n = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 21, 24, 30, 36, 40, 45])
        x = _random_cyc(rng, n)
        m, descended = _oracle_conductor(x), None
        got, descended = conductor_of_element(x)
        assert got == m, f"conductor mismatch at n={n}: {x!r}"
        assert descended.embed(n) == x
        checked += 1


# ---------------------------------------------------------------------------
# property suites


_small = st.integers(min_value=-4, max_value=4)


@st.composite
def cyc_elts(draw, moduli=(1, 2, 3, 4, 6, 8, 12)):
    n = draw(st.sampled_from(moduli))
    basis = zumbroich_exponents(n)
    nterms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(nterms):
        terms[draw(st.sampled_from(basis))] = Fraction(draw(_small))
    return CycElt(n, terms)


@settings(max_examples=150, deadline=None)
@given(cyc_elts(), cyc_elts(), cyc_elts())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero(1) == x
    assert x * rational(1) == x


@settings(max_examples=100, deadline=None)
@given(cyc_elts(), cyc_elts())
def test_galois_is_ring_homomorphism(x, y):
    n = max(x.n, y.n)
    for k in range(1, 13):
        if gcd(k, x.n) == 1 and gcd(k, y.n) == 1 and gcd(k, (x + y).n) == 1 and gcd(k, (x * y).n) == 1:
            assert (x + y).galois(k) == x.galois(k) + y.galois(k)
            assert (x * y).galois(k) == x.galois(k) * y.galois(k)


@settings(max_examples=150, deadline=None)
@given(cyc_elts(moduli=(1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 20)))
def test_to_rational_raises_exactly_when_a_unit_moves_x(x):
    units = [k for k in range(1, x.n) if gcd(k, x.n) == 1]
    # the trace over all units is fixed by every unit, so always rational
    for y in (x, sum((x.galois(k) for k in units), zero(x.n))):
        moved = any(y.galois(k) != y for k in units)
        try:
            r = y.to_rational()
        except ValueError:
            assert moved, y
        else:
            assert not moved and y == rational(r, y.n), y


@settings(max_examples=100, deadline=None)
@given(cyc_elts())
def test_embed_is_faithful(x):
    for m in (24, 48):
        if m % x.n == 0:
            e = x.embed(m)
            assert e == x
            assert conductor_of_element(e)[0] == conductor_of_element(x)[0]


# ---------------------------------------------------------------------------
# primality, against sympy's isprime

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 825265)
# the least strong pseudoprimes to the first 4, 11, 12 and 13 prime bases
# (OEIS A014233)
STRONG_PSEUDOPRIMES = (
    3215031751,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
# the strong Lucas pseudoprimes below 20,000 (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971)


def test_isprime_matches_sympy_up_to_a_million():
    assert [n for n in range(-5, 10**6) if isprime(n)] == list(primerange(10**6))


def test_isprime_rejects_carmichael_and_strong_pseudoprimes():
    # Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1), with all three
    # factors prime, below and above the Miller-Rabin bound
    def chernick_from(k0):
        for k in count(k0):
            if all(sympy_isprime(m * k + 1) for m in (6, 12, 18)):
                yield (6 * k + 1) * (12 * k + 1) * (18 * k + 1)

    chernick = [*islice(chernick_from(1), 10), *islice(chernick_from(10**8), 5)]
    assert chernick[0] == 1729 and chernick[-1] > _MR_BOUND
    for n in (*CARMICHAEL, *STRONG_PSEUDOPRIMES, *chernick):
        assert pow(2, n - 1, n) == 1, n
        assert not isprime(n) and not sympy_isprime(n), n
    # each fools the first 4, 11, 12 and 13 prime bases, and only the last
    # fools all 13: it is the bound, where the BPSW branch takes over
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for n, fooled in zip(STRONG_PSEUDOPRIMES, (4, 11, 12, 13)):
        passed = [_strong_probable_prime(n, a) for a in bases]
        assert passed[:fooled + 1] == [True] * fooled + [False] * (fooled < 13), n
    assert STRONG_PSEUDOPRIMES[-1] == _MR_BOUND


def test_isprime_matches_sympy_near_machine_words():
    for base in (2**32, 2**64, _MR_BOUND):
        for n in range(base - 60, base + 61):
            assert isprime(n) == sympy_isprime(n), n
    assert isprime(4294967291)


def test_isprime_matches_sympy_on_random_large_n():
    rng = random.Random(21)
    for _ in range(1200):
        bits = rng.randrange(64, 401)
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        assert isprime(n) == sympy_isprime(n), n
    for bits in (64, 81, 82, 90, 128, 200, 400):
        p = nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
        q = nextprime(p)
        assert isprime(p) and sympy_isprime(p), p
        for n in (p * q, p * p, p * nextprime(1 << 41)):
            assert not isprime(n) and not sympy_isprime(n), n


def test_strong_lucas_test_alone():
    odd = range(3, 20000, 2)
    assert [n for n in odd if _strong_lucas_probable_prime(n) != is_strong_lucas_prp(n)] == []
    fooled = [n for n in odd if _strong_lucas_probable_prime(n) and not sympy_isprime(n)]
    assert fooled == list(STRONG_LUCAS_PSEUDOPRIMES)
    # Miller-Rabin to base 2 catches each of them
    for n in STRONG_LUCAS_PSEUDOPRIMES:
        assert not _strong_probable_prime(n, 2) and not isprime(n), n
    # primes above the bound pass both halves of BPSW; squares fail the Lucas half
    p = _MR_BOUND
    for _ in range(20):
        p = nextprime(p)
        assert _strong_probable_prime(p, 2) and _strong_lucas_probable_prime(p), p
        assert not _strong_lucas_probable_prime(p * p), p


def test_isprime_takes_integers_only():
    with pytest.raises(TypeError):
        isprime(2.0)
