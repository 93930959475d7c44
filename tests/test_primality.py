"""is_prime takes the shortest proven prefix of its Miller-Rabin bases: at
each tier bound psi_k, the least strong pseudoprime to the first k prime
bases, it must already use more than k of them."""

import random

import pytest
import sympy

from prodex.cli import main
from prodex.congruences import is_prime

# OEIS A014233: psi_6, psi_7 (= psi_8), psi_9, psi_12 (= psi_10 = psi_11)
PSI = [3_474_749_660_383, 341_550_071_728_321, 3_825_123_056_546_413_051,
       318_665_857_834_031_151_167_461]
PSI_13 = 3_317_044_064_679_887_385_961_981


@pytest.mark.parametrize("psi", PSI)
def test_tier_bound_is_composite(psi):
    assert not sympy.isprime(psi)
    assert not is_prime(psi)


@pytest.mark.parametrize("bound", PSI + [PSI_13])
def test_agrees_with_sympy_near_tier_bound(bound):
    # psi_13 itself passes all 13 bases: past the proven range, a probable prime
    for n in range(bound - 300, min(bound + 300, PSI_13)):
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("lo, hi", list(zip([2**40] + PSI, PSI + [PSI_13])))
def test_agrees_with_sympy_inside_tier(lo, hi):
    rng = random.Random(lo)
    odd = [rng.randrange(lo, hi) | 1 for _ in range(300)]
    primes = [sympy.nextprime(rng.randrange(lo, hi)) for _ in range(10)]
    for n in odd + primes:
        assert is_prime(n) == sympy.isprime(n), n


def test_check_refuses_psi_12(capsys):
    assert main(["check", "--a", "1", "--p", str(PSI[-1])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "prodex: 318665857834031151167461 is not prime\n"
