import random

import pytest

from quatsym.gaussian import GaussianInt, split_prime
from quatsym.local_symbols import (
    Place,
    QTriviality,
    hasse_qi_dyadic,
    hasse_qi_odd,
    hilbert_odd,
    hilbert_real,
    hilbert_two,
    tame_q_symbol,
)
from quatsym.rational import is_prime, multiplicative_order, squarefree_part

from prop_helpers import (
    mod_p3_solvable,
    suite_bimultiplicative,
    suite_hilbert_identities,
    suite_product_formula,
    suite_square_class,
    suite_symmetry,
)


def _prime_over(p, want):
    for gp, _ in split_prime(p):
        if str(gp.element) == want:
            return gp
    raise AssertionError(f"no prime {want} over {p}")


class TestHilbertOdd:
    def test_pinned_values(self):
        assert hilbert_odd(10, 29, 29) == -1
        assert hilbert_odd(33, 29, 3) == -1
        assert hilbert_odd(33, 29, 11) == -1
        assert hilbert_odd(33, 29, 29) == 1
        assert hilbert_odd(35, 29, 5) == 1
        assert hilbert_odd(35, 29, 7) == 1

    def test_unit_pair_is_trivial(self):
        # p dividing neither argument: both valuations vanish
        assert hilbert_odd(10, 29, 7) == 1
        assert hilbert_odd(-3, 5, 11) == 1

    def test_minus_one_congruence(self):
        # (p, p) = (p, -1) = (-1/p): +1 iff p = 1 mod 4
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
            expected = 1 if p % 4 == 1 else -1
            assert hilbert_odd(p, p, p) == expected
            assert hilbert_odd(-1, p, p) == expected

    def test_rejects_bad_prime(self):
        with pytest.raises(ValueError):
            hilbert_odd(3, 5, 2)
        with pytest.raises(ValueError):
            hilbert_odd(3, 5, 15)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hilbert_odd(0, 5, 3)
        with pytest.raises(ValueError):
            hilbert_odd(5, 0, 3)


class TestHilbertTwo:
    def test_pinned_values(self):
        assert hilbert_two(33, 29) == 1
        assert hilbert_two(-1, -1) == -1
        assert hilbert_two(2, 3) == -1
        assert hilbert_two(2, 7) == 1
        for b in (1, -1, 2, 3, 7, 15, -6):
            assert hilbert_two(1, b) == 1

    def test_two_two(self):
        # (2, 2) = (2, -1) = +1
        assert hilbert_two(2, 2) == 1
        assert hilbert_two(2, -1) == 1


class TestHilbertReal:
    def test_sign_table(self):
        assert hilbert_real(-1, -1) == -1
        assert hilbert_real(-3, -7) == -1
        assert hilbert_real(1, -1) == 1
        assert hilbert_real(-1, 1) == 1
        assert hilbert_real(2, 3) == 1


class TestHasseQi:
    def test_pinned_odd_values(self):
        pi = _prime_over(5, "2+i")
        assert hasse_qi_odd(10, 3, pi) == -1
        assert hasse_qi_odd(10, 29, pi) == 1
        for gp, _ in split_prime(29):
            assert hasse_qi_odd(10, 29, gp) == -1
            assert hasse_qi_odd(33, 29, gp) == 1
            assert hasse_qi_odd(35, 29, gp) == 1

    def test_inert_rational_is_trivial(self):
        # units of F_p embed as squares in the inert residue field F_{p^2}
        rng = random.Random(7)
        for p in (3, 7, 11, 19, 23):
            (gp, _), = split_prime(p)
            for _ in range(50):
                a = rng.choice([-1, 1]) * rng.randint(1, 10**4)
                b = rng.choice([-1, 1]) * rng.randint(1, 10**4)
                if a % p and b % p:
                    assert hasse_qi_odd(a, b, gp) == 1

    def test_conjugate_places_agree_on_rational_input(self):
        rng = random.Random(8)
        for p in (5, 13, 17, 29, 37):
            g1, g2 = [gp for gp, _ in split_prime(p)]
            for _ in range(40):
                a = rng.choice([-1, 1]) * rng.randint(1, 10**4)
                b = rng.choice([-1, 1]) * rng.randint(1, 10**4)
                assert hasse_qi_odd(a, b, g1) == hasse_qi_odd(a, b, g2)

    def test_bimultiplicative_at_split_prime(self):
        rng = random.Random(9)
        pi = _prime_over(13, "3+2i")
        for _ in range(200):
            a1 = rng.choice([-1, 1]) * rng.randint(1, 10**4)
            a2 = rng.choice([-1, 1]) * rng.randint(1, 10**4)
            b = rng.choice([-1, 1]) * rng.randint(1, 10**4)
            lhs = hasse_qi_odd(a1 * a2, b, pi)
            assert lhs == hasse_qi_odd(a1, b, pi) * hasse_qi_odd(a2, b, pi)

    def test_dyadic_pinned_values(self):
        assert hasse_qi_dyadic(10, 29) == 1
        assert hasse_qi_dyadic(5, 29) == 1
        # (10, 3): the -1s at the conjugate primes over 5 cancel
        assert hasse_qi_dyadic(10, 3) == 1
        # (2, 5): single -1 at each prime over 5, nothing else
        assert hasse_qi_dyadic(2, 5) == 1
        assert hasse_qi_dyadic(2, 15) == 1
        for b in (3, 7, 29, -2):
            assert hasse_qi_dyadic(1, b) == 1

    def test_dyadic_equals_product_over_odd_places(self):
        # restatement of the defining product formula, on fresh inputs
        rng = random.Random(10)
        for _ in range(60):
            a = rng.choice([-1, 1]) * rng.randint(1, 3000)
            b = rng.choice([-1, 1]) * rng.randint(1, 3000)
            prod = 1
            seen = set()
            for n in (squarefree_part(a), squarefree_part(b)):
                for p in _odd_prime_divisors(n):
                    if p in seen:
                        continue
                    seen.add(p)
                    for gp, _ in split_prime(p):
                        prod *= hasse_qi_odd(a, b, gp)
            assert hasse_qi_dyadic(a, b) == prod

    def test_ramified_prime_rejected(self):
        (gp, _), = split_prime(2)
        with pytest.raises(ValueError):
            hasse_qi_odd(3, 5, gp)


def _odd_prime_divisors(n):
    from quatsym.rational import factor

    return [p for p in factor(n).primes() if p % 2]


class TestTameQSymbol:
    def test_pinned_triples(self):
        r = tame_q_symbol(7, 29, 3, 29)
        assert r == QTriviality(True, 1)
        r = tame_q_symbol(7, 43, 3, 43)
        assert r.trivial is False and r.witness == 6
        # 7 has order 3 mod 19, so (7, 19) is trivial over ell = 19 ...
        r = tame_q_symbol(7, 19, 3, 19)
        assert r == QTriviality(True, 1)
        # ... and the division obstruction sits over ell = 7
        r = tame_q_symbol(7, 19, 3, 7)
        assert r.trivial is False and r.witness == 2
        # 343 = 7**3 is a cube: the unit 19**(-3) is trivial over ell = 7
        assert tame_q_symbol(343, 19, 3, 7) == QTriviality(True, 1)
        r = tame_q_symbol(7, 13, 3, 13)
        assert r.trivial is False
        # degree-5 rows
        assert tame_q_symbol(19, 37, 5, 37).trivial is True
        assert tame_q_symbol(19, 11, 5, 11).trivial is False
        assert tame_q_symbol(19, 31, 5, 31).trivial is False

    def test_residue_degree_two_or_more_is_trivial(self):
        rng = random.Random(11)
        count = 0
        for _ in range(500):
            q = rng.choice([3, 5, 7])
            ell = rng.choice([p for p in range(3, 200) if is_prime(p)])
            if ell == q or multiplicative_order(ell, q) == 1:
                continue
            alpha = rng.randint(1, 10**4)
            p = rng.choice([11, 13, 17, 19, 23, 29])
            if alpha % q == 0 or alpha % p == 0:
                continue
            r = tame_q_symbol(alpha, p, q, ell)
            assert r.trivial is True and r.witness == 1
            count += 1
        assert count > 100

    def test_trivial_off_support(self):
        # ell dividing neither alpha nor p: tame unit is 1
        assert tame_q_symbol(7, 29, 3, 13).trivial is True
        assert tame_q_symbol(12, 19, 5, 41).trivial is True

    def test_witness_is_multiplicative_in_alpha(self):
        rng = random.Random(12)
        checked = 0
        for _ in range(400):
            q = rng.choice([3, 5, 7])
            ell = rng.choice([7, 13, 29, 31, 43, 71])
            if ell == q or multiplicative_order(ell, q) != 1:
                continue
            p = rng.choice([11, 19, 23, 37])
            if p == ell:
                continue
            a1 = rng.randint(1, 10**4)
            a2 = rng.randint(1, 10**4)
            if any(x % q == 0 or x % p == 0 for x in (a1, a2, a1 * a2)):
                continue
            w1 = tame_q_symbol(a1, p, q, ell).witness
            w2 = tame_q_symbol(a2, p, q, ell).witness
            w12 = tame_q_symbol(a1 * a2, p, q, ell).witness
            assert w12 == (w1 * w2) % ell
            checked += 1
        assert checked > 100

    def test_qth_power_class_invariance(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(400):
            q = rng.choice([3, 5])
            ell = rng.choice([7, 13, 31, 43, 61, 11])
            if multiplicative_order(ell, q) != 1:
                continue
            p = rng.choice([19, 23, 29, 37])
            if p == ell:
                continue
            alpha = rng.randint(1, 500)
            c = rng.randint(2, 20)
            scaled = alpha * c**q
            if any(x % q == 0 or x % p == 0 for x in (alpha, scaled)):
                continue
            base = tame_q_symbol(alpha, p, q, ell)
            assert tame_q_symbol(scaled, p, q, ell) == base
            checked += 1
        assert checked > 80

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="wild"):
            tame_q_symbol(7, 29, 3, 3)
        with pytest.raises(ValueError):
            tame_q_symbol(0, 29, 3, 29)
        with pytest.raises(ValueError):
            tame_q_symbol(7, 29, 2, 29)
        with pytest.raises(ValueError):
            tame_q_symbol(7, 29, 9, 29)
        with pytest.raises(ValueError):
            tame_q_symbol(7, 30, 3, 29)
        with pytest.raises(ValueError):
            tame_q_symbol(9, 29, 3, 29)
        with pytest.raises(ValueError):
            tame_q_symbol(29, 29, 3, 31)


class TestPlace:
    def test_str_forms(self):
        assert str(Place.q_odd(3)) == "p=3"
        assert str(Place.q_two()) == "p=2"
        assert str(Place.q_real()) == "real"
        assert str(Place.qi_dyadic()) == "pi=1+i"
        pi = _prime_over(5, "2+i")
        assert str(Place.qi_odd(pi)) == "pi=2+i"
        assert str(Place.cyclo(7, 1)) == "ell=7,f=1"

    def test_qi_sort_puts_dyadic_first(self):
        pi = _prime_over(29, "5+2i")
        places = sorted(
            [Place.qi_odd(pi), Place.qi_dyadic()], key=lambda pl: pl.sort_key()
        )
        assert places[0].kind == "qi_dyadic"


class TestPropertySuites:
    def test_symmetry(self):
        assert suite_symmetry(1000) == []

    def test_bimultiplicativity(self):
        assert suite_bimultiplicative(1000) == []

    def test_square_class_invariance(self):
        assert suite_square_class(1000) == []

    def test_hilbert_identities(self):
        assert suite_hilbert_identities(1000) == []

    def test_product_formula(self):
        assert suite_product_formula(1000) == []


class TestModP3Oracle:
    def test_agreement_on_square_free_input(self):
        for p in (3, 5, 7, 11, 13, 17, 19):
            for a in range(-30, 31):
                if a == 0 or squarefree_part(a) != a:
                    continue
                for b in range(-30, 31):
                    if b == 0 or squarefree_part(b) != b:
                        continue
                    want = hilbert_odd(a, b, p) == 1
                    assert mod_p3_solvable(a, b, p) is want, (a, b, p)

    def test_divergence_beyond_square_free(self):
        # v_p(a) = 3 packs the obstruction above p^3: the symbol is -1 yet
        # 27x^2 + 2y^2 = z^2 has the primitive solution (1, 0, 0) mod 27.
        assert hilbert_odd(27, 2, 3) == -1
        assert mod_p3_solvable(27, 2, 3) is True
