import math
import random

import pytest

import quatsym.classifier as classifier
from quatsym.classifier import (
    DIVISION,
    FP_CYCLO_NONRESIDUE_DIVISION,
    FP_Q_ALL_DIVISORS_RESIDUES_SPLIT,
    FP_QI_CLASS_NUMBER_ONE_SPLIT,
    FP_QI_NONRESIDUE_DIVISION,
    FP_QI_RESIDUE_SPLIT,
    SPLIT,
    UNDETERMINED,
    QuaternionQ,
    QuaternionQi,
    SymbolAlgebra,
    brown_parry_alpha_set,
    classify,
    classify_quaternion_q,
    classify_quaternion_qi,
    classify_symbol,
    fast_path,
)
from quatsym.gaussian import split_prime
from quatsym.local_symbols import (
    hasse_qi_dyadic,
    hasse_qi_odd,
    hilbert_odd,
    hilbert_real,
    hilbert_two,
    tame_q_symbol,
)
from quatsym.rational import factor, is_prime, legendre, squarefree_part


def _ram_strs(verdict):
    return tuple(str(pl) for pl in verdict.ramified)


class TestQuaternionOverQ:
    def test_division_pair(self):
        v = classify_quaternion_q(33, 29)
        assert v.status == DIVISION
        assert _ram_strs(v) == ("p=3", "p=11")
        assert v.discriminant == 33
        assert v.certificate["symbols"] == {
            "p=2": 1,
            "p=3": -1,
            "p=11": -1,
            "p=29": 1,
            "real": 1,
        }

    def test_split_pair(self):
        v = classify_quaternion_q(35, 29)
        assert v.status == SPLIT
        assert v.ramified == ()
        assert v.discriminant == 1
        assert v.fast_path == FP_Q_ALL_DIVISORS_RESIDUES_SPLIT

    def test_totally_definite(self):
        v = classify_quaternion_q(-1, -1)
        assert v.status == DIVISION
        assert _ram_strs(v) == ("p=2", "real")
        assert v.discriminant == 2

    def test_ramification_count_is_even(self):
        rng = random.Random(21)
        for _ in range(300):
            a = rng.choice([-1, 1]) * rng.randint(1, 10**4)
            b = rng.choice([-1, 1]) * rng.randint(1, 10**4)
            v = classify_quaternion_q(a, b)
            assert len(v.ramified) % 2 == 0
            assert (v.status == SPLIT) == (v.ramified == ())

    def test_discriminant_is_product_of_finite_ramified(self):
        rng = random.Random(22)
        for _ in range(200):
            a = rng.choice([-1, 1]) * rng.randint(1, 10**4)
            b = rng.choice([-1, 1]) * rng.randint(1, 10**4)
            v = classify_quaternion_q(a, b)
            prod = 1
            for pl in v.ramified:
                if pl.kind != "q_real":
                    prod *= pl.p
            assert v.discriminant == prod
            sf = squarefree_part(v.discriminant)
            assert sf == v.discriminant
        # in-contract pairs whose square-free parts multiply past 2**63
        for a, b in (
            (10**10 + 19, 10**10 + 33),
            (-(2**63), 2**63 - 25),
            (2**63 - 1, -(2**62 + 1)),
        ):
            v = classify_quaternion_q(a, b)
            for verdict in (v, classify_quaternion_qi(a, b)):
                assert verdict.status in (SPLIT, DIVISION)
                assert math.prod(verdict.certificate["symbols"].values()) == 1
            assert v.discriminant == math.prod(pl.p for pl in v.ramified if pl.kind != "q_real")
            assert hasse_qi_dyadic(a, b) == 1

    def test_certificate_reduction(self):
        v = classify_quaternion_q(12, 75)
        assert v.certificate["reduced"] == [3, 3]
        # (3, 3) = (3, -1): ramified at 2 and 3
        assert v.status == DIVISION
        assert v.discriminant == 6

    def test_square_times_square_splits(self):
        assert classify_quaternion_q(4, 9).status == SPLIT
        assert classify_quaternion_q(1, -7).status == SPLIT


class TestQuaternionOverQi:
    def test_division_pairs(self):
        v = classify_quaternion_qi(10, 29)
        assert v.status == DIVISION
        assert _ram_strs(v) == ("pi=2+5i", "pi=5+2i")
        assert v.fast_path == FP_QI_NONRESIDUE_DIVISION
        assert classify_quaternion_qi(15, 29).status == DIVISION

    def test_split_pairs(self):
        v = classify_quaternion_qi(33, 29)
        assert v.status == SPLIT
        assert v.ramified == ()
        assert classify_quaternion_qi(5, 29).fast_path == FP_QI_RESIDUE_SPLIT
        assert classify_quaternion_qi(35, 29).status == SPLIT

    def test_discriminant_not_reported(self):
        assert classify_quaternion_qi(10, 29).discriminant is None

    def test_residue_guard_counterexamples(self):
        # legendre(a, p) = +1 with p = 1 mod 4 does NOT imply split: the
        # obstruction moves to the split primes dividing a.
        for a, p in ((15, 17), (629, 29)):
            assert legendre(a, p) == 1 and p % 4 == 1
            v = classify_quaternion_qi(a, p)
            assert v.status == DIVISION
            assert v.fast_path is None

    def test_class_number_guard_counterexamples(self):
        # each negative-split value admits a p = 3 mod 4 residue pair that
        # still ramifies, so the rule must exclude that corner
        for a, p in ((-5, 3), (-5, 7), (-13, 7), (-37, 19)):
            assert a in brown_parry_alpha_set() and p % 4 == 3
            assert legendre(a, p) == 1
            v = classify_quaternion_qi(a, p)
            assert v.status == DIVISION
            assert v.fast_path is None

    def test_excluded_corner_always_ramifies(self):
        # in fact reciprocity forces it: |a| = 1 mod 4 and p = 3 mod 4 turn
        # legendre(a, p) = +1 into legendre(p, |a|) = -1, ramifying the
        # primes over |a|
        hits = 0
        for a in (-5, -13, -37):
            for p in range(3, 200, 4):
                if not is_prime(p) or legendre(a, p) != 1:
                    continue
                v = classify_quaternion_qi(a, p)
                assert v.status == DIVISION, (a, p)
                assert v.fast_path is None
                hits += 1
        assert hits > 30

    def test_class_number_rule_fires(self):
        v = classify_quaternion_qi(2, 7)
        assert v.status == SPLIT
        assert v.fast_path == FP_QI_CLASS_NUMBER_ONE_SPLIT
        v = classify_quaternion_qi(-2, 3)
        assert v.status == SPLIT
        assert v.fast_path == FP_QI_CLASS_NUMBER_ONE_SPLIT

    def test_nonresidue_rule_keeps_full_data(self):
        # the rule only certifies ramification over 13; the verdict still
        # carries the other ramified pair (over 5) from the full computation
        v = classify_quaternion_qi(5, 13)
        assert v.status == DIVISION
        assert v.fast_path == FP_QI_NONRESIDUE_DIVISION
        assert _ram_strs(v) == ("pi=1+2i", "pi=2+i", "pi=2+3i", "pi=3+2i")
        assert v.certificate is not None

    def test_galois_stability(self):
        # rational parameters: ramified odd places pair up over their
        # rational prime, and the dyadic place never ramifies
        rng = random.Random(23)
        for _ in range(250):
            a = rng.choice([-1, 1]) * rng.randint(1, 10**4)
            b = rng.choice([-1, 1]) * rng.randint(1, 10**4)
            v = classify_quaternion_qi(a, b)
            assert len(v.ramified) % 2 == 0
            by_char = {}
            for pl in v.ramified:
                assert pl.kind == "qi_odd"
                by_char.setdefault(pl.pi.residue_char, []).append(pl)
            for char, pls in by_char.items():
                assert len(pls) == 2, (a, b, char)

    def test_nonresidue_implies_division_sweep(self):
        rng = random.Random(24)
        primes_1mod4 = [p for p in range(5, 500) if is_prime(p) and p % 4 == 1]
        hits = 0
        for _ in range(400):
            a = rng.choice([-1, 1]) * rng.randint(1, 10**4)
            p = rng.choice(primes_1mod4)
            if legendre(a, p) != -1:
                continue
            assert classify_quaternion_qi(a, p).status == DIVISION
            hits += 1
        assert hits > 100


class TestSymbolAlgebras:
    def test_degree_three_rows(self):
        v = classify_symbol(3, 7, 29)
        assert v.status == SPLIT and v.ramified == ()
        v = classify_symbol(3, 7, 43)
        assert v.status == DIVISION
        assert v.fast_path == FP_CYCLO_NONRESIDUE_DIVISION
        assert "ell=43,f=1" in _ram_strs(v)
        assert v.certificate["witnesses"]["ell=43,f=1"] == 6
        assert classify_symbol(3, 7, 13).status == DIVISION

    def test_obstruction_at_prime_of_alpha(self):
        # 7 is a cube mod 19, so no fast path; the tame symbol over 7 decides
        v = classify_symbol(3, 7, 19)
        assert v.status == DIVISION
        assert v.fast_path is None
        assert _ram_strs(v) == ("ell=7,f=1",)
        assert v.certificate["witnesses"] == {"ell=7,f=1": 2, "ell=19,f=1": 1}
        # 49 = 7**2: the unit at 7 is 19**(-2), witness 19**(-4) = 4 mod 7
        v = classify_symbol(3, 49, 19)
        assert v.certificate["witnesses"] == {"ell=7,f=1": 4, "ell=19,f=1": 1}

    def test_degree_five_rows(self):
        assert classify_symbol(5, 19, 37).status == SPLIT
        v = classify_symbol(5, 19, 11)
        assert v.status == DIVISION
        assert v.fast_path == FP_CYCLO_NONRESIDUE_DIVISION
        assert classify_symbol(5, 19, 31).status == DIVISION

    def test_wild_place_never_listed(self):
        rng = random.Random(25)
        for _ in range(200):
            q = rng.choice([3, 5, 7])
            alpha = rng.randint(2, 10**4)
            p = rng.choice([11, 13, 19, 29, 31, 37, 41, 43])
            if p == q or alpha % p == 0 or alpha % q == 0:
                continue
            v = classify_symbol(q, alpha, p)
            assert all(pl.ell != q for pl in v.ramified)
            assert v.discriminant is None

    def test_qth_power_class_invariance(self):
        rng = random.Random(26)
        checked = 0
        for _ in range(300):
            q = rng.choice([3, 5])
            alpha = rng.randint(2, 2000)
            p = rng.choice([11, 13, 19, 29, 31, 37])
            c = rng.randint(2, 12)
            scaled = alpha * c**q
            if p == q or any(x % p == 0 or x % q == 0 for x in (alpha, scaled)):
                continue
            v1, v2 = classify_symbol(q, alpha, p), classify_symbol(q, scaled, p)
            assert v1.status == v2.status
            assert v1.certificate["reduced_alpha"] == v2.certificate["reduced_alpha"]
            assert _ram_strs(v1) == _ram_strs(v2)
            checked += 1
        assert checked > 80

    def test_negative_alpha_equals_positive(self):
        # -1 is a q-th power for odd q
        v1, v2 = classify_symbol(3, -7, 43), classify_symbol(3, 7, 43)
        assert v1.status == v2.status == DIVISION
        assert _ram_strs(v1) == _ram_strs(v2)

    def test_undetermined_reasons(self):
        v = classify_symbol(3, 7, 15)
        assert v.status == UNDETERMINED
        assert "not prime" in v.certificate["reason"]
        v = classify_symbol(3, 7, 3)
        assert v.status == UNDETERMINED
        assert "wild" in v.certificate["reason"]
        v = classify_symbol(3, 29, 29)
        assert v.status == UNDETERMINED
        assert "divides alpha" in v.certificate["reason"]
        v = classify_symbol(3, 21, 29)
        assert v.status == UNDETERMINED
        assert "q = 3 divides alpha" in v.certificate["reason"]


class TestConstruction:
    def test_zero_parameters_rejected(self):
        for bad in (
            lambda: QuaternionQ(0, 5),
            lambda: QuaternionQ(5, 0),
            lambda: QuaternionQi(0, 1),
            lambda: SymbolAlgebra(3, 0, 7),
        ):
            with pytest.raises(ValueError, match="parameters must be nonzero"):
                bad()

    def test_bad_degree_rejected(self):
        for q in (2, 4, 9, 1, -3, 15):
            with pytest.raises(ValueError, match="degree must be an odd prime"):
                SymbolAlgebra(q, 7, 29)

    def test_dispatch_matches_direct_calls(self):
        assert classify(QuaternionQ(33, 29)) == classify_quaternion_q(33, 29)
        assert classify(QuaternionQi(10, 29)) == classify_quaternion_qi(10, 29)
        assert classify(SymbolAlgebra(3, 7, 43)) == classify_symbol(3, 7, 43)


class TestFastPaths:
    def test_none_when_no_rule_applies(self):
        assert fast_path(QuaternionQi(6, 15)) is None
        assert fast_path(QuaternionQ(3, 7)) is None
        assert fast_path(SymbolAlgebra(3, 7, 19)) is None

    def test_tagged_verdict_equals_full_verdict(self):
        rng = random.Random(27)
        primes = [p for p in range(3, 600) if is_prime(p)]
        tagged = 0
        for _ in range(600):
            kind = rng.randrange(3)
            try:
                if kind == 0:
                    spec = QuaternionQ(
                        rng.choice([-1, 1]) * rng.randint(1, 5000), rng.choice(primes)
                    )
                elif kind == 1:
                    spec = QuaternionQi(
                        rng.choice([-1, 1]) * rng.randint(1, 5000), rng.choice(primes)
                    )
                else:
                    spec = SymbolAlgebra(
                        rng.choice([3, 5, 7]), rng.randint(1, 5000), rng.choice(primes)
                    )
            except ValueError:
                continue
            short = fast_path(spec)
            full = classify(spec)
            if short is None:
                assert full.fast_path is None
                continue
            tagged += 1
            assert short == full
            assert short.fast_path is not None
            assert short.ramified == full.ramified
        assert tagged > 100

    def test_mispredict_raises(self, monkeypatch):
        monkeypatch.setattr(
            classifier, "_fast_path_rule", lambda *args: ("bogus", DIVISION)
        )
        with pytest.raises(AssertionError, match="bogus predicted Division"):
            classifier.classify_quaternion_q(1, 1)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 1000003, 2**31 - 1)


def _small_prime_product(rng, avoid=()):
    """A signed product of powers of _PRIMES, up to 2**63 in magnitude."""
    n = rng.choice([-1, 1])
    while rng.random() < 0.85:
        factor_ = rng.choice([p for p in _PRIMES if p not in avoid]) ** rng.randint(1, 4)
        if abs(n * factor_) > 2**63:
            break
        n *= factor_
    return n


def _odd_support(a, b):
    return sorted({p for n in (a, b) for p, e in factor(n).factors if e % 2 and p != 2})


class TestPipelineAgreesWithKernels:
    def test_certificates_match_public_kernels(self):
        # the pass evaluates symbols without the public kernels; pin them together
        rng = random.Random(28)
        witnesses = 0
        for _ in range(150):
            a, b = _small_prime_product(rng), _small_prime_product(rng)
            cert = classify_quaternion_q(a, b).certificate["symbols"]
            expected = {"p=2": hilbert_two(a, b), "real": hilbert_real(a, b)}
            expected.update({f"p={p}": hilbert_odd(a, b, p) for p in _odd_support(a, b)})
            assert cert == expected, (a, b)
            cert = classify_quaternion_qi(a, b).certificate["symbols"]
            expected = {"pi=1+i": hasse_qi_dyadic(a, b)}
            expected.update({f"pi={gp}": hasse_qi_odd(a, b, gp)
                             for p in _odd_support(a, b) for gp, _ in split_prime(p)})
            assert cert == expected, (a, b)

            q = rng.choice([3, 5, 7])
            p = rng.choice([7, 11, 13, 19, 31, 37, 43, 61, 2**31 - 1, 2**61 - 1])
            if p == q:
                continue
            alpha = _small_prime_product(rng, avoid=(q, p))
            cert = classify_symbol(q, alpha, p).certificate
            for place, witness in cert["witnesses"].items():
                ell = int(place.split(",")[0][4:])
                assert witness == tame_q_symbol(alpha, p, q, ell).witness, (q, alpha, p, ell)
                witnesses += 1
        assert witnesses > 300


class TestBrownParrySet:
    def test_shape(self):
        s = brown_parry_alpha_set()
        assert len(s) == 22
        assert all(-d in s for d in s)
        assert 163 in s and -163 in s and 1 not in s
        assert s == tuple(sorted(s))
