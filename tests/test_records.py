"""The records' contract: named tuples with fixed fields, the repr of the
frozen dataclasses they replace, no assignment, and hashes that follow
equality; the two validating records refuse bad fields."""

import pytest

from expsumlab.arith import DRep
from expsumlab.char_sums import Corollary1Result, PolynomialZ
from expsumlab.conjecture import ConjectureReport, ConjectureRow
from expsumlab.exp_sums import PhaseFamily
from expsumlab.poly_search import SearchHit, SearchResult
from expsumlab.registry import Identity, IdentityOutcome

CUBIC = PolynomialZ((0, 1, 1, 1))
QUARTIC = PolynomialZ((1, 4, 2, 4, 1))

# (build, fields, repr): build() makes a fresh record from hashable values
RECORDS = [
    (lambda: DRep(-5, 1), ("d", "b"), "DRep(d=-5, b=1)"),
    (lambda: PolynomialZ((0, 1, 1, 1)), ("coeffs",), "PolynomialZ(coeffs=(0, 1, 1, 1))"),
    (lambda: Corollary1Result(7, 0, -2, 2),
     ("p", "term1", "term2", "difference"),
     "Corollary1Result(p=7, term1=0, term2=-2, difference=2)"),
    (lambda: PhaseFamily(3),
     ("monomial_degree", "twist", "fixed_coefficient", "include_zero_in_sweep"),
     "PhaseFamily(monomial_degree=3, twist='none', fixed_coefficient=1, include_zero_in_sweep=True)"),
    (lambda: ConjectureRow(5, 2, 225, 2, 250, -0.5, "pass"),
     ("p", "k", "value", "catalan", "main_term", "normalized_residual", "status"),
     "ConjectureRow(p=5, k=2, value=225, catalan=2, main_term=250, normalized_residual=-0.5, status='pass')"),
    (lambda: ConjectureReport(2, (), 0.0),
     ("k", "rows", "max_abs_normalized_residual"),
     "ConjectureReport(k=2, rows=(), max_abs_normalized_residual=0.0)"),
    (lambda: SearchHit(CUBIC, QUARTIC, 2, (5, 7), True),
     ("f", "g", "c", "primes", "twisted"),
     "SearchHit(f=PolynomialZ(coeffs=(0, 1, 1, 1)), g=PolynomialZ(coeffs=(1, 4, 2, 4, 1)), "
     "c=2, primes=(5, 7), twisted=True)"),
    (lambda: SearchResult((), (), 10),
     ("hits", "histogram", "n_polynomials"),
     "SearchResult(hits=(), histogram=(), n_polynomials=10)"),
    (lambda: IdentityOutcome("salie_4th", 5, None, 160, 160, "pass"),
     ("identity_id", "modulus", "n", "lhs", "rhs", "status"),
     "IdentityOutcome(identity_id='salie_4th', modulus=5, n=None, lhs=160, rhs=160, status='pass')"),
    (lambda: Identity("x", "d", "a", None, None, None),
     ("identity_id", "description", "applicability", "applies", "lhs", "rhs", "takes_n"),
     "Identity(identity_id='x', description='d', applicability='a', applies=None, lhs=None, "
     "rhs=None, takes_n=False)"),
]


@pytest.mark.parametrize("build, fields, text", RECORDS, ids=[r[2].split("(")[0] for r in RECORDS])
def test_record_contract(build, fields, text):
    record = build()
    assert type(record)._fields == fields
    assert repr(record) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    twin = build()
    assert twin == record and twin is not record and hash(twin) == hash(record)
    assert record._replace() == record


@pytest.mark.parametrize("build, message", [
    (lambda: PhaseFamily(0), "monomial_degree must be >= 1"),
    (lambda: PhaseFamily(1, "bad"), "bad twist 'bad'"),
    (lambda: PolynomialZ((1, 0)), "leading coefficient must be nonzero"),
    # _replace checks its fields as the constructor does
    (lambda: PhaseFamily(3)._replace(monomial_degree=0), "monomial_degree must be >= 1"),
    (lambda: PhaseFamily(3)._replace(twist="bad"), "bad twist 'bad'"),
    (lambda: CUBIC._replace(coeffs=(1, 0)), "leading coefficient must be nonzero"),
])
def test_validating_records_refuse_bad_fields(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
