"""Reproduction of the published classification table.

Fourteen worked examples with frozen expected verdicts: seven quaternion
algebras over Q and Q(i), four degree-3 symbol algebras, three degree-5
symbol algebras.  Some rows additionally pin the ramified places, the
discriminant, or which tame symbols are trivial, so a regression in the
local machinery cannot hide behind a correct Split/Division verdict.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .classifier import (
    DIVISION,
    SPLIT,
    AlgebraSpec,
    QuaternionQ,
    QuaternionQi,
    SymbolAlgebra,
    Verdict,
    classify,
)


@dataclass(frozen=True)
class Row:
    key: str
    spec: AlgebraSpec
    expected_status: str
    description: str
    # None means "not pinned"; () pins an empty ramified set.
    expected_ramified: Optional[tuple[str, ...]] = None
    expected_discriminant: Optional[int] = None
    # place string -> True if the tame symbol there must be trivial
    expected_trivial: Optional[dict[str, bool]] = None


ROWS: tuple[Row, ...] = (
    Row(
        key="qi:10:29",
        spec=QuaternionQi(10, 29),
        expected_status=DIVISION,
        description="(10, 29) over Q(i)",
    ),
    Row(
        key="qi:15:29",
        spec=QuaternionQi(15, 29),
        expected_status=DIVISION,
        description="(15, 29) over Q(i)",
    ),
    Row(
        key="qi:5:29",
        spec=QuaternionQi(5, 29),
        expected_status=SPLIT,
        description="(5, 29) over Q(i)",
    ),
    Row(
        key="qi:33:29",
        spec=QuaternionQi(33, 29),
        expected_status=SPLIT,
        description="(33, 29) over Q(i)",
        expected_ramified=(),
    ),
    Row(
        key="q:33:29",
        spec=QuaternionQ(33, 29),
        expected_status=DIVISION,
        description="(33, 29) over Q",
        expected_ramified=("p=3", "p=11"),
        expected_discriminant=33,
    ),
    Row(
        key="q:35:29",
        spec=QuaternionQ(35, 29),
        expected_status=SPLIT,
        description="(35, 29) over Q",
        expected_ramified=(),
        expected_discriminant=1,
    ),
    Row(
        key="qi:35:29",
        spec=QuaternionQi(35, 29),
        expected_status=SPLIT,
        description="(35, 29) over Q(i)",
    ),
    Row(
        key="sym3:7:29",
        spec=SymbolAlgebra(3, 7, 29),
        expected_status=SPLIT,
        description="degree-3 symbol (7, 29) over the 3rd cyclotomic field",
    ),
    Row(
        key="sym3:7:43",
        spec=SymbolAlgebra(3, 7, 43),
        expected_status=DIVISION,
        description="degree-3 symbol (7, 43) over the 3rd cyclotomic field",
    ),
    Row(
        key="sym3:7:13",
        spec=SymbolAlgebra(3, 7, 13),
        expected_status=DIVISION,
        description="degree-3 symbol (7, 13) over the 3rd cyclotomic field",
    ),
    Row(
        key="sym3:7:19",
        spec=SymbolAlgebra(3, 7, 19),
        expected_status=DIVISION,
        description="degree-3 symbol (7, 19) over the 3rd cyclotomic field",
        # the obstruction sits at the prime above 7, not above 19
        expected_trivial={"ell=7,f=1": False, "ell=19,f=1": True},
    ),
    Row(
        key="sym5:19:37",
        spec=SymbolAlgebra(5, 19, 37),
        expected_status=SPLIT,
        description="degree-5 symbol (19, 37) over the 5th cyclotomic field",
    ),
    Row(
        key="sym5:19:11",
        spec=SymbolAlgebra(5, 19, 11),
        expected_status=DIVISION,
        description="degree-5 symbol (19, 11) over the 5th cyclotomic field",
    ),
    Row(
        key="sym5:19:31",
        spec=SymbolAlgebra(5, 19, 31),
        expected_status=DIVISION,
        description="degree-5 symbol (19, 31) over the 5th cyclotomic field",
    ),
)


def _check_row(row: Row, verdict: Verdict) -> list[str]:
    problems = []
    if verdict.status != row.expected_status:
        problems.append(f"status: expected {row.expected_status}, computed {verdict.status}")
    if row.expected_ramified is not None:
        got = tuple(str(p) for p in verdict.ramified)
        if got != row.expected_ramified:
            problems.append(
                f"ramified: expected {list(row.expected_ramified)}, computed {list(got)}"
            )
    if row.expected_discriminant is not None:
        if verdict.discriminant != row.expected_discriminant:
            problems.append(
                f"discriminant: expected {row.expected_discriminant}, "
                f"computed {verdict.discriminant}"
            )
    if row.expected_trivial is not None:
        witnesses = (verdict.certificate or {}).get("witnesses", {})
        for place, want_trivial in row.expected_trivial.items():
            if place not in witnesses:
                problems.append(f"missing tame symbol at {place}")
                continue
            is_trivial = witnesses[place] == 1
            if is_trivial != want_trivial:
                problems.append(
                    f"symbol at {place}: expected "
                    f"{'trivial' if want_trivial else 'nontrivial'}, "
                    f"computed witness {witnesses[place]}"
                )
    return problems


def reproduce_paper(
    rows: Optional[Sequence[Row]] = None,
    only: Optional[str] = None,
) -> list[dict]:
    """Classify every fixture row and compare against the frozen verdicts.

    Returns one result dict per row: key, description, expected, computed,
    ok, and a list of mismatch strings (empty when ok).  `only` restricts
    to a single row key.
    """
    table: Sequence[Row] = ROWS if rows is None else tuple(rows)
    if only is not None:
        table = tuple(r for r in table if r.key == only)
        if not table:
            known = ", ".join(r.key for r in (ROWS if rows is None else rows))
            raise ValueError(f"unknown row {only!r}; known rows: {known}")
    results = []
    for row in table:
        verdict = classify(row.spec)
        problems = _check_row(row, verdict)
        results.append(
            {
                "key": row.key,
                "description": row.description,
                "expected": row.expected_status,
                "computed": verdict.status,
                "ramified": [str(p) for p in verdict.ramified],
                "discriminant": verdict.discriminant,
                "ok": not problems,
                "mismatches": problems,
            }
        )
    return results
