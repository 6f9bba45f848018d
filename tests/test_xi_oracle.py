"""Each Xi claim's interval sign against its exact integer twin.

``xi_oracle`` turns every append, merge and tail claim of
``verify_xi_claims`` into a comparison of two integers.  The package's
own expressions (``_xi_step`` on ``_xi_capital``, and ``_xi_tail``) must
get the same sign from ``decide_sign``, claim by claim, and the report
must count and sort the same claims.
"""

from collections import Counter

import xi_oracle
from coloured_neretin import decide_sign, verify_xi_claims
from coloured_neretin.covolume import _xi_capital, _xi_step, _xi_tail

MAX_X = 14


def test_oracle_sides_of_small_claims():
    # (3,) -> (3, 1): e^(3 Xi(3)) = 3^6 2^3 / (6^3 3^3) and
    # e^(4 Xi(3, 1)) = 3^9 3^8 / (6^4 4^8); the step compares their powers
    assert xi_oracle.step_sides((3, 1), (3,)) == (
        (3 ** 9 * 3 ** 8) ** 3 * (6 ** 3 * 3 ** 3) ** 4,
        (3 ** 6 * 2 ** 3) ** 4 * (6 ** 4 * 4 ** 8) ** 3,
    )
    assert xi_oracle.tail_sides(2) == (3 ** 13, 4 ** 8 * 2 ** 4)
    assert list(xi_oracle.partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_each_xi_claim_has_the_sign_of_its_exact_twin():
    xi = _xi_capital()
    claims = xi_oracle.claims(MAX_X)
    for tag, operands, exact in claims:
        if tag[0] == "tail":
            expression = lambda prec, x=operands[0]: _xi_tail(x, prec)  # noqa: E731
        else:
            expression = _xi_step(xi, *operands)
        sign, _, _ = decide_sign(expression)
        # an interval cannot exclude an exact zero: that claim stays undecided
        assert sign == (exact or None), tag
    report = verify_xi_claims(MAX_X)
    kinds = Counter(tag[0] for tag, _, _ in claims)
    assert (report.append_checked, report.merge_checked, report.tail_checked) == (
        kinds["append"],
        kinds["merge"],
        kinds["tail"],
    )
    assert report.failures == [tag for tag, _, exact in claims if exact < 0]
    assert [tag for tag, _ in report.undecided] == [tag for tag, _, exact in claims if exact == 0]
    assert len(claims) == 852
