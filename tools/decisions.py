"""The interval sign decisions of the covolume claims in a parent checkout
and this one, decision by decision.

    python3 tools/decisions.py --against DIR

For each start precision of ``STARTS`` (128, 3, 4 and 5 bits) and each
checkout, the parent's ``--against`` and this one, one fresh process
(``start`` of ``tools/bench_pairs.py``) makes every decision of
``verify_xi_claims(20)`` and of ``smallest_log_sign`` on each partition of
d + 1 for 2 ≤ d ≤ 12, in that order, and records the sign and the settling
precision of each.  The two sides' decisions are paired in order.  Per
start the tool prints the number of decisions, the number undecided on
each side, the sign changes (pairs whose signs differ, an undecided one
included) and how many of the change's settling precisions are the same
as the parent's, earlier or later.  Two sides that make a different
number of decisions stop the tool with exit status 1.
"""

from __future__ import annotations

import json
import sys

from bench_pairs import command_line, sides, start

STARTS = (128, 3, 4, 5)
MAX_X = 20
MAX_D = 12

# records (sign, settling precision) of every decision covolume makes
PROBE = """
import json, sys
from coloured_neretin import covolume
start, max_x, max_d = map(int, sys.argv[1:])
seen, decide = [], covolume.decide_sign

def recording(expression, start_bits=None):
    sign, value, bits = decide(expression, start_bits=start_bits)
    seen.append((sign, bits))
    return sign, value, bits

covolume.decide_sign = recording
covolume.verify_xi_claims(max_x, start_bits=start)
for d in range(2, max_d + 1):
    for sizes in covolume.integer_partitions(d + 1):
        covolume.smallest_log_sign(sizes, start_bits=start)
print(json.dumps(seen))
"""


def record(checkout, start_bits, max_x=MAX_X, max_d=MAX_D):
    """The (sign, bits) of each decision made in ``checkout`` at ``start_bits``."""
    argv = [sys.executable, "-c", PROBE, str(start_bits), str(max_x), str(max_d)]
    proc, _ = start(checkout, argv, "the probe")
    return [tuple(decision) for decision in json.loads(proc.stdout)]


def compare(parent, change):
    """Counts of the paired decisions of two sides."""
    if len(parent) != len(change):
        raise SystemExit("the parent makes %d decisions, the change %d"
                         % (len(parent), len(change)))
    pairs = list(zip(parent, change))
    return {
        "decisions": len(pairs),
        "undecided": [sum(sign is None for sign, _ in side) for side in (parent, change)],
        "sign_changes": sum(p[0] != c[0] for p, c in pairs),
        "same": sum(p[1] == c[1] for p, c in pairs),
        "earlier": sum(c[1] < p[1] for p, c in pairs),
        "later": sum(c[1] > p[1] for p, c in pairs),
    }


def main(argv=None):
    checkouts = sides(command_line(__doc__).parse_args(argv))
    for start in STARTS:
        counts = compare(*(record(checkout, start) for checkout in checkouts.values()))
        print("start %d: %d decisions, undecided %d -> %d, %d sign changes; "
              "settling precision same %d, earlier %d, later %d"
              % (start, counts["decisions"], *counts["undecided"], counts["sign_changes"],
                 counts["same"], counts["earlier"], counts["later"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
