"""The benchmark's three workloads.

Each workload makes its inputs from the seed (``__init__``, not timed),
prepares the program side (``setup``, timed as ``setup_s``), runs one op
(``op``, timed) and checks that op's output (``check``, not timed).  An op
of a workload always does the same kind of work at the same input size.
``rate`` is the nominal number of measured ops per second of ``--seconds``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from math import prod

import closed_forms
import inputs
from evaluator import Action, Frame, probe_words

PACKAGE = "coloured_neretin"


def _action_problems(a, b, c, frames, rng):
    """Problems of c as the composite a after b, on one word below every
    leaf of c, each deeper than every leaf of a, b and c.  Returns the
    problems, c's action and the words."""
    A, B, C = (Action(e, f) for e, f in zip((a, b, c), frames))
    words = probe_words(rng, C, A.depth + B.depth + 1)
    problems = []
    for word in words:
        try:
            if C(word) != A(B(word)):
                problems.append("(a.b)(w) != a(b(w)) for w = %r" % (word,))
        except ValueError as exc:
            problems.append(str(exc))
    return problems, C, words


class Deep:
    """Compose and invert elements over the four-orbit example, by the
    tree-pair route and by the shift bridge, and serialise the result."""

    name = "deep"
    rate = 5.0

    def __init__(self, seed, ops, workdir):
        self.seed = seed
        self.pairs = inputs.deep_inputs(seed, ops)
        self.frame = Frame(*inputs.FOUR_ORBIT)

    def setup(self):
        cn = importlib.import_module(PACKAGE)
        d, generators = inputs.FOUR_ORBIT
        group = cn.closure_enumerate([cn.parse_cycles(g, d + 1) for g in generators], d + 1)
        self.cn = cn
        self.omega = cn.Omega(cn.sft_graph_for_group(group), group)
        self.elements = [
            (cn.element_from_dict(a, group), cn.element_from_dict(b, group))
            for a, b in self.pairs
        ]

    def op(self, i):
        cn, omega = self.cn, self.omega
        a, b = self.elements[i]
        composite = cn.compose(a, b)
        inverse = composite.inverse()
        bridge = cn.bisection_to_element(
            cn.compose_bisections(
                cn.element_to_bisection(a, omega),
                cn.element_to_bisection(b, omega),
                omega.graph,
            ),
            omega,
        )
        return json.dumps([cn.element_to_dict(e) for e in (composite, inverse, bridge)])

    def check(self, i, output):
        composite, inverse, bridge = json.loads(output)
        a, b = self.pairs[i]
        rng = random.Random("deep-check:%d:%d" % (self.seed, i))
        problems, C, words = _action_problems(a, b, composite, [self.frame] * 3, rng)
        if bridge != composite:
            problems.append("the bridge route and the tree-pair route differ")
        I = Action(inverse, self.frame)
        unwords = probe_words(rng, I, max(len(w) for w in composite["range"]) + 2)
        try:
            if any(I(C(w)) != w for w in words) or any(C(I(u)) != u for u in unwords):
                problems.append("the inverse does not undo the composite")
        except ValueError as exc:
            problems.append(str(exc))
        return problems


class Neretin:
    """One in-process ``coloured-neretin compose A.json B.json`` request on
    element files over Sym(7)."""

    name = "neretin"
    rate = 4.5

    def __init__(self, seed, ops, workdir):
        self.seed = seed
        self.pairs = inputs.neretin_inputs(seed, ops)
        self.paths = inputs.write_pairs(self.pairs, workdir)

    def setup(self):
        self.cli = importlib.import_module(PACKAGE + ".cli")

    def op(self, i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.cli.main(["compose", *self.paths[i]])
        return status, out.getvalue()

    def check(self, i, output):
        status, text = output
        if status != 0:
            return ["exit status %d" % status]
        composite = json.loads(text)
        a, b = self.pairs[i]
        known = {}
        frames = []
        for e in (a, b, composite):
            key = frozenset(inputs.parse_cycle_text(g, e["d"] + 1) for g in e["F_generators"])
            if key not in known:
                known[key] = Frame(e["d"], e["F_generators"])
            frames.append(known[key])
        if frames[2].order != 5040:
            return ["the composite's F has order %d, not 5040" % frames[2].order]
        rng = random.Random("neretin-check:%d:%d" % (self.seed, i))
        return _action_problems(a, b, composite, frames, rng)[0]


class Certify:
    """The certificate bundle of the paper's numeric claims."""

    name = "certify"
    rate = 3.5
    XI_TOTAL = 12
    MAX_D = 8
    RADII = (1, 2, 3)

    def __init__(self, seed, ops, workdir):
        self.partitions = [
            p for d in range(2, self.MAX_D + 1) for p in closed_forms.partitions(d + 1)
        ]
        # the seed only fixes the order in which the bundle visits partitions
        random.Random("certify:%d" % seed).shuffle(self.partitions)

    def setup(self):
        self.covolume = importlib.import_module(PACKAGE + ".covolume")
        self.abelianization = importlib.import_module(PACKAGE + ".abelianization")

    def op(self, i):
        cov, ab = self.covolume, self.abelianization
        xi = cov.verify_xi_claims(self.XI_TOTAL)
        rows = []
        for parts in self.partitions:
            exact = cov.verify_smallest_inequality(parts)
            # the single orbit at d = 2 is the equality case: no interval
            # can exclude zero there
            interval = None if parts == (3,) else cov.smallest_log_sign(parts)[0]
            abel = ab.vf_abelianization(parts)
            balls = [cov.ball_counts(parts, n) for n in self.RADII]
            rows.append(
                (
                    parts,
                    exact.holds,
                    exact.equality,
                    interval,
                    abel.determinant,
                    abel.two_torsion_rank,
                    abel.invariant_factors,
                    [(c.sphere, c.sym_product_order, c.aut_ball_order) for c in balls],
                )
            )
        counts = (xi.append_checked, xi.merge_checked, xi.tail_checked)
        return counts, len(xi.failures), len(xi.undecided), rows

    def check(self, i, output):
        counts, failures, undecided, rows = output
        problems = []
        if counts != closed_forms.xi_counts(self.XI_TOTAL):
            problems.append("xi instance counts %r" % (counts,))
        if failures or undecided:
            problems.append("xi claims: %d failed, %d undecided" % (failures, undecided))
        for parts, holds, equality, interval, det, rank, factors, balls in rows:
            want = closed_forms.inequality_holds(parts)
            if holds != want or equality != (parts == (3,)):
                problems.append("%r: exact verdict" % (parts,))
            if parts != (3,) and interval != (1 if want else -1):
                problems.append("%r: interval sign %r" % (parts, interval))
            det_want = closed_forms.determinant(parts)
            if det != det_want or prod(factors) != abs(det_want):
                problems.append("%r: determinant %d" % (parts, det))
            if rank != closed_forms.two_torsion_rank(parts):
                problems.append("%r: two-torsion rank %d" % (parts, rank))
            if balls != [closed_forms.ball_counts(parts, n) for n in self.RADII]:
                problems.append("%r: ball counts" % (parts,))
        return problems


WORKLOADS = {w.name: w for w in (Deep, Neretin, Certify)}
