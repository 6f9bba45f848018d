"""Tests of the benchmark's own code: inputs, evaluator, checks and tracing.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random

import pytest

import run  # puts the package's src directory on sys.path
import closed_forms
import inputs
import tracing
from evaluator import Action, Frame, probe_words, random_extension
from workloads import Certify, Deep, Neretin

import coloured_neretin as cn

GROUPS = {
    "four-orbit": inputs.FOUR_ORBIT,
    "sym7": (6, inputs.relabelled_sym7(random.Random(3))),
    "trivial": (3, ()),
}


def package_group(d, generators):
    return cn.closure_enumerate([cn.parse_cycles(g, d + 1) for g in generators], d + 1)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_evaluator_agrees_with_apply_to_prefix(name):
    d, generators = GROUPS[name]
    group = package_group(d, generators)
    frame = Frame(d, generators)
    rng = random.Random(name)
    for k in range(12):
        if k == 0:
            element = cn.identity_element(group)
        else:
            word = random_extension(rng, (), d, rng.randrange(1, 5))
            element = cn.translation_element(group, word)
        action = Action(cn.element_to_dict(element), frame)
        for w in probe_words(rng, action, action.depth + 4):
            assert action(w) == element.apply_to_prefix(w)


def _swap_kappa(element):
    """Swap the images of two domain leaves whose images share an orbit."""
    kappa = element["kappa"]
    colour = [element["range"][k][-1] for k in kappa]
    orbit = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3}
    for i in range(len(kappa)):
        for j in range(i + 1, len(kappa)):
            if orbit[colour[i]] == orbit[colour[j]]:
                kappa[i], kappa[j] = kappa[j], kappa[i]
                return


def test_swapped_kappa_is_a_failed_op(tmp_path):
    workload = Deep(5, 1, str(tmp_path))
    workload.setup()
    output = workload.op(0)
    counter = run.Counter(workload)
    counter.check(0, output)
    assert (counter.attempted, counter.failed) == (1, 0)
    composite, inverse, bridge = json.loads(output)
    # swap in both routes, so that only the boundary action can tell
    _swap_kappa(composite)
    _swap_kappa(bridge)
    assert composite == bridge
    counter.check(0, json.dumps([composite, inverse, bridge]))
    assert (counter.attempted, counter.failed) == (2, 1)


def test_neretin_check_sees_a_swapped_kappa(tmp_path):
    workload = Neretin(2, 1, str(tmp_path))
    workload.setup()
    status, text = workload.op(0)
    assert workload.check(0, (status, text)) == []
    composite = json.loads(text)
    composite["kappa"][0], composite["kappa"][1] = composite["kappa"][1], composite["kappa"][0]
    assert workload.check(0, (status, json.dumps(composite)))
    assert workload.check(0, (1, ""))


def test_certify_check_uses_the_closed_forms(tmp_path):
    workload = Certify(1, 1, str(tmp_path))
    workload.XI_TOTAL = 6
    workload.partitions = [p for p in workload.partitions if sum(p) <= 5]
    workload.setup()
    counts, failures, undecided, rows = workload.op(0)
    assert workload.check(0, (counts, failures, undecided, rows)) == []
    parts, holds, *rest = rows[0]
    bad = [(parts, not holds, *rest)] + rows[1:]
    assert workload.check(0, (counts, failures, undecided, bad))
    assert workload.check(0, ((0, 0, 0), failures, undecided, rows))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_generator_changes_depth_and_is_not_the_identity(name):
    d, generators = GROUPS[name]
    frame = Frame(d, generators)
    rng = random.Random(name)
    for expansions in (3, 10, 24):
        element = inputs.random_element(rng, d, generators, expansions)
        action = Action(element, frame)
        assert any(len(v) != len(w) for v, w in action.image.items())
        words = probe_words(rng, action, action.depth + 2)
        assert any(action(w) != w for w in words)
        # the package accepts it as an element of V_F
        cn.element_from_dict(element, package_group(d, generators))


def test_same_seed_same_bytes(tmp_path):
    for make in (inputs.deep_inputs, inputs.neretin_inputs):
        first = [inputs.dumps(e) for pair in make(11, 4) for e in pair]
        again = [inputs.dumps(e) for pair in make(11, 4) for e in pair]
        other = [inputs.dumps(e) for pair in make(12, 4) for e in pair]
        assert first == again
        assert first != other
    paths = [
        inputs.write_pairs(inputs.neretin_inputs(11, 3), str(tmp_path / tag)) for tag in "xy"
    ]
    for x, y in zip(*paths):
        for px, py in zip(x, y):
            assert open(px, "rb").read() == open(py, "rb").read()


def test_closed_forms_match_small_cases():
    assert closed_forms.partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    report = cn.verify_xi_claims(9)
    assert closed_forms.xi_counts(9) == (
        report.append_checked,
        report.merge_checked,
        report.tail_checked,
    )
    for parts in closed_forms.partitions(5):
        for n in (1, 2, 3):
            counts = cn.ball_counts(parts, n)
            assert closed_forms.ball_counts(parts, n) == (
                counts.sphere,
                counts.sym_product_order,
                counts.aut_ball_order,
            )


def test_tracer_counts_and_restores(tmp_path):
    workload = Deep(3, 1, str(tmp_path))
    workload.setup()
    tracer = tracing.Tracer(cn)
    original = cn.tree.CompleteSubtree.__init__
    tracer.install()
    tracer.begin_op()
    workload.op(0)
    tracer.end_op()
    tracer.uninstall()
    assert cn.tree.CompleteSubtree.__init__ is original
    snap = tracer.snapshot()
    metrics = tracer.metrics(snap, 1, tracing.groups_alive(cn))
    assert metrics["tree.subtrees_built_per_op"][0] > 0
    assert metrics["shift_model.bisections_validated_per_op"][0] == 2
    assert metrics["almost_automorphisms.self_ms_per_op"][0] > 0
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path), snap)
    lines = path.read_text().splitlines()
    assert len(lines) == 2 + snap["records"]
