"""Oracle for ``coloured_neretin.shift_model.validate_bisection``.

``seed_validate_bisection`` is the check as it ran before the per-side
adjacent-prefix test and the inline step costs: every pair's labels,
offset and terminal orbits, then the overlap scan and the mass of each
side, for every bisection.  ``validate_bisection`` must give the same
list of problems.
"""

from collections import Counter
from fractions import Fraction

from coloured_neretin.shift_model import PathError, check_path, edge_length


def _partition_problems(paths, graph, side):
    """Overlaps, reported for each pair i < j in that order, then the mass.

    In label order the extensions of a path directly follow it, so a
    forward scan from each path that stops at the first non-extension
    finds every overlapping pair once.
    """
    order = sorted(range(len(paths)), key=paths.__getitem__)
    overlaps = []
    for k, i in enumerate(order):
        p = paths[i]
        for j in order[k + 1 :]:
            if paths[j][: len(p)] != p:
                break
            overlaps.append((min(i, j), max(i, j)))
    problems = [
        "%s paths %r and %r overlap (one is a prefix of the other)"
        % (side, paths[i], paths[j])
        for i, j in sorted(overlaps)
    ]
    # each cylinder's mass over the common denominator (d+1) d^(D-1)
    d = graph.d
    lengths = Counter(map(len, paths))
    D = max(lengths, default=1)
    numerator = sum(count * d ** (D - k) for k, count in lengths.items())
    mass = Fraction(numerator, (d + 1) * d ** (D - 1))
    if mass != 1:
        problems.append("%s cylinders cover mass %s instead of 1" % (side, mass))
    return problems


def seed_validate_bisection(bisection, graph):
    """The list of problems of the bisection, empty when it is valid.

    Never raises on mathematically bad data: bad labels, offsets and
    terminal orbits are reported per pair, and only when every pair is
    sound are the overlaps and masses of both sides checked.
    """
    orbit_of = graph.orbit_of
    problems = []
    for index, (source, offset, target) in enumerate(bisection.pairs):
        try:
            want = edge_length(source, graph) - edge_length(target, graph)
        except (KeyError, IndexError):  # not two paths: name each defect
            for path in (source, target):
                try:
                    check_path(path, graph)
                except PathError as exc:
                    problems.append("pair %d: %s" % (index, exc))
            continue
        if problems:
            continue
        ends = orbit_of[source[-1]], orbit_of[target[-1]]
        if ends[0] != ends[1]:
            problems.append(
                "pair %d: source ends at orbit vertex %d but target at %d"
                % ((index,) + ends)
            )
        if offset != want:
            problems.append(
                "pair %d: offset %d does not match edge length difference %d"
                % (index, offset, want)
            )
    if not problems:
        problems.extend(_partition_problems(bisection.sources(), graph, "source"))
        problems.extend(_partition_problems(bisection.targets(), graph, "target"))
    return problems
