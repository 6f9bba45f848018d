"""Exact arithmetic in V_F: tree-pair elements and their group operations.

An element is a pair of finite complete subtrees (domain, range) together
with its leaf map: a bijection from the domain leaves onto the range leaves
that sends each leaf to a leaf whose colour lies in the same orbit of F.
Below the leaves it acts as the unique order-preserving extension
determined by the plane order.  Elements form a group under composition of
the boundary actions; each equivalence class has a unique reduced
representative (no contractible cherry), which is the canonical form used
throughout.  Element files index the leaf map as ``kappa``; that list is
validated once, in :func:`make_element`, and read back from the map.

The module also houses the sign homomorphisms: the parity of the leaf
permutation restricted to the leaves coloured in an invariant subset D',
together with the exact criteria for when that parity descends to the
group (and to the bigger closure containing non-order-preserving
elements), and the translation elements used to produce purely infinite
dynamics witnesses on clopen subsets of the boundary.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .permutations import (
    NotInvariant,
    Permutation,
    closure_enumerate,
    cycle_string,
    parse_cycles,
    stabilizer_restriction_in_alt,
)
from .tree import (
    CompleteSubtree,
    admissible_child_colours,
    check_address,
    is_prefix,
    plane_for,
)


class SizeMismatch(ValueError):
    """Domain and range leaf sets have different cardinalities."""


class OrbitViolation(ValueError):
    """The leaf map sends some leaf to a leaf whose colour lies in a different orbit."""


class NotWellDefined(ValueError):
    """The requested class-level sign depends on the representative."""


class PrefixTooShort(ValueError):
    """The word does not reach past a domain leaf.

    ``needed_depth`` is the smallest length sufficient for every extension
    of the offending word.
    """

    def __init__(self, message, needed_depth):
        super().__init__(message)
        self.needed_depth = needed_depth


@dataclass(frozen=True)
class SignValue:
    value: int
    subset: tuple

    def __post_init__(self):
        assert self.value in (1, -1)


class TreePairElement:
    """(domain tree, range tree, leaf map), not necessarily reduced.

    ``pairs`` maps each leaf of ``domain`` to its image, a leaf of
    ``range_``; the element keeps it as its leaf map.  Construction checks
    the tree arity, that the map is a bijection of the two leaf sets and the
    orbit condition; use :func:`make_element` to build from file data and
    reduce.
    """

    __slots__ = ("group", "plane", "domain", "range", "_map", "_reduced")

    def __init__(self, group, domain, range_, pairs):
        if domain.d != group.d or range_.d != group.d:
            raise ValueError("tree arity does not match the colour group degree")
        if len(domain) != len(range_):
            raise SizeMismatch(
                "domain has %d leaves, range has %d" % (len(domain), len(range_))
            )
        if (
            pairs.keys() != domain._index.keys()
            or set(pairs.values()) != range_._index.keys()
        ):
            raise ValueError("the leaf map is not a bijection of the leaf sets")
        orbit_of = group.orbit_of
        for leaf, image in pairs.items():
            if orbit_of[leaf[-1]] != orbit_of[image[-1]]:
                raise OrbitViolation(
                    "leaf %r (colour %d) maps to %r (colour %d) across orbits"
                    % (leaf, leaf[-1], image, image[-1])
                )
        self.group = group
        self.plane = plane_for(group)
        self.domain = domain
        self.range = range_
        self._map = pairs
        self._reduced = False

    # -- basic protocol ----------------------------------------------------

    @property
    def kappa(self):
        """``kappa[i]`` is the index in ``range.leaves`` of the image of
        ``domain.leaves[i]``."""
        index = self.range.leaf_index
        return tuple(index(self._map[v]) for v in self.domain.leaves)

    def leaf_image(self, leaf):
        return self._map[tuple(leaf)]

    def __eq__(self, other):
        return (
            isinstance(other, TreePairElement)
            and self.group == other.group
            and self._map == other._map
        )

    def __hash__(self):
        return hash((self.domain, self.range))

    def __repr__(self):
        return "TreePairElement(%d leaves, d=%d)" % (len(self.domain), self.group.d)

    def is_identity(self):
        """Whether every leaf maps to itself: a leaf's cylinder is fixed
        exactly when the leaf is, and then so is each word below it."""
        return all(v == w for v, w in self._map.items())

    # -- expansion and reduction -------------------------------------------

    def expand_at(self, leaf):
        """Equivalent element with the domain expanded at ``leaf`` (and the
        range at its image); new children matched positionally in plane order."""
        leaf = tuple(leaf)
        if leaf not in self.domain:
            raise ValueError("leaf %r not in the domain tree" % (leaf,))
        pairs = dict(self._map)
        image = pairs.pop(leaf)
        pairs.update(zip(self.plane.children(leaf), self.plane.children(image)))
        return _from_pairs(self.group, pairs)

    def reduce(self):
        """The canonical minimal representative (exhaustive cherry contraction).

        A cherry is an internal nonroot vertex u of the domain all of whose
        children are leaves mapped, in plane order, exactly onto the
        plane-ordered children of a single vertex u' of the range;
        contracting it makes u a leaf mapped to u'.  Distinct cherries never
        share a leaf, so contractions commute and the result does not depend
        on their order.  Only the parent of a contracted vertex can become a
        new cherry, so candidates are kept on a worklist and the leaf map is
        contracted in place; both trees are built once, at the end.  Returns
        self when there is nothing to contract; the result is marked reduced.
        """
        if self._reduced:
            return self
        pairs = dict(self._map)
        work = {v[:-1] for v in pairs if len(v) >= 2}
        while work:
            u = work.pop()
            children = self.plane.children(u)
            images = [pairs.get(c) for c in children]
            if None in images or images != self.plane.children(images[0][:-1]):
                continue
            for child in children:
                del pairs[child]
            pairs[u] = images[0][:-1]
            if len(u) >= 2:
                work.add(u[:-1])
        reduced = _from_pairs(self.group, pairs) if len(pairs) < len(self._map) else self
        reduced._reduced = True
        return reduced

    # -- group operations ----------------------------------------------------

    def inverse(self):
        inverse_map = {w: v for v, w in self._map.items()}
        inverse = TreePairElement(self.group, self.range, self.domain, inverse_map)
        # a cherry of the inverse is a cherry of self read backwards
        inverse._reduced = self._reduced
        return inverse.reduce()

    def __mul__(self, other):
        """self after other (``(self*other)(x) = self(other(x))``)."""
        return compose(self, other)

    # -- boundary action -----------------------------------------------------

    def apply_to_prefix(self, word):
        """Image of a cylinder prefix: range leaf plus order-preserving
        transport of the tail.  The word must extend some domain leaf."""
        word = check_address(word, self.group.d)
        leaf = self.domain.leaf_containing(word)
        if leaf is None:
            needed = max(len(v) for v in self.domain.leaves if is_prefix(word, v))
            raise PrefixTooShort(
                "%r stops short of the domain leaves; depth %d always suffices"
                % (word, needed),
                needed,
            )
        image = self._map[leaf]
        tail = word[len(leaf):]
        return image + self.plane.transport_tail(leaf[-1], image[-1], tail)


def _addresses(leaves, field):
    """The leaves as tuples, each letter checked to be an int (not a bool)."""
    words = [tuple(w) for w in leaves]
    # the types in one pass at C speed; the loop below only names a failure
    if not set(map(type, chain.from_iterable(words))) <= {int}:
        for i, word in enumerate(words):
            for j, c in enumerate(word):
                if type(c) is not int:
                    raise ValueError("%s[%d][%d] is not an integer: %r" % (field, i, j, c))
    return words


def make_element(domain_leaves, range_leaves, bijection, group):
    """Validated, reduced element from leaf lists and a bijection.

    ``bijection`` is either a dict mapping domain addresses to range
    addresses, or a list of integers (``kappa``) sending the i-th given
    domain leaf to the bijection[i]-th given range leaf.  Every letter of a
    leaf, a key or a value must be an int (not a bool).
    """
    domain_leaves = _addresses(domain_leaves, "domain")
    range_leaves = _addresses(range_leaves, "range")
    domain = CompleteSubtree(group.d, domain_leaves)
    range_ = CompleteSubtree(group.d, range_leaves)
    if isinstance(bijection, dict):
        pairs = dict(zip(
            _addresses(bijection, "bijection keys"),
            _addresses(bijection.values(), "bijection values"),
        ))
    else:
        kappa = list(bijection)
        for i, k in enumerate(kappa):
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError("kappa[%d] is not an integer: %r" % (i, k))
        n = len(range_leaves)
        if sorted(kappa) != list(range(n)):
            if len(kappa) != n:
                raise ValueError("kappa has %d entries, expected %d" % (len(kappa), n))
            for i, k in enumerate(kappa):
                if not 0 <= k < n:
                    raise ValueError("kappa[%d] = %d is out of range" % (i, k))
            duplicate = next(k for k in kappa if kappa.count(k) > 1)
            raise ValueError("kappa is not a bijection: duplicate index %d" % duplicate)
        pairs = dict(zip(domain_leaves, [range_leaves[k] for k in kappa]))
    return TreePairElement(group, domain, range_, pairs).reduce()


def identity_element(group):
    return _from_pairs(group, {(c,): (c,) for c in range(group.d + 1)})


def _from_pairs(group, pairs):
    """The element sending each key of ``pairs`` (domain leaf) to its value
    (range leaf), trusting both leaf sets to be complete, as trees derived
    from validated ones are; the element still checks the leaf map."""
    domain = CompleteSubtree._trusted(group.d, pairs)
    range_ = CompleteSubtree._trusted(group.d, pairs.values())
    return TreePairElement(group, domain, range_, pairs)


def compose(a, b):
    """The element acting as a after b on the boundary, reduced: both
    composite trees are built once from the leaf map on the common
    refinement, then reduced."""
    if a.group != b.group:
        raise ValueError("parameter mismatch: elements live over different colour groups")
    return _from_pairs(a.group, _composite_pairs(a, b)).reduce()


def _composite_pairs(a, b):
    """The leaf map of a after b on the common refinement of b's range and
    a's domain, unreduced.

    Both leaf lists are sorted and complete, so their first unconsumed
    leaves t (of b's range) and s (of a's domain) are always comparable,
    and one merge finds the refinement: the longer of t and s is the next
    middle leaf m, stepped past in its own list, and the shorter is
    stepped past once the next leaf of the other list no longer extends
    it.  m comes from b^{-1}(t) followed by the tail of m below t,
    transported, and goes to a(s) followed by the tail of m below s,
    transported.
    """
    b_inverse = {w: v for v, w in b._map.items()}
    transport_tail = a.plane.transport_tail
    ts, ss = b.range.leaves, a.domain.leaves
    pairs = {}
    i = j = 0
    while i < len(ts):  # the lists end together
        t, s = ts[i], ss[j]
        if len(t) >= len(s):
            m = t
            i += 1
            if i == len(ts) or ts[i][: len(s)] != s:
                j += 1
        else:
            m = s
            j += 1
            if j == len(ss) or ss[j][: len(t)] != t:
                i += 1
        u, image = b_inverse[t], a._map[s]
        source = u + transport_tail(t[-1], u[-1], m[len(t):])
        pairs[source] = image + transport_tail(s[-1], image[-1], m[len(s):])
    return pairs


# -- signs -------------------------------------------------------------------


def _check_invariant_subset(group, subset):
    subset = tuple(sorted(set(subset)))
    for c in subset:
        if not 0 <= c <= group.d:
            raise ValueError("colour %d outside 0..%d" % (c, group.d))
    if not group.is_invariant(subset):
        raise NotInvariant("subset %s is not invariant under the colour group" % (list(subset),))
    return subset


def is_sign_well_defined(group, subset, target="vf"):
    """Whether the parity of the leaf permutation on subset-coloured leaves
    is representative-independent.

    target "vf": invariance of the subset and even cardinality.
    target "nf": additionally, for every colour chi, the stabilizer of chi
    must restrict to even permutations of the subset (this is what extends
    the homomorphism past the locally order-preserving elements).
    """
    if target not in ("vf", "nf"):
        raise ValueError("target must be 'vf' or 'nf'")
    subset = tuple(sorted(set(subset)))
    if any(not 0 <= c <= group.d for c in subset):
        raise ValueError("subset contains colours outside 0..%d" % group.d)
    if not group.is_invariant(subset):
        return False
    if len(subset) % 2:
        return False
    if target == "nf":
        return all(
            stabilizer_restriction_in_alt(group, chi, subset)
            for chi in range(group.degree)
        )
    return True


def sign(e, subset, mode="class", target="vf"):
    """Sign of the leaf permutation restricted to subset-coloured leaves.

    honest mode: the parity for the element's own trees, of the permutation
    that sends the k-th subset-coloured domain leaf in plane order to the
    position of its image among the subset-coloured range leaves (the k-th
    subset-coloured range leaf is identified with the k-th domain leaf).

    class mode: refuses representative-dependent data (NotWellDefined) and
    otherwise returns the homomorphism value, computed on the reduced form.
    """
    if mode not in ("honest", "class"):
        raise ValueError("mode must be 'honest' or 'class'")
    subset = _check_invariant_subset(e.group, subset)
    if mode == "class":
        if not is_sign_well_defined(e.group, subset, target):
            raise NotWellDefined(
                "sign on %s is representative-dependent for this colour group"
                % (list(subset),)
            )
        e = e.reduce()
    plane = e.plane
    dom = plane.lex_sorted(v for v in e.domain.leaves if v[-1] in subset)
    ran = plane.lex_sorted(w for w in e.range.leaves if w[-1] in subset)
    assert len(dom) == len(ran)
    position = {w: k for k, w in enumerate(ran)}
    return SignValue(Permutation([position[e.leaf_image(v)] for v in dom]).parity(), subset)


def find_sign_violation(group, subset):
    """An explicit (element, expanded element) pair with different honest
    signs, for an invariant subset of odd cardinality.

    Construction: swap two leaves of B_2 coloured chi in the subset, then
    expand at both swapped leaves; the swap contributes a transposition, the
    expansion replaces it by |subset|-1 transpositions of matched children.
    """
    subset = _check_invariant_subset(group, subset)
    if not subset or len(subset) % 2 == 0:
        raise ValueError("violations exist exactly for odd nonempty invariant subsets")
    chi = subset[0]
    others = [a for a in range(group.d + 1) if a != chi]
    v1 = (others[0], chi)
    v2 = (others[1], chi)
    pairs = {v: v for v in CompleteSubtree.ball(group.d, 2).leaves}
    pairs[v1], pairs[v2] = v2, v1
    element = _from_pairs(group, pairs)
    expanded = element.expand_at(v1).expand_at(v2)
    assert sign(element, subset, mode="honest").value != sign(
        expanded, subset, mode="honest"
    ).value
    return element, expanded


# -- constructors from other data ---------------------------------------------


def element_from_local_data(group, local):
    """The element acting with the given local colour permutations at
    finitely many vertices and by canonical order-preserving transport
    everywhere else.

    ``local`` maps vertex addresses to permutations in the colour group.
    Data at a nonroot vertex v must be consistent: it has to send col(v) to
    the colour of v's image, which is determined by the data above v.
    """
    plane = plane_for(group)
    d = group.d
    normalized = {}
    for v, p in local.items():
        v = check_address(v, d)
        if isinstance(p, str):
            p = parse_cycles(p, group.degree)
        if p not in group:
            raise ValueError(
                "local permutation %s at %r is not in the colour group" % (p, v)
            )
        normalized[v] = p

    def image_of(word):
        img = ()
        for k, c in enumerate(word):
            prefix = word[:k]
            if prefix in normalized:
                img += (normalized[prefix](c),)
            elif k == 0:
                img += (c,)
            else:
                img += plane.transport_tail(prefix[-1], img[-1], (c,))
        return img

    for v, p in normalized.items():
        if v:
            image = image_of(v)
            if p(v[-1]) != image[-1]:
                raise ValueError(
                    "inconsistent local data at %r: %s should send colour %d to %d"
                    % (v, p, v[-1], image[-1])
                )

    depth = max((len(v) for v in normalized), default=0) + 1
    domain = CompleteSubtree.ball(d, depth)
    pairs = {leaf: image_of(leaf) for leaf in domain.leaves}
    return make_element(domain.leaves, sorted(pairs.values()), pairs, group)


def _free_reduce(left, right):
    """Concatenate two no-repeat words with cancellation of equal adjacent
    letters (each letter is an involution)."""
    stack = list(left)
    for c in right:
        if stack and stack[-1] == c:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def translation_element(group, word):
    """The element translating boundary addresses by ``word`` on the left.

    Addresses are words in the free product of d+1 involutions (one per
    colour); left multiplication by a fixed reduced word, with free
    reduction, is a homeomorphism of the boundary that preserves every tail
    letterwise, hence defines an element over any colour group.
    """
    word = check_address(word, group.d)
    if not word:
        return identity_element(group)
    cancel_ray = tuple(reversed(word))
    leaves = []
    for t in range(len(cancel_ray)):
        prefix = cancel_ray[:t]
        for c in admissible_child_colours(prefix, group.d):
            if c != cancel_ray[t]:
                leaves.append(prefix + (c,))
    leaves.extend(
        cancel_ray + (c,) for c in admissible_child_colours(cancel_ray, group.d)
    )
    pairs = {u: _free_reduce(word, u) for u in leaves}
    return make_element(leaves, sorted(pairs.values()), pairs, group)


def purely_infinite_witness(group, cylinders):
    """Two elements g, h with g(U) and h(U) disjoint and both inside U,
    for U a proper nonempty clopen union of the given disjoint cylinders.

    Both are translations: pick a vertex v with cylinder disjoint from U and
    two incomparable vertices w1, w2 inside U whose colours differ from
    col(v); left multiplication by w_i v^{-1} maps the complement of the
    v-cylinder into the w_i-cylinder (after the v-prefix cancels, the first
    surviving letter is col(v), which cannot cancel into w_i).
    """
    d = group.d
    cyls = [check_address(u, d) for u in cylinders]
    if not cyls:
        raise ValueError("U is empty")
    for i in range(len(cyls)):
        for j in range(i + 1, len(cyls)):
            if is_prefix(cyls[i], cyls[j]) or is_prefix(cyls[j], cyls[i]):
                raise ValueError(
                    "cylinders %r and %r overlap" % (cyls[i], cyls[j])
                )
    mass = Fraction(0)
    for u in cyls:
        mass += Fraction(1) if not u else Fraction(1, (d + 1) * d ** (len(u) - 1))
    if mass == 1:
        raise ValueError("U is the whole boundary")
    assert mass < 1

    outside = None
    queue = deque([()])
    while queue and outside is None:
        u = queue.popleft()
        for c in admissible_child_colours(u, d):
            child = u + (c,)
            if any(is_prefix(cyl, child) for cyl in cyls):
                continue
            if any(is_prefix(child, cyl) for cyl in cyls):
                queue.append(child)
                continue
            outside = child
            break
    assert outside is not None, "a proper clopen set misses some cylinder"

    anchor = min(cyls)
    first_two = admissible_child_colours(anchor, d)[:2]
    targets = []
    for a in first_two:
        x = anchor + (a,)
        if a != outside[-1]:
            targets.append(x)
        else:
            y = min(c for c in range(d + 1) if c != a)
            targets.append(x + (y,))
    back = tuple(reversed(outside))
    g = translation_element(group, _free_reduce(targets[0], back))
    h = translation_element(group, _free_reduce(targets[1], back))
    return g, h


# -- random elements -----------------------------------------------------------


def random_element(group, rng, expansions=6):
    """Random reduced element: each step expands a random domain leaf and a
    random range leaf of the same colour orbit (so the trees may differ in
    depth), then a shuffled orbit-respecting matching pairs the leaves."""
    d, orbit_of = group.d, group.orbit_of
    sides = [[(c,) for c in range(d + 1)], [(c,) for c in range(d + 1)]]
    for _ in range(expansions):
        v = rng.choice(sides[0])
        w = rng.choice([u for u in sides[1] if orbit_of[u[-1]] == orbit_of[v[-1]]])
        for leaves, leaf in zip(sides, (v, w)):
            leaves.remove(leaf)
            leaves.extend(leaf + (c,) for c in admissible_child_colours(leaf, d))
    domain, range_ = sides
    pairs = {}
    for orbit in range(len(group.orbits)):
        targets = [w for w in range_ if orbit_of[w[-1]] == orbit]
        rng.shuffle(targets)
        sources = [v for v in domain if orbit_of[v[-1]] == orbit]
        pairs.update(zip(sources, targets))
    return _from_pairs(group, pairs).reduce()


# -- serialization ---------------------------------------------------------------


def element_to_dict(e):
    """JSON-ready dict; elements are always written in reduced form."""
    e = e.reduce()
    return {
        "d": e.group.d,
        "F_generators": [cycle_string(g) for g in e.group.generators],
        "domain": [list(v) for v in e.domain.leaves],
        "range": [list(w) for w in e.range.leaves],
        "kappa": list(e.kappa),
    }


def _check_element_shape(data):
    """Raise a ValueError naming the first field of an element file whose
    JSON shape is wrong; the letters and values are checked by make_element."""
    if not isinstance(data, dict):
        raise ValueError("element file must hold a JSON object")
    for field in ("d", "domain", "range", "kappa"):
        if field not in data:
            raise ValueError("element file is missing the %r field" % field)
    if not isinstance(data["d"], int) or data["d"] < 2:
        raise ValueError("d must be an integer >= 2")
    generators = data.get("F_generators", [])
    if not isinstance(generators, (list, tuple)):
        raise ValueError("F_generators is not a list of strings")
    for i, text in enumerate(generators):
        if not isinstance(text, str):
            raise ValueError("F_generators[%d] is not a string: %r" % (i, text))
    for field in ("domain", "range"):
        leaves = data[field]
        if not isinstance(leaves, (list, tuple)):
            raise ValueError("%s is not a list of addresses" % field)
        # the types in one pass at C speed; the loop below only names a failure
        if set(map(type, leaves)) <= {list, tuple}:
            continue
        for i, leaf in enumerate(leaves):
            if not isinstance(leaf, (list, tuple)):
                raise ValueError("%s[%d] is not a list of colours" % (field, i))
    if not isinstance(data["kappa"], (list, tuple)):
        raise ValueError("kappa is not a list")


def element_from_dict(data, group=None):
    """Inverse of element_to_dict; a pre-built group overrides the generator
    field (callers must then ensure it matches)."""
    _check_element_shape(data)
    d = data["d"]
    if group is None:
        generators = []
        for i, text in enumerate(data.get("F_generators", [])):
            try:
                generators.append(parse_cycles(text, d + 1))
            except ValueError as exc:
                raise ValueError("F_generators[%d]: %s" % (i, exc)) from None
        group = closure_enumerate(generators, d + 1)
    return make_element(data["domain"], data["range"], data["kappa"], group)
