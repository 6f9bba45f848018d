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

from bisect import bisect_right
from collections import Counter, deque
from itertools import chain
from operator import itemgetter

from .permutations import (
    Permutation,
    _stabilizers_restrict_evenly,
    closure_enumerate,
    cycle_string,
    parse_cycles,
)
from .tree import (
    CompleteSubtree,
    IncompleteTree,
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


class TreePairElement:
    """(domain tree, range tree, leaf map), not necessarily reduced.

    ``pairs`` maps each leaf of ``domain`` to its image, a leaf of
    ``range_``; the element keeps it as its leaf map.  The constructor
    trusts its arguments: a bijection of the two leaf sets that respects
    the orbits, as the maps the element algebra derives are.  Outside data
    enters through :func:`make_element`, which checks it and reduces.
    """

    __slots__ = ("group", "plane", "domain", "range", "_map", "_reduced")

    def __init__(self, group, domain, range_, pairs):
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
        position = {w: i for i, w in enumerate(self.range.leaves)}
        return tuple(position[self._map[v]] for v in self.domain.leaves)

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
        if leaf not in self._map:
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
        contracting it makes u a leaf mapped to u'.  ``_contract`` contracts
        a copy of the leaf map, and both trees are built once, from the
        result.  Returns self when there is nothing to contract; the result
        is marked reduced.
        """
        if self._reduced:
            return self
        pairs = dict(self._map)
        _contract(pairs, self.plane, self.group.d)
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
        return image + self.plane.transport_tail(leaf[-1], image[-1], word[len(leaf):])


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
    leaf, a key or a value must be an int (not a bool).  This is the one
    check of a leaf map: a bijection of complete leaf sets within F's orbits.
    """
    domain_leaves = [tuple(w) for w in domain_leaves]
    try:
        domain = CompleteSubtree(group.d, domain_leaves)
        range_leaves = [tuple(w) for w in range_leaves]
        range_ = CompleteSubtree(group.d, range_leaves)
    except (IncompleteTree, TypeError):
        # name a letter that is not an int, the domain's first, before the
        # trees' refusal (an invalid address, or the TypeError of sorting
        # mixed letters)
        _addresses(domain_leaves, "domain")
        _addresses(range_leaves, "range")
        raise
    if isinstance(bijection, dict):
        pairs = dict(zip(
            _addresses(bijection, "bijection keys"),
            _addresses(bijection.values(), "bijection values"),
        ))
    else:
        kappa = list(bijection)
        # the types in one pass at C speed; the loop below only names a failure
        if not set(map(type, kappa)) <= {int}:
            for i, k in enumerate(kappa):
                if type(k) is not int:
                    raise ValueError("kappa[%d] is not an integer: %r" % (i, k))
        n = len(range_leaves)
        if sorted(kappa) != list(range(n)):
            if len(kappa) != n:
                raise ValueError("kappa has %d entries, expected %d" % (len(kappa), n))
            for i, k in enumerate(kappa):
                if not 0 <= k < n:
                    raise ValueError("kappa[%d] = %d is out of range" % (i, k))
            counts = Counter(kappa)
            duplicate = next(k for k in kappa if counts[k] > 1)
            raise ValueError("kappa is not a bijection: duplicate index %d" % duplicate)
        pairs = dict(zip(domain_leaves, [range_leaves[k] for k in kappa]))
    if len(domain) != len(range_):
        raise SizeMismatch("domain has %d leaves, range has %d" % (len(domain), len(range_)))
    if isinstance(bijection, dict) and (  # a kappa permuting range(n) is one already
        pairs.keys() != set(domain.leaves) or set(pairs.values()) != set(range_.leaves)
    ):
        raise ValueError("the leaf map is not a bijection of the leaf sets")
    orbit, last = group.orbit_of.__getitem__, itemgetter(-1)
    # the orbits in one pass at C speed; the loop below only names a violation
    if list(map(orbit, map(last, pairs))) != list(map(orbit, map(last, pairs.values()))):
        for leaf, image in pairs.items():
            if orbit(leaf[-1]) != orbit(image[-1]):
                raise OrbitViolation(
                    "leaf %r (colour %d) maps to %r (colour %d) across orbits"
                    % (leaf, leaf[-1], image, image[-1])
                )
    return TreePairElement(group, domain, range_, pairs).reduce()


def identity_element(group):
    return _from_pairs(group, {(c,): (c,) for c in range(group.d + 1)})


def _contract(pairs, plane, d):
    """Contract every cherry of the leaf map ``pairs`` in place (see
    ``TreePairElement.reduce``).  Distinct cherries never share a leaf, so
    contractions commute and the result does not depend on their order.
    The candidates are the nonroot vertices with d leaf children, counted
    per parent; a contraction adds one to its parent's count."""
    counts = Counter(map(itemgetter(slice(None, -1)), pairs))
    work = [u for u, n in counts.items() if n == d and u]
    while work:
        u = work.pop()
        children = plane.children(u)
        images = [pairs.get(c) for c in children]
        if None in images or images != plane.children(images[0][:-1]):
            continue
        for child in children:
            del pairs[child]
        pairs[u] = images[0][:-1]
        counts[u[:-1]] += 1
        if counts[u[:-1]] == d and len(u) >= 2:
            work.append(u[:-1])


def _from_pairs(group, pairs):
    """The element sending each key of ``pairs`` (domain leaf) to its value
    (range leaf), trusting both leaf sets to be complete and the map to
    respect the orbits, as maps derived from validated ones do."""
    domain = CompleteSubtree._trusted(group.d, pairs)
    range_ = CompleteSubtree._trusted(group.d, pairs.values())
    return TreePairElement(group, domain, range_, pairs)


def compose(a, b):
    """The element acting as a after b on the boundary, reduced: the leaf
    map on the common refinement is contracted first, so that both
    composite trees are built once, from the reduced map."""
    if a.group != b.group:
        raise ValueError("parameter mismatch: elements live over different colour groups")
    pairs = _composite_pairs(a, b)
    _contract(pairs, a.plane, a.group.d)
    composite = _from_pairs(a.group, pairs)
    composite._reduced = True
    return composite


def _composite_pairs(a, b):
    """The leaf map of a after b on the common refinement of b's range and
    a's domain, unreduced.

    Both leaf lists are sorted and complete, so their first unconsumed
    leaves t (of b's range) and s (of a's domain) are always comparable,
    and one merge finds the refinement: the longer of t and s is the next
    middle leaf m, stepped past in its own list, and the shorter is
    stepped past once the next leaf of the other list no longer extends
    it (equal leaves are both stepped past).  m comes from u = b^{-1}(t)
    and goes to a(s), the one of them below the shorter leaf followed by
    the tail of m below it, transported.
    """
    b_inverse = {w: v for v, w in b._map.items()}
    transport_tail = a.plane.transport_tail
    ts, ss = b.range.leaves, a.domain.leaves
    pairs = {}
    i = j = 0
    while i < len(ts):  # the lists end together
        t, s = ts[i], ss[j]
        u, image = b_inverse[t], a._map[s]
        if len(t) > len(s):
            i += 1
            if i == len(ts) or ts[i][: len(s)] != s:
                j += 1
            image += transport_tail(s[-1], image[-1], t[len(s):])
        elif len(t) < len(s):
            j += 1
            if j == len(ss) or ss[j][: len(t)] != t:
                i += 1
            u += transport_tail(t[-1], u[-1], s[len(t):])
        else:
            i += 1
            j += 1
        pairs[u] = image
    return pairs


# -- signs -------------------------------------------------------------------


def _sign_defined(group, subset, target):
    """Whether the sign on ``subset``, already checked by
    ``ColourGroup.invariant_subset``, is a homomorphism on the target.

    target "vf": even cardinality.  target "nf": additionally, the
    stabilizer of every colour must restrict to even permutations of the
    subset (this is what extends the homomorphism past the locally
    order-preserving elements).  One colour per orbit decides that: the
    stabilizers of g(chi) and chi are conjugate by g, and restriction
    parity is a homomorphism on F, so it takes the same values on both.
    """
    if target not in ("vf", "nf"):
        raise ValueError("target must be 'vf' or 'nf'")
    if len(subset) % 2:
        return False
    return target == "vf" or _stabilizers_restrict_evenly(group, group.orbit_reps, subset)


def is_sign_well_defined(group, subset, target="vf"):
    """Whether the parity of the leaf permutation on subset-coloured leaves
    is representative-independent (see ``_sign_defined``).  ``subset`` must
    be an F-invariant set of colours."""
    return _sign_defined(group, group.invariant_subset(subset), target)


def sign(e, subset, mode="class", target="vf"):
    """Sign (+1 or -1) of the leaf permutation restricted to subset-coloured leaves.

    honest mode: the parity for the element's own trees, of the permutation
    that sends the k-th subset-coloured domain leaf in plane order to the
    position of its image among the subset-coloured range leaves (the k-th
    subset-coloured range leaf is identified with the k-th domain leaf).

    class mode: refuses representative-dependent data (NotWellDefined) and
    otherwise returns the homomorphism value, computed on the reduced form.
    """
    if mode not in ("honest", "class"):
        raise ValueError("mode must be 'honest' or 'class'")
    subset = e.group.invariant_subset(subset)
    if mode == "class":
        if not _sign_defined(e.group, subset, target):
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
    return Permutation([position[e.leaf_image(v)] for v in dom]).parity()


def find_sign_violation(group, subset):
    """An explicit (element, expanded element) pair with different honest
    signs, for an invariant subset of odd cardinality.

    Construction: swap two leaves of B_2 coloured chi in the subset, then
    expand at both swapped leaves; the swap contributes a transposition, the
    expansion replaces it by |subset|-1 transpositions of matched children.
    """
    subset = group.invariant_subset(subset)
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
    assert sign(element, subset, mode="honest") != sign(expanded, subset, mode="honest")
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

    In plain tuple order a vertex's extensions directly follow it, so the
    sorted cylinders overlap only in an adjacent pair, and one bisection
    finds a cylinder that holds a vertex or lies below it.
    """
    d = group.d
    cyls = sorted(check_address(u, d) for u in cylinders)
    if not cyls:
        raise ValueError("U is empty")
    for u, w in zip(cyls, cyls[1:]):
        if is_prefix(u, w):
            raise ValueError("cylinders %r and %r overlap" % (u, w))

    outside = None
    queue = deque([()])
    while queue and outside is None:
        u = queue.popleft()
        for c in admissible_child_colours(u, d):
            child = u + (c,)
            i = bisect_right(cyls, child)
            if i < len(cyls) and is_prefix(child, cyls[i]):
                queue.append(child)
            elif not (i and is_prefix(cyls[i - 1], child)):
                outside = child
                break
    if outside is None:  # every vertex lies in U or has a cylinder below it
        raise ValueError("U is the whole boundary")

    anchor = cyls[0]
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
    depth), then a shuffled orbit-respecting matching pairs the leaves.
    The range leaves are kept per orbit, each list in the order the leaves
    appeared, so that a step costs no scan of the whole range."""
    d, orbit_of = group.d, group.orbit_of
    domain = [(c,) for c in range(d + 1)]
    ranges = [[(c,) for c in orbit] for orbit in group.orbits]
    for _ in range(expansions):
        v = domain.pop(rng.randrange(len(domain)))
        targets = ranges[orbit_of[v[-1]]]
        w = targets.pop(rng.randrange(len(targets)))
        domain.extend(v + (c,) for c in admissible_child_colours(v, d))
        for c in admissible_child_colours(w, d):
            ranges[orbit_of[c]].append(w + (c,))
    pairs = {}
    for orbit, targets in enumerate(ranges):
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
    field (callers must then ensure it matches).  The element's leaves are
    the shared ``addresses`` of the group's plane, looked up (added when new)
    once ``make_element`` has found every letter an int, so that 1.0 or True
    is refused, not taken for 1; the elements derived from it add nothing."""
    _check_element_shape(data)
    d = data["d"]
    if len(data["domain"]) <= d:
        # a complete leaf set other than the bare root has at least d + 1
        # leaves, so this domain's own check fails, naming its defect at a
        # cost bounded by the file, before F costs O(d)
        CompleteSubtree(d, _addresses(data["domain"], "domain"))
    if group is None:
        generators = []
        for i, text in enumerate(data.get("F_generators", [])):
            try:
                generators.append(parse_cycles(text, d + 1))
            except ValueError as exc:
                raise ValueError("F_generators[%d]: %s" % (i, exc)) from None
        group = closure_enumerate(generators, d + 1)
    e = make_element(data["domain"], data["range"], data["kappa"], group)
    share, keys, images = e.plane.addresses.setdefault, e._map, e._map.values()
    e._map = dict(zip(map(share, keys, keys), map(share, images, images)))
    for tree in (e.domain, e.range):  # built for e alone
        tree.leaves = tuple(map(share, tree.leaves, tree.leaves))
    return e
