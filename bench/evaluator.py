"""Boundary action of element files, computed from the definition alone.

This is the benchmark's own route to an element's action and shares no
code with the package.  It enumerates F from the generators, takes f_chi as
the first element of F in image-tuple order that sends chi to the least
colour of its orbit, and sends a word w = leaf + tail to
image(leaf) + transported tail, where a tail letter c below a src-coloured
vertex goes to f_dst^-1(f_src(c)) below the dst-coloured image vertex: the
child of the same rank in the plane order.
"""

from __future__ import annotations

from inputs import orbit_index, parse_cycle_text


def enumerate_group(generator_images, degree):
    """All elements of <generators> as image tuples, sorted."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in generator_images:
                y = tuple(map(g.__getitem__, x))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return sorted(seen)


class Frame:
    """F's canonical maps f_chi and their inverses, for one element file."""

    def __init__(self, d, generators):
        degree = d + 1
        images = [parse_cycle_text(g, degree) for g in generators]
        elements = enumerate_group(images, degree)
        orbit_of = orbit_index(images, degree)
        self.d = d
        self.order = len(elements)
        self.rep = [
            min(y for y in range(degree) if orbit_of[y] == orbit_of[x]) for x in range(degree)
        ]
        self.f = []
        self.f_inv = []
        for chi in range(degree):
            f = next(g for g in elements if g[chi] == self.rep[chi])
            inv = [0] * degree
            for x, y in enumerate(f):
                inv[y] = x
            self.f.append(f)
            self.f_inv.append(tuple(inv))

    def transport(self, src, dst, tail):
        out = []
        for c in tail:
            c2 = self.f_inv[dst][self.f[src][c]]
            out.append(c2)
            src, dst = c, c2
        return tuple(out)


class Action:
    """w -> element(w) for words that extend a domain leaf."""

    def __init__(self, element, frame):
        self.frame = frame
        range_ = [tuple(w) for w in element["range"]]
        self.image = {
            tuple(v): range_[k] for v, k in zip(element["domain"], element["kappa"])
        }
        self.depth = max(len(v) for v in self.image)
        self.leaves = list(self.image)

    def __call__(self, word):
        for k in range(1, len(word) + 1):
            image = self.image.get(word[:k])
            if image is not None:
                return image + self.frame.transport(word[k - 1], image[-1], word[k:])
        raise ValueError("word %r does not reach a domain leaf" % (word,))


def random_extension(rng, word, d, length):
    """``word`` extended by random no-repeat letters to ``length`` letters."""
    word = list(word)
    while len(word) < length:
        if word:
            c = rng.randrange(d)
            word.append(c + (c >= word[-1]))
        else:
            word.append(rng.randrange(d + 1))
    return tuple(word)


def probe_words(rng, action, length):
    """One random word of ``length`` letters below every domain leaf, so
    that every leaf of the element is tested."""
    return [random_extension(rng, leaf, action.frame.d, length) for leaf in action.leaves]
