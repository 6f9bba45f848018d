"""Walkthrough: sign characters and the abelianization of the dense subgroup.

For a colour group F with orbits D^(0), ..., D^(l) on the colours, the
dense subgroup V_F abelianizes to an elementary abelian 2-group whose rank
depends only on the parity pattern of the orbit sizes.  A colour subset D'
carries a well-defined sign character exactly when a parity condition
holds; this script finds the subsets that work and exhibits a concrete
violation for one that does not.

Run:  python3 demos/signs_and_abelianization.py
"""

from coloured_neretin import (
    closure_enumerate,
    find_sign_violation,
    from_cycles,
    identity_element,
    is_sign_well_defined,
    sign,
    vf_abelianization,
)


def main():
    # F = <(1 2)(3 4), (5 6)> on colours {0..6}: orbits {0},{1,2},{3,4},{5,6}
    group = closure_enumerate(
        [from_cycles([(1, 2), (3, 4)], 7), from_cycles([(5, 6)], 7)]
    )
    orbits = [tuple(o) for o in group.orbits]
    sizes = tuple(len(o) for o in orbits)
    print("colour group of order %d, orbits %s" % (group.order, orbits))

    print()
    print("== abelianization from the orbit sizes ==")
    result = vf_abelianization(sizes)
    print("relation-matrix determinant:", result.determinant)
    print("invariant factors of the relation quotient:",
          result.invariant_factors)
    print("abelianization:", result.describe(),
          "(order %d)" % 2 ** result.two_torsion_rank)
    print("so the derived subgroup has index", 2 ** result.two_torsion_rank)

    print()
    print("== which colour subsets carry a sign character ==")
    for mask in range(1, 1 << len(orbits)):
        subset = tuple(sorted(
            c for k, orbit in enumerate(orbits) if mask >> k & 1
            for c in orbit))
        on_vf = is_sign_well_defined(group, subset, target="vf")
        on_nf = is_sign_well_defined(group, subset, target="nf")
        print("  D' = %-22s dense subgroup: %-5s  closure: %s"
              % (subset, on_vf, on_nf))

    print()
    print("== a concrete violation on an odd subset ==")
    subset = (0,)
    one, other = find_sign_violation(group, subset)
    s1 = sign(one, subset, mode="honest")
    s2 = sign(other, subset, mode="honest")
    print("two representations of the same element (equal after reduction:",
          one.reduce() == other.reduce(), ")")
    print("honest signs on D' = {0}: %+d vs %+d" % (s1, s2))
    print("so no sign character exists on {0}")

    print()
    print("== the character that does extend to the closure ==")
    value = sign(identity_element(group), (1, 2, 3, 4),
                 mode="class", target="nf")
    print("sgn_{1,2,3,4}(identity) = %+d" % value)


if __name__ == "__main__":
    main()
