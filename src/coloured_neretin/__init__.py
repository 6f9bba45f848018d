"""Exact arithmetic for almost automorphisms of coloured regular trees.

The package models the dense finitely generated subgroup attached to a
permutation group of colours F <= Sym({0,...,d}): elements are tree pairs
with an orbit-respecting leaf bijection, composed, inverted and reduced
exactly.  On top of the element algebra it provides sign homomorphisms,
the abelianization in closed form from the orbit sizes, the orbit graph and
the dictionary to its one-sided shift of finite type, boundary translation
witnesses, and the exact ball counts, covolume bounds and interval-checked
inequalities behind the lattice (non-)existence results.

``import coloured_neretin`` loads none of the modules.  Each public name
below, and each module name such as ``coloured_neretin.tree``, imports its
home module on first use (PEP 562), so a program loads only the modules it
uses.  A name is looked up in its home module at every use and never
stored here, so a rebinding of the home module's name is seen through the
package too.  The package needs nothing outside the standard library.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names the package re-exports from it
_EXPORTS = {
    "permutations": """ColourGroup DegreeMismatch NotInvariant Permutation
        closure_enumerate contains_alternating cycle_string from_cycles identity
        parse_cycles stabilizer_restriction_in_alt structure_report""",
    "tree": """CompleteSubtree IncompleteTree PlaneOrder admissible_child_colours
        check_address is_prefix is_valid_address plane_for sphere""",
    "almost_automorphisms": """NotWellDefined OrbitViolation PrefixTooShort SizeMismatch
        TreePairElement compose element_from_dict element_from_local_data element_to_dict
        find_sign_violation identity_element is_sign_well_defined make_element
        purely_infinite_witness random_element sign translation_element""",
    "abelianization": """AbelianInvariants Abelianization IntMatrix bareiss_determinant
        smith_normal_form vf_abelianization""",
    "shift_model": """Bisection InvalidBisection Omega PathError SftGraph
        bisection_to_element build_sft_graph check_path compose_bisections cylinder_mass
        dot_export edge_length element_to_bisection identity_bisection path_children
        random_bisection root_paths sft_graph_for_group validate_bisection""",
    "covolume": """AppendixCounts BallCounts CovolumeChain DominantCompare
        PrimeWindowReport SmallestVerdict XiClaimsReport appendix_counts ball_counts
        compositions covolume_chain covolume_table_rows dominant_coefficient_compare
        integer_partitions log_ratio single_switch_covolume smallest_log_sign
        verify_prime_windows verify_smallest_inequality verify_xi_claims""",
    "intervals": "decide_sign default_precision interval_width",
}
# public name -> home module; a module name is its own home
_HOME = {name: home for home, names in _EXPORTS.items() for name in [home, *names.split()]}
__all__ = list(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    # the import system binds a submodule in the package once it has run
    module = globals().get(home) or import_module("%s.%s" % (__name__, home))
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
