"""Exact graded Hopf structures on words over a finite-group character
basis, with four independent antipode computations, a convolution group
of linear characters, and the rank-2 composition calculus.

Importing the package loads no submodule.  The first lookup of a public
name, or of a submodule listed in ``_HOMES``, imports them all at
once (PEP 562), so ``python -m hopftower.cli`` compiles only what its
command runs, while a library caller's first lookup costs what a full
import costs."""

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_HOMES = {
    "theory": ("BaseElement", "CharacterBasis", "DualBasisUndefined",
               "IdentityClassInvalid", "NonOrthogonalBasis",
               "RegularCharacterNotInSpan", "TheoryError",
               "TrivialCharacterMissing", "cyclic4", "dual", "dual_pair",
               "from_table", "solve_linear_system", "two_dim"),
    "elements": ("TensorElement", "TensorSquare", "basis_words",
                 "expand_letters"),
    "combinatorics": ("descent_embedding",),
    "functors": ("def_along", "dn_bracket", "ind_along", "inf_along",
                 "inf_bracket", "pointwise_twist", "res_along"),
    "hopf": ("HopfContext", "IotaNotBasisElement", "PairingNotOne",
             "all_ones_context", "induction_context"),
    "antipode": ("antipode_all_setcomps", "antipode_closed",
                 "antipode_oracle", "antipode_toggle_free"),
    "characters": ("ContextMismatch", "LinearCharacter", "NotAMorphism",
                   "check_morphism", "constant_character", "convolve",
                   "counit_character", "inverse", "is_odd",
                   "looks_module_supported"),
    "nsym": ("KINDS", "InconsistentTag", "antipode_corollaries",
             "coproduct_constants", "expand_in_kind", "nsym_element",
             "product_constants", "shuffle_dual_complement",
             "tau_iota_element", "verify_nsym_rules"),
    "verify": ("find_compat_counterexample", "verify_all",
               "verify_antipode_equivalence", "verify_axioms",
               "verify_characters"),
}
__all__ = [*(name for names in _HOMES.values() for name in names),
           "__version__"]
_LAZY = frozenset(__all__).union(_HOMES)


def __getattr__(name):
    """Import every submodule in ``_HOMES``, bind it and its public names
    here (so that later lookups do not come back), and return ``name``."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    for module, names in _HOMES.items():
        # importing a submodule binds it on the package too
        home = import_module(f"{__name__}.{module}")
        globals().update((n, getattr(home, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted(_LAZY.union(globals()))
