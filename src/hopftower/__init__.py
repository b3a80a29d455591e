"""Exact graded Hopf structures on words over a finite-group character
basis, with four independent antipode computations, a convolution group
of linear characters, and the rank-2 composition calculus.

Importing the package loads no submodule.  The first lookup of a public
name, or of a submodule listed in ``_SUBMODULES``, imports them all at
once (PEP 562), so ``python -m hopftower.cli`` compiles only what its
command runs, while a library caller's first lookup costs what a full
import costs."""

__version__ = "0.1.0"

__all__ = [
    "BaseElement", "CharacterBasis", "DualBasisUndefined",
    "IdentityClassInvalid", "NonOrthogonalBasis",
    "RegularCharacterNotInSpan", "TheoryError",
    "TrivialCharacterMissing", "cyclic4", "dual", "dual_pair",
    "from_table", "solve_linear_system", "two_dim",
    "TensorElement", "TensorSquare", "basis_words", "expand_letters",
    "FundamentalImage", "descent_embedding",
    "def_along", "dn_bracket", "ind_along", "inf_along", "inf_bracket",
    "pointwise_twist", "res_along",
    "HopfContext", "IotaNotBasisElement", "PairingNotOne",
    "all_ones_context", "induction_context",
    "antipode_all_setcomps", "antipode_closed", "antipode_oracle",
    "antipode_toggle_free",
    "ContextMismatch", "LinearCharacter", "NotAMorphism", "check_morphism",
    "constant_character", "convolve", "counit_character", "inverse",
    "is_odd", "looks_module_supported",
    "KINDS", "InconsistentTag", "antipode_corollaries",
    "coproduct_constants", "expand_in_kind", "nsym_element",
    "product_constants", "shuffle_dual_complement", "tau_iota_element",
    "verify_nsym_rules",
    "find_compat_counterexample", "verify_all",
    "verify_antipode_equivalence", "verify_axioms", "verify_characters",
    "__version__",
]

# the submodules that _import_all binds on the package
_SUBMODULES = ("theory", "elements", "combinatorics", "functors", "hopf",
               "antipode", "characters", "nsym", "verify")
_LAZY = frozenset(__all__).union(_SUBMODULES)


def __getattr__(name):
    """Import every public name and submodule, bind them here (so that
    later lookups do not come back), and return ``name``."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _import_all()
    return globals()[name]


def __dir__():
    return sorted(_LAZY.union(globals()))


def _import_all():
    from .theory import (BaseElement, CharacterBasis, DualBasisUndefined,
                         IdentityClassInvalid, NonOrthogonalBasis,
                         RegularCharacterNotInSpan, TheoryError,
                         TrivialCharacterMissing, cyclic4, dual, dual_pair,
                         from_table, solve_linear_system, two_dim)
    from .elements import (TensorElement, TensorSquare, basis_words,
                           expand_letters)
    from .combinatorics import FundamentalImage, descent_embedding
    from .functors import (def_along, dn_bracket, ind_along, inf_along,
                           inf_bracket, pointwise_twist, res_along)
    from .hopf import (HopfContext, IotaNotBasisElement, PairingNotOne,
                       all_ones_context, induction_context)
    from .antipode import (antipode_all_setcomps, antipode_closed,
                           antipode_oracle, antipode_toggle_free)
    from .characters import (ContextMismatch, LinearCharacter, NotAMorphism,
                             check_morphism, constant_character,
                             convolve, counit_character, inverse, is_odd,
                             looks_module_supported)
    from .nsym import (KINDS, InconsistentTag, antipode_corollaries,
                       coproduct_constants, expand_in_kind, nsym_element,
                       product_constants, shuffle_dual_complement,
                       tau_iota_element, verify_nsym_rules)
    from .verify import (find_compat_counterexample, verify_all,
                         verify_antipode_equivalence, verify_axioms,
                         verify_characters)
    globals().update(locals())
