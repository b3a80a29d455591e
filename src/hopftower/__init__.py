"""Exact graded Hopf structures on words over a finite-group character
basis, with four independent antipode computations, a convolution group
of linear characters, and the rank-2 composition calculus."""

from .theory import (BaseElement, CharacterBasis, DualBasisUndefined,
                     IdentityClassInvalid, NonOrthogonalBasis,
                     RegularCharacterNotInSpan, TheoryError,
                     TrivialCharacterMissing, cyclic4, dual, dual_pair,
                     from_table, solve_linear_system, two_dim)
from .elements import TensorElement, TensorSquare, basis_words, expand_letters
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
from .nsym import (KINDS, FundamentalImage, InconsistentTag,
                   antipode_corollaries, coproduct_constants,
                   descent_embedding, expand_in_kind, nsym_element,
                   product_constants, shuffle_dual_complement,
                   tau_iota_element, verify_nsym_rules)
from .verify import (find_compat_counterexample, verify_all,
                     verify_antipode_equivalence, verify_axioms,
                     verify_characters)

__version__ = "0.1.0"

__all__ = [
    "BaseElement", "CharacterBasis", "DualBasisUndefined",
    "IdentityClassInvalid", "NonOrthogonalBasis",
    "RegularCharacterNotInSpan", "TheoryError",
    "TrivialCharacterMissing", "cyclic4", "dual", "dual_pair",
    "from_table", "solve_linear_system", "two_dim",
    "TensorElement", "TensorSquare", "basis_words", "expand_letters",
    "def_along", "dn_bracket", "ind_along", "inf_along", "inf_bracket",
    "pointwise_twist", "res_along",
    "HopfContext", "IotaNotBasisElement", "PairingNotOne",
    "all_ones_context", "induction_context",
    "antipode_all_setcomps", "antipode_closed", "antipode_oracle",
    "antipode_toggle_free",
    "ContextMismatch", "LinearCharacter", "NotAMorphism", "check_morphism",
    "constant_character", "convolve", "counit_character", "inverse",
    "is_odd", "looks_module_supported",
    "KINDS", "FundamentalImage", "InconsistentTag", "antipode_corollaries",
    "coproduct_constants", "descent_embedding", "expand_in_kind",
    "nsym_element", "product_constants", "shuffle_dual_complement",
    "tau_iota_element", "verify_nsym_rules",
    "find_compat_counterexample", "verify_all",
    "verify_antipode_equivalence", "verify_axioms", "verify_characters",
    "__version__",
]
