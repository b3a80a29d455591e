"""The package namespace: ``import hopftower`` loads no submodule, and the
first lookup of a public name or submodule binds everything that a full
import binds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopftower

ROOT = Path(__file__).resolve().parents[1]

# each public name, by the module that defines it
HOMES = {
    "theory": ["BaseElement", "CharacterBasis", "DualBasisUndefined",
               "IdentityClassInvalid", "NonOrthogonalBasis",
               "RegularCharacterNotInSpan", "TheoryError",
               "TrivialCharacterMissing", "cyclic4", "dual", "dual_pair",
               "from_table", "solve_linear_system", "two_dim"],
    "elements": ["TensorElement", "TensorSquare", "basis_words",
                 "expand_letters"],
    "combinatorics": ["descent_embedding"],
    "functors": ["def_along", "dn_bracket", "ind_along", "inf_along",
                 "inf_bracket", "pointwise_twist", "res_along"],
    "hopf": ["HopfContext", "IotaNotBasisElement", "PairingNotOne",
             "all_ones_context", "induction_context"],
    "antipode": ["antipode_all_setcomps", "antipode_closed",
                 "antipode_oracle", "antipode_toggle_free"],
    "characters": ["ContextMismatch", "LinearCharacter", "NotAMorphism",
                   "check_morphism", "constant_character", "convolve",
                   "counit_character", "inverse", "is_odd",
                   "looks_module_supported"],
    "nsym": ["KINDS", "InconsistentTag", "antipode_corollaries",
             "coproduct_constants", "expand_in_kind", "nsym_element",
             "product_constants", "shuffle_dual_complement",
             "tau_iota_element", "verify_nsym_rules"],
    "verify": ["find_compat_counterexample", "verify_all",
               "verify_antipode_equivalence", "verify_axioms",
               "verify_characters"],
}
SUBMODULES = sorted(HOMES)


def test_all_lists_every_public_name():
    public = [name for names in HOMES.values() for name in names]
    assert hopftower.__all__ == [*public, "__version__"]


@pytest.mark.parametrize("module", HOMES)
def test_names_are_the_defining_modules_objects(module):
    bound = {name: getattr(hopftower, name) for name in HOMES[module]}
    home = sys.modules[f"hopftower.{module}"]
    for name, obj in bound.items():
        assert obj is getattr(home, name), name


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodules_are_bound(module):
    bound = getattr(hopftower, module)
    assert bound is sys.modules[f"hopftower.{module}"]


def test_star_import_binds_all():
    scope = {}
    exec("from hopftower import *", scope)
    assert set(hopftower.__all__) <= set(scope)
    assert all(scope[name] is getattr(hopftower, name)
               for name in hopftower.__all__)


def test_dir_lists_public_names_and_submodules():
    assert set(hopftower.__all__) | set(SUBMODULES) <= set(dir(hopftower))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        hopftower.bogus
    assert not hasattr(hopftower, "HOMES")


# A fresh interpreter: the submodules loaded after a bare import, after
# reading __version__, and after one lookup of the name in argv[1].
_FRESH = """
import json, sys
def loaded():
    return sorted(name.rpartition(".")[2] for name in sys.modules
                  if name.startswith("hopftower."))
import hopftower
steps = [loaded()]
assert hopftower.__version__ == "0.1.0"
steps.append(loaded())
getattr(hopftower, sys.argv[1])
steps.append(loaded())
print(json.dumps(steps))
"""


@pytest.mark.parametrize("name", ["two_dim", "verify_all", "nsym"])
def test_first_lookup_loads_every_submodule_at_once(name):
    """A bare import and ``__version__`` load nothing; the first lookup
    of any public name or submodule costs what a full import costs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _FRESH, name],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [[], [], SUBMODULES]
