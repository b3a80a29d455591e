"""Linear characters: morphism checking, convolution group law, inverses,
oddness, and the nonnegativity screen.

``reference_interleave`` and ``reference_evaluate`` are the template-list
block builder and the Gram-weight loop that the word fold and the value
tables replaced, and ``reference_check_morphism`` is the twist-then-deflate
route that pairing against iota replaced; the tests at the end hold the new
code to them.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from hopftower import characters
from hopftower.characters import (ContextMismatch, LinearCharacter,
                                  NotAMorphism, _interleave,
                                  check_morphism, constant_character,
                                  convolve, counit_character, inverse,
                                  is_odd, looks_module_supported)
from hopftower.combinatorics import compositions, partial_sums
from hopftower.elements import (TensorElement, _fractions, _letter,
                                expand_letters)
from hopftower.functors import def_along, pointwise_twist
from hopftower.hopf import HopfContext, all_ones_context, induction_context
from hopftower.theory import TheoryError, cyclic4, from_table, two_dim
from hopftower.verify import (find_compat_counterexample, verify_all,
                              verify_axioms, verify_characters)


def ones_ctx(q=3):
    return all_ones_context(two_dim(q))


def ind_ctx(q=3):
    return induction_context(two_dim(q))


def test_component_validation():
    ctx = ones_ctx()
    with pytest.raises(TheoryError):
        LinearCharacter(ctx, [])
    with pytest.raises(TheoryError):
        LinearCharacter(ctx, [ctx.unit(2)])  # degree-0 part must be 1
    with pytest.raises(TheoryError):
        LinearCharacter(ctx, [ctx.unit(), TensorElement(2)])


def test_evaluation():
    ctx = ones_ctx()
    chi = constant_character(ctx, ctx.basis.reg, 3)
    assert chi(ctx.unit(5)) == 5
    assert chi(TensorElement(2, {(0,): 1})) == 1
    # gram weight of the index-1 letter is q - 1 = 2
    assert chi(TensorElement(2, {(1,): 1})) == 2
    assert chi(TensorElement(3, {(0, 1): 1, (1, 1): 3})) == 2 + 3 * 4
    with pytest.raises(TheoryError):
        chi(TensorElement(4, {(0, 0, 0): 1}))


def test_counit_and_constants_are_morphisms():
    for ctx in (ones_ctx(), ind_ctx()):
        assert check_morphism(counit_character(ctx, 4)) is None
        assert check_morphism(constant_character(ctx, ctx.alpha, 4)) is None
        assert check_morphism(constant_character(ctx, ctx.beta, 4)) is None
    # any element pairing to 1 with iota works; reg does for iota = one
    assert check_morphism(
        constant_character(ones_ctx(), two_dim(3).reg, 4)) is None


def test_constant_character_takes_only_elements_of_its_basis():
    ctx = ind_ctx()
    with pytest.raises(TheoryError, match="context's basis"):
        constant_character(ctx, cyclic4().one, 3)  # three coordinates
    with pytest.raises(TheoryError, match="context's basis"):
        constant_character(ctx, (1, 2, 3), 3)
    with pytest.raises(TheoryError, match="context's basis"):
        constant_character(ctx, ctx.alpha.coords, 3)
    # an equal basis built again is the same basis
    assert constant_character(ctx, two_dim(3).reg, 3) == constant_character(
        ctx, ctx.basis.reg, 3)


def test_check_morphism_reports_first_failure():
    ctx = ones_ctx()
    bad = constant_character(ctx, 2 * ctx.basis.one, 3)
    got = check_morphism(bad)
    assert got is not None
    n, j, lhs, rhs = got
    assert (n, j) == (2, 1)
    assert lhs == {(): 2}
    assert rhs == {(): 1}


def test_convolution_identity_and_commutativity_spot():
    ctx = ind_ctx()
    eps = counit_character(ctx, 3)
    chi = constant_character(ctx, ctx.alpha, 3)
    assert convolve(eps, chi) == chi
    assert convolve(chi, eps) == chi


def test_convolution_associative():
    ctx = ind_ctx()
    a = constant_character(ctx, ctx.alpha, 3)
    b = constant_character(ctx, ctx.beta, 3)
    half = (ctx.alpha + ctx.beta) * Fraction(1, 2)
    c = constant_character(ctx, half, 3)
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


def test_inverse_is_two_sided():
    for ctx in (ones_ctx(), ind_ctx()):
        chi = constant_character(ctx, ctx.alpha, 3)
        inv = inverse(chi)
        eps = counit_character(ctx, 3)
        assert convolve(chi, inv) == eps
        assert convolve(inv, chi) == eps


def test_inverse_of_all_ones_constant_alternates_signs():
    ctx = ones_ctx()
    chi = constant_character(ctx, ctx.basis.one, 5)
    inv = inverse(chi)
    for n in range(1, 6):
        sign = -1 if n % 2 else 1
        assert inv.components[n] == sign * chi.components[n]


def test_is_odd():
    assert is_odd(constant_character(ones_ctx(), two_dim(3).one, 5))
    assert is_odd(counit_character(ones_ctx(), 4))
    # the same functional over the induction context is not odd
    assert not is_odd(constant_character(ind_ctx(), two_dim(3).one, 4))


def test_group_operations_reject_non_morphisms():
    ctx = ones_ctx()
    bad = constant_character(ctx, 2 * ctx.basis.one, 3)
    good = constant_character(ctx, ctx.basis.one, 3)
    with pytest.raises(NotAMorphism):
        convolve(bad, good)
    with pytest.raises(NotAMorphism):
        inverse(bad)


def test_context_mismatch():
    a = constant_character(ones_ctx(), two_dim(3).one, 3)
    b = constant_character(ind_ctx(), two_dim(3).one, 3)
    with pytest.raises(ContextMismatch):
        convolve(a, b)


def test_looks_module_supported():
    ctx = ones_ctx()
    assert looks_module_supported(constant_character(ctx, ctx.basis.one, 4))
    assert looks_module_supported(constant_character(ctx, ctx.basis.reg, 4))
    # odd components of the inverse go negative
    assert not looks_module_supported(
        inverse(constant_character(ctx, ctx.basis.one, 4)))


def test_character_equality_and_hash():
    a = constant_character(ones_ctx(), two_dim(3).one, 3)
    b = constant_character(ones_ctx(), two_dim(3).one, 3)
    assert a == b
    assert hash(a) == hash(b)
    assert a != counit_character(ones_ctx(), 3)


def reference_interleave(chi_a, chi_b, mark_a, mark_b, mu, n):
    """Rows of block words, each block but the last followed by its own
    character's marker template, expanded by ``expand_letters``."""
    bounds = (0,) + partial_sums(mu) + (n,)
    ell = len(mu)
    acc = [([], Fraction(1))]
    for b in range(1, ell + 1):
        use_a = b % 2 == 1
        chi = chi_a if use_a else chi_b
        mark = mark_a if use_a else mark_b
        block = chi.components[bounds[b] - bounds[b - 1]].terms
        nxt = []
        for prefix, scal in acc:
            for word, c in block.items():
                row = prefix + list(word)
                if b != ell:
                    row = row + [mark]
                nxt.append((row, scal * c))
        acc = nxt
    out = TensorElement(n)
    for entries, scal in acc:
        if scal:
            out.add_scaled(expand_letters(entries, scal))
    return out.terms


def reference_evaluate(chi, x):
    comp = chi.components[x.degree]
    gram = chi.ctx.basis.gram
    total = Fraction(0)
    for word, c in x.terms.items():
        cc = comp.coefficient(word)
        if cc:
            weight = Fraction(1)
            for letter in word:
                weight *= gram[letter]
            total += c * cc * weight
    return total


def non_constant_characters(ctx, top):
    a = constant_character(ctx, ctx.alpha, top)
    b = constant_character(ctx, ctx.beta, top)
    half = constant_character(ctx, (ctx.alpha + ctx.beta) / 2, top)
    return convolve(a, b), inverse(half)


def test_interleave_matches_the_template_lists():
    """Compared as raw dicts: swapping which marker follows which block
    leaves convolve and inverse unchanged on multiplicative characters,
    so only _interleave itself shows it."""
    for ctx in (ind_ctx(), induction_context(cyclic4())):
        alpha, beta = ctx.alpha, ctx.beta
        assert alpha != beta
        p, g = non_constant_characters(ctx, 4)
        for n in range(1, 5):
            for mu in compositions(n):
                for chi_a, chi_b in ((p, g), (g, p), (p, p)):
                    for mark_a, mark_b in ((alpha, beta), (beta, alpha)):
                        got = _fractions(*_interleave(
                            chi_a, chi_b, _letter(mark_a.coords),
                            _letter(mark_b.coords), mu))
                        assert got == reference_interleave(
                            chi_a, chi_b, tuple(mark_a.coords),
                            tuple(mark_b.coords), mu, n), mu


# -- the closed formulas against the template lists ----------------------------


def reference_convolve(psi, gamma):
    """The components of psi * gamma: per composition, both interleavings
    from ``reference_interleave``, added in turn as ``Fraction`` terms."""
    alpha, beta = tuple(psi.ctx.alpha.coords), tuple(psi.ctx.beta.coords)
    comps = [psi.ctx.unit()]
    for n in range(1, min(psi.max_degree, gamma.max_degree) + 1):
        comp = TensorElement(n)
        for mu in compositions(n):
            for pair in ((psi, gamma, alpha, beta), (gamma, psi, beta, alpha)):
                comp.add_scaled(reference_interleave(*pair, mu, n))
        comps.append(comp)
    return comps


def reference_inverse(psi):
    """The components of psi's inverse: the signed sum over compositions
    of ``reference_interleave`` with (alpha + beta) markers."""
    mark = tuple((psi.ctx.alpha + psi.ctx.beta).coords)
    comps = [psi.ctx.unit()]
    for n in range(1, psi.max_degree + 1):
        comp = TensorElement(n)
        for mu in compositions(n):
            comp.add_scaled(reference_interleave(psi, psi, mark, mark, mu, n),
                            -1 if len(mu) % 2 else 1)
        comps.append(comp)
    return comps


def test_convolve_and_inverse_match_the_template_lists():
    """On non-constant characters, over contexts with and without
    negative coproduct terms, with ``Fraction`` coefficients."""
    for ctx in (ind_ctx(), induction_context(cyclic4()),
                *negative_coproduct_contexts()):
        chars = [constant_character(ctx, ctx.alpha, 4),
                 *non_constant_characters(ctx, 4)]
        pairs = [(convolve(x, y), reference_convolve(x, y))
                 for x in chars for y in chars]
        pairs += [(inverse(x), reference_inverse(x)) for x in chars]
        for got, want in pairs:
            assert list(got.components) == want
            assert all(type(c) is Fraction for comp in got.components
                       for c in comp.terms.values())


def test_evaluation_matches_the_gram_loop():
    for ctx in (ones_ctx(), ind_ctx(), induction_context(cyclic4())):
        chars = (constant_character(ctx, ctx.basis.reg, 4),
                 *non_constant_characters(ctx, 4))
        for chi in chars:
            for n in range(5):
                words = list(ctx.basis_words(n))
                for w in words:
                    x = TensorElement(n, {w: 1})
                    assert chi(x) == reference_evaluate(chi, x)
                mixed = TensorElement(n, {w: i - 2 for i, w in enumerate(words)})
                assert chi(mixed) == reference_evaluate(chi, mixed)


def negative_coproduct_contexts():
    """Valid triples with beta pairing negatively with some letters, so
    that some basis words' coproducts have negative terms: two_dim(3)
    with beta = (-1, 1) and cyclic4 with beta = (-2, -1, 2)."""
    q3, c4 = two_dim(3), cyclic4()
    return [HopfContext(q3, q3.reg, q3.one, q3.element((-1, 1))),
            HopfContext(c4, c4.reg, c4.one, c4.element((-2, -1, 2)))]


def test_convolution_over_negative_coproduct_terms():
    """The definitional cross-check of convolve and inverse sums over
    every coproduct term, negative ones included: a table that dropped
    them would disagree with the closed formulas here."""
    top = 4
    for ctx in negative_coproduct_contexts():
        assert any(c < 0 for n in range(top + 1) for w in ctx.basis_words(n)
                   for c in ctx.coproduct(TensorElement(n, {w: 1})).terms
                   .values())
        eps = counit_character(ctx, top)
        a = constant_character(ctx, ctx.alpha, top)
        b = constant_character(ctx, ctx.beta, top)
        chars = [a, b, *non_constant_characters(ctx, top)]
        assert all(check_morphism(chi) is None for chi in chars)
        for chi in chars:
            inv = inverse(chi)
            assert convolve(chi, inv) == eps == convolve(inv, chi)
        assert convolve(convolve(a, b), chars[3]) == convolve(
            a, convolve(b, chars[3]))


# -- the morphism memo and the shared coproduct tables -------------------------


def counting_check_morphism(monkeypatch):
    """Wrap check_morphism; returns the list of characters it is run on."""
    seen = []
    real = characters.check_morphism

    def counted(chi):
        seen.append(chi)
        return real(chi)

    monkeypatch.setattr(characters, "check_morphism", counted)
    return seen


def test_verify_characters_checks_each_character_once(monkeypatch):
    seen = counting_check_morphism(monkeypatch)
    for ctx, top in ((ind_ctx(), 4), (induction_context(cyclic4()), 3)):
        seen.clear()
        report = verify_characters(ctx, top)
        assert report["passed"] == report["checked"] == 17
        # the counit, three constants, their inverses, two convolution
        # products fed back into convolve, and the negative control
        assert len(seen) == 10
        assert len({id(chi) for chi in seen}) == 10
        assert len(set(seen)) == 10


def run_suites_and_drop(ctx):
    """Run every suite and the group operations on ctx; returns a weak
    reference to it, the caller's last strong one once it drops ctx."""
    verify_all(ctx, 4)
    a = constant_character(ctx, ctx.alpha, 3)
    b = constant_character(ctx, ctx.beta, 3)
    assert convolve(inverse(a), a) == counit_character(ctx, 3)
    assert is_odd(convolve(a, b))
    return weakref.ref(ctx)


def test_contexts_are_collected_once_the_caller_drops_them():
    """The tables of basis-word coproducts and of oracle antipodes live on
    the context, and nothing else keeps it: no module-level cache is keyed
    by contexts."""
    for basis in (two_dim(3), cyclic4()):
        ref = run_suites_and_drop(induction_context(basis))
        gc.collect()
        assert ref() is None


def test_each_basis_word_coproduct_is_computed_once_per_context(
        monkeypatch):
    """The axioms, the characters and the compatibility search read Δ
    from the context's memo: one kernel call per (degree, word), every
    word up to the degree bound, each an entry under the kernel."""
    real = HopfContext._coproduct_num
    seen = []

    def counting(self, n, x):
        if len(x[1]) == 1:  # induction products have several words
            seen.append((n, *x[1]))
        return real(self, n, x)

    monkeypatch.setattr(HopfContext, "_coproduct_num", counting)
    for basis, top in ((two_dim(3), 5), (cyclic4(), 4)):
        ctx = induction_context(basis)  # after the patch
        seen.clear()
        assert verify_axioms(ctx, top)["first_failure"] is None
        assert verify_characters(ctx, top - 1)["first_failure"] is None
        assert find_compat_counterexample(ctx, top) is None
        assert len(seen) == len(set(seen)) == sum(
            k is counting for k, _, _ in ctx._word_forms)
        assert set(seen) == {(n, w) for n in range(top + 1)
                             for w in ctx.basis_words(n)}


def test_non_morphism_raises_on_every_call(monkeypatch):
    ctx = ones_ctx()
    bad = constant_character(ctx, 2 * ctx.basis.one, 3)
    good = constant_character(ctx, ctx.basis.one, 3)
    seen = counting_check_morphism(monkeypatch)
    for _ in range(3):
        with pytest.raises(NotAMorphism, match="degree 2, split 1"):
            convolve(bad, good)
        with pytest.raises(NotAMorphism, match="degree 2, split 1"):
            convolve(good, bad)
        with pytest.raises(NotAMorphism, match="degree 2, split 1"):
            inverse(bad)
    assert [chi is bad for chi in seen] == [True, False]


def test_perturbed_closed_side_still_raises(monkeypatch):
    """The coproduct tables are cached, yet the definitional side is still
    compared: a closed component off by one coefficient raises."""
    ctx = ind_ctx()
    a = constant_character(ctx, ctx.alpha, 3)
    b = constant_character(ctx, ctx.beta, 3)
    good = convolve(a, b)  # fills the coproduct tables of degrees 1 to 3
    real = characters._convolve_component

    def perturbed(psi, gamma, n, *markers):
        out = real(psi, gamma, n, *markers)
        if n == 3:
            out.add_term((1, 0), Fraction(1, 7))
        return out

    monkeypatch.setattr(characters, "_convolve_component", perturbed)
    with pytest.raises(TheoryError, match="closed formula disagrees"):
        convolve(a, b)
    monkeypatch.undo()
    assert convolve(a, b) == good


# -- check_morphism against the twist route -------------------------------------


def kronecker(a, b):
    """The character table of the direct product of a's and b's groups:
    rows chi (x) psi, class sizes s * t, identity class (e, e)."""
    return from_table(
        tuple(tuple(x * y for x in ra for y in rb)
              for ra in a.table for rb in b.table),
        tuple(s * t for s in a.sizes for t in b.sizes),
        a.identity_class * b.dim + b.identity_class)


def morphism_tables():
    """Ranks 2, 2, 2, 3, 4 and 6."""
    return (two_dim(2), two_dim(3), two_dim(5), cyclic4(),
            kronecker(two_dim(2), two_dim(3)),
            kronecker(cyclic4(), two_dim(2)))


def reference_check_morphism(chi):
    """check_morphism with the left-hand side built by twisting letter j of
    chi_n pointwise by iota and deflating it against the all-ones
    character."""
    ctx, basis = chi.ctx, chi.ctx.basis
    for n in range(2, chi.max_degree + 1):
        for j in range(1, n):
            twisted = pointwise_twist(basis, chi.components[n], j, ctx.iota)
            bits = tuple(0 if i == j - 1 else 1 for i in range(n - 1))
            lhs = def_along(basis, bits, twisted)
            rhs = TensorElement(n - 1)
            for lw, lc in chi.components[j].terms.items():
                for rw, rc in chi.components[n - j].terms.items():
                    rhs.add_term(lw + rw, lc * rc)
            if lhs != rhs:
                return (n, j, dict(lhs.terms), dict(rhs.terms))
    return None


def perturbed(chi, n):
    """chi with its degree-n coefficient of the all-ones word changed:
    every letter of that word pairs to a nonzero value with iota, so chi
    stops being multiplicative at degree n."""
    comps = list(chi.components)
    word = (chi.ctx.basis.one_index,) * (n - 1)
    comps[n] = comps[n] + TensorElement(n, {word: Fraction(1, 3)})
    return LinearCharacter(chi.ctx, comps)


def test_check_morphism_matches_the_twist_route():
    rng, top = random.Random(13), 4
    for basis in morphism_tables():
        for ctx in (all_ones_context(basis), induction_context(basis)):
            good = [counit_character(ctx, top),
                    constant_character(ctx, ctx.alpha, top),
                    constant_character(ctx, ctx.beta, top),
                    *non_constant_characters(ctx, top)]
            assert all(check_morphism(chi) is None for chi in good)
            bad = {top: perturbed(good[1], top), 3: perturbed(good[3], 3),
                   2: perturbed(good[4], 2)}
            for n, chi in bad.items():
                assert check_morphism(chi)[0] == n
            noise = [basis.element([Fraction(rng.randint(-4, 4),
                                             rng.randint(1, 3))
                                    for _ in range(basis.dim)])
                     for _ in range(2)]
            others = [constant_character(ctx, psi, top)
                      for psi in (2 * basis.one, ctx.iota, *noise)]
            for chi in good + list(bad.values()) + others:
                assert check_morphism(chi) == reference_check_morphism(chi)
