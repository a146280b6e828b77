import random

import pytest

from friezelab import catalog
from friezelab.errors import UnsupportedQuiver
from friezelab.modular import _resolve, apply_generator_word, generator_labels, modular_generator
from friezelab.quivers import Quiver
from friezelab.seeds import Seed

from quiver_helpers import reference_isomorphisms


def base_seed(n):
    return Seed.initial(catalog.e_double_arrow(n))


def test_generator_labels():
    assert generator_labels(6, "ta") == ["a", "0", "1"]
    assert generator_labels(6, "tb") == ["b1", "b", "0", "1"]
    assert generator_labels(6, "tc") == ["c1", "c", "0", "1"]
    assert generator_labels(8, "tc") == ["c3", "c2", "c1", "c", "0", "1"]
    with pytest.raises(ValueError, match="n must be 6, 7 or 8"):
        generator_labels(5, "ta")
    for generator in ("gamma", "td", "t", ""):
        with pytest.raises(ValueError, match="unknown generator %r" % generator):
            generator_labels(7, generator)


def test_generator_words_restore_base_quiver():
    for n in (6, 7, 8):
        base = catalog.e_double_arrow(n)
        for g in ("ta", "tb", "tc") + (("gamma",) if n == 6 else ()):
            word, perm = _resolve(n, g)
            moved = base.mutate_word(word).permuted(perm)
            assert moved.b == base.b
    # gamma is the base quiver's nontrivial symmetry, with an empty word
    word, gamma = _resolve(6, "gamma")
    assert word == () and gamma != tuple(range(7))


def fixing_isomorphisms(base, word):
    """The isomorphisms from the mutated base quiver back to the base that
    fix every vertex outside the word: the search the stated rule replaces."""
    return [s for s in reference_isomorphisms(base.mutate_word(word), base)
            if all(s[i] == i for i in range(base.m) if i not in word)]


def rotation(base, w):
    """The permutation 0 -> 1 -> w -> 0 of the base quiver's vertices."""
    perm = list(range(base.m))
    zero, one, w = (base.index(label) for label in ("0", "1", w))
    perm[zero], perm[one], perm[w] = one, w, zero
    return tuple(perm)


def test_stated_rotation_is_the_only_fixing_isomorphism():
    for n in (6, 7, 8):
        base = catalog.e_double_arrow(n)
        for w in "abc":
            word, perm = _resolve(n, "t" + w)
            assert perm == rotation(base, w)
            assert fixing_isomorphisms(base, word) == [perm]
    # the same rule holds on every leg of the affine D fans
    for n in range(4, 16):
        base = catalog.d_double_arrow(n)
        for w, k in {"a": 0, "b": 0, "c": n - 4}.items():
            word = [base.index(label) for label in catalog.leg(w, k)[::-1] + ["0", "1"]]
            assert fixing_isomorphisms(base, word) == [rotation(base, w)]


def test_gamma_is_the_nontrivial_automorphism():
    base = catalog.e_double_arrow(6)
    identity, gamma = reference_isomorphisms(base, base)
    assert identity == tuple(range(base.m))
    assert _resolve(6, "gamma") == ((), gamma)


def test_wrong_restoring_permutation_is_caught_at_run_time(monkeypatch):
    # Seed.restored certifies the stated permutation on every application:
    # the rotation run backwards, 0 -> w -> 1 -> 0, does not restore the base
    import friezelab.modular as mod

    word, perm = _resolve(6, "ta")
    backwards = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    assert backwards != perm
    monkeypatch.setattr(mod, "_resolve", lambda n, generator: (word, backwards))
    with pytest.raises(ValueError, match="does not carry this quiver to the base quiver"):
        modular_generator(base_seed(6), "ta")


def test_gamma_relations_e6():
    # the tau relations, gamma^2 == id, gamma*ta == ta*gamma and
    # gamma*tb == tc*gamma are stated by modular.check_relations and the
    # modular-relations-e* checks; this is the one relation they do not state,
    # and ta^2 != id keeps the tau relations from holding vacuously
    S = base_seed(6)
    assert apply_generator_word(S, ["gamma", "tc"]) == apply_generator_word(S, ["tb", "gamma"])
    assert apply_generator_word(S, ["ta", "ta"]) != S


def test_gamma_only_for_e6():
    with pytest.raises(ValueError):
        modular_generator(base_seed(7), "gamma")


@pytest.mark.parametrize("shuffle", [0, 1, 2])
@pytest.mark.parametrize("n, generator", [(6, "ta"), (6, "tb"), (6, "tc"), (6, "gamma"),
                                          (7, "ta"), (7, "tb"), (7, "tc"),
                                          (8, "ta"), (8, "tb"), (8, "tc")])
def test_generator_on_relabeled_seed(n, generator, shuffle):
    # oracle: restore the seed to the base quiver by the least isomorphism,
    # apply the generator's word and permutation there, and restore back
    base = catalog.e_double_arrow(n)
    shuffled = list(range(base.m))
    random.Random(shuffle).shuffle(shuffled)
    seed = Seed.initial(base.permuted(shuffled))
    sigma = min(reference_isomorphisms(seed.quiver, base))
    if (n, shuffle) == (6, 2):
        # the isomorphism read off the two canonical orders is gamma times the
        # least one here, so this case needs the tie-break by gamma
        order, base_order = seed.quiver._canonical_form()[1], base._canonical_form()[1]
        assert tuple(w for _, w in sorted(zip(order, base_order))) != sigma
    inverse = sorted(range(base.m), key=sigma.__getitem__)
    word, perm = _resolve(n, generator)
    based = seed.restored(sigma, base).mutate_word(word).restored(perm, base)
    moved = modular_generator(seed, generator)
    assert moved.quiver == seed.quiver
    assert moved == based.restored(inverse, seed.quiver)


def test_generator_word_finds_its_isomorphism_once(monkeypatch):
    # every generator returns a seed on its input quiver, so one least
    # isomorphism to the base serves the whole word; the result is that of
    # applying the generators one call at a time
    base = catalog.e_double_arrow(7)
    seed = Seed.initial(base.permuted([3, 1, 0, 2, 6, 5, 4, 7]))
    names = ["ta", "tb", "tc", "ta"]
    one_at_a_time = seed
    for g in names:
        one_at_a_time = modular_generator(one_at_a_time, g)
    calls = []
    form = Quiver._canonical_form
    monkeypatch.setattr(Quiver, "_canonical_form", lambda q: calls.append(q) or form(q))
    assert apply_generator_word(seed, names) == one_at_a_time
    # the base quiver's form is cached, so the seed's quiver is the only one
    assert calls == [seed.quiver]


def test_non_base_quiver_rejected():
    seed = Seed.initial(catalog.e6_affine())
    with pytest.raises(UnsupportedQuiver):
        modular_generator(seed, "ta")
    with pytest.raises(UnsupportedQuiver):
        modular_generator(Seed.initial(catalog.d_double_arrow(4)), "ta")


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        modular_generator(base_seed(6), "tz")
