import random

import pytest

from friezelab import catalog
from friezelab.errors import NoRestoringPermutation, UnsupportedQuiver
from friezelab.modular import _resolve, apply_generator_word, generator_labels, modular_generator
from friezelab.quivers import Quiver
from friezelab.seeds import Seed


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


@pytest.mark.parametrize("shuffle", [0, 1])
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
    sigma = min(seed.quiver.isomorphisms_to(base))
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
    isomorphisms_to = Quiver.isomorphisms_to
    monkeypatch.setattr(Quiver, "isomorphisms_to",
                        lambda p, q: calls.append(q) or isomorphisms_to(p, q))
    assert apply_generator_word(seed, names) == one_at_a_time
    assert calls == [base]


def test_non_base_quiver_rejected():
    seed = Seed.initial(catalog.e6_affine())
    with pytest.raises(UnsupportedQuiver):
        modular_generator(seed, "ta")
    with pytest.raises(UnsupportedQuiver):
        modular_generator(Seed.initial(catalog.d_double_arrow(4)), "ta")


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        modular_generator(base_seed(6), "tz")


def test_two_restoring_candidates_raise_no_restoring_permutation(monkeypatch):
    # mutating every other vertex twice leaves the quiver of ta unchanged but
    # touches every vertex, so both gamma-related restoring permutations of
    # the 7-vertex base quiver fix the vertices outside the word
    import friezelab.modular as mod

    base = catalog.e_double_arrow(6)
    word = generator_labels(6, "ta")
    padded = word + [l for l in base.labels if l not in word for _ in range(2)]
    monkeypatch.setattr(mod, "generator_labels", lambda n, generator: padded)
    _resolve.cache_clear()
    try:
        with pytest.raises(NoRestoringPermutation, match="returns to 2 relabelings"):
            modular_generator(base_seed(6), "ta")
    finally:
        _resolve.cache_clear()
