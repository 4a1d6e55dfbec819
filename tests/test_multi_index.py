"""Word calculus tests: golden set listings, weights, and closure properties."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from switchtaylor import multi_index as mi
from switchtaylor.errors import (
    ConsecutiveJumpComponents,
    EmptyIndex,
    InvalidComponent,
    InvalidGamma,
)

# ---------------------------------------------------------------------------
# golden listings, written as families of letter tags; names like "j", "k1"
# are placeholders that range independently over the Wiener dimensions 1..m.

EULER_KEPT = [()]
EULER_REMAINDER = [("N1",), ("Nb1",), ("0",), ("j",)]

MILSTEIN_DRIFT = [()]
MILSTEIN_DIFFUSION = [(), ("N1",), ("j",)]
MILSTEIN_DIFFUSION_JUMP = [("N1",)]

T15_DRIFT = [(), ("N1",), ("0",), ("j1",)]
T15_DIFFUSION = [
    (),
    ("N1",),
    ("N2",),
    ("0",),
    ("j1",),
    ("j1", "N1"),
    ("N1", "j1"),
    ("j1", "j2"),
    ("N1", "j1", "N1"),
]
T15_DRIFT_JUMP = [("N1",)]
T15_DIFFUSION_JUMP = [
    ("N1",),
    ("N2",),
    ("j1", "N1"),
    ("N1", "j1"),
    ("N1", "j1", "N1"),
]

# remainder of the weight <= 2 hierarchical set at jump threshold 3 (the
# worked example); thirty families.
T15_DIFFUSION_REMAINDER = [
    ("N3",),
    ("Nb3",),
    ("0", "N1"),
    ("0", "N2"),
    ("k", "N2"),
    ("N1", "0"),
    ("N2", "0"),
    ("N3", "0"),
    ("Nb3", "0"),
    ("0", "0"),
    ("k", "0"),
    ("N2", "k"),
    ("N3", "k"),
    ("Nb3", "k"),
    ("0", "k"),
    ("N2", "k", "N1"),
    ("N3", "k", "N1"),
    ("Nb3", "k", "N1"),
    ("0", "k", "N1"),
    ("k1", "k", "N1"),
    ("0", "N1", "k"),
    ("k1", "N1", "k"),
    ("N1", "k1", "k"),
    ("N2", "k1", "k"),
    ("N3", "k1", "k"),
    ("Nb3", "k1", "k"),
    ("0", "k1", "k"),
    ("k2", "k1", "k"),
    ("0", "N1", "k", "N1"),
    ("k1", "N1", "k", "N1"),
]


def _is_placeholder(token):
    return token[0] in "jk" and (len(token) == 1 or token[1:].isdigit())


def expand_families(families, m):
    """Expand placeholder families into the set of concrete tag tuples."""
    out = set()
    for fam in families:
        names = sorted({t for t in fam if _is_placeholder(t)})
        for combo in itertools.product(range(1, m + 1), repeat=len(names)):
            sub = dict(zip(names, combo))
            out.add(tuple(str(sub[t]) if t in sub else t for t in fam))
    return out


def as_tags(indices):
    return {tuple(c.tag for c in w.components) for w in indices}


@pytest.mark.parametrize("m", [2, 4])
def test_golden_listings(m):
    t0 = time.perf_counter()

    s05 = mi.build_scheme_sets(0.5, m)
    assert s05.mu == 1
    assert as_tags(s05.drift) == expand_families(EULER_KEPT, m)
    assert as_tags(s05.diffusion) == expand_families(EULER_KEPT, m)
    assert s05.drift_jump == frozenset()
    assert s05.diffusion_jump == frozenset()
    assert as_tags(s05.drift_remainder) == expand_families(EULER_REMAINDER, m)
    assert as_tags(s05.diffusion_remainder) == expand_families(EULER_REMAINDER, m)

    s10 = mi.build_scheme_sets(1.0, m)
    assert s10.mu == 2
    assert as_tags(s10.drift) == expand_families(MILSTEIN_DRIFT, m)
    assert as_tags(s10.diffusion) == expand_families(MILSTEIN_DIFFUSION, m)
    assert s10.drift_jump == frozenset()
    assert as_tags(s10.diffusion_jump) == expand_families(MILSTEIN_DIFFUSION_JUMP, m)

    s15 = mi.build_scheme_sets(1.5, m)
    assert s15.mu == 3
    assert as_tags(s15.drift) == expand_families(T15_DRIFT, m)
    assert as_tags(s15.diffusion) == expand_families(T15_DIFFUSION, m)
    assert as_tags(s15.drift_jump) == expand_families(T15_DRIFT_JUMP, m)
    assert as_tags(s15.diffusion_jump) == expand_families(T15_DIFFUSION_JUMP, m)
    assert as_tags(s15.diffusion_remainder) == expand_families(T15_DIFFUSION_REMAINDER, m)

    assert time.perf_counter() - t0 < 1.0


def test_worked_hierarchical_pair_is_the_weight_two_set():
    # the order 1.5 diffusion set equals the weight <= 2 hierarchical set at
    # jump threshold 3, and remainder_set inverts to the listed remainder
    for m in (2, 4):
        kept = mi.build_hierarchical_set(lambda w: mi.eta(w) <= 2, m, 3)
        assert as_tags(kept) == expand_families(T15_DIFFUSION, m)
        rem = mi.remainder_set(kept, m, 3)
        assert as_tags(rem) == expand_families(T15_DIFFUSION_REMAINDER, m)


# ---------------------------------------------------------------------------
# unit values for the weight and letter statistics


def test_counts_and_eta_worked_values():
    w = mi.word(0, "N2", 2, 1, "N3", 0)
    c = mi.counts(w)
    assert c == (6, 2, 2, 2, 3)
    assert c.length == 6
    assert c.wiener_count == 2
    assert c.time_count == 2
    assert c.jump_count == 2
    assert c.max_jump_value == 3
    assert mi.eta(w) == 9

    assert mi.eta(mi.EMPTY_INDEX) == 0
    assert mi.counts(mi.word("Nb3")) == (1, 0, 0, 1, 4)
    assert mi.eta(mi.word(1, "N1")) == 2
    assert mi.eta(mi.word("N1", 1, "N1")) == 2


def test_time_and_wiener_letters_have_no_jump_value():
    assert mi.TIME.jump_value == 0 and mi.wiener(2).jump_value == 0


def test_drop_and_concat_worked_values():
    w = mi.word(0, "N2", 2, 1, "N3", 0)
    assert str(mi.drop_first(w)) == "(N2,2,1,N3,0)"
    assert str(mi.drop_last(w)) == "(0,N2,2,1,N3)"

    other = mi.word(4, 0, 0, "N3", 1, "Nb1")
    joined = mi.concat(w, other)
    assert joined.length == 12
    assert str(joined) == "(0,N2,2,1,N3,0,4,0,0,N3,1,Nb1)"

    with pytest.raises(EmptyIndex):
        mi.drop_first(mi.EMPTY_INDEX)
    with pytest.raises(EmptyIndex):
        mi.drop_last(mi.EMPTY_INDEX)

    assert mi.concat(mi.EMPTY_INDEX, w) == w
    assert mi.concat(w, mi.EMPTY_INDEX) == w
    with pytest.raises(ConsecutiveJumpComponents):
        mi.concat(mi.word(1, "N3"), mi.word("N1", 2))


def test_classify():
    assert mi.classify(mi.EMPTY_INDEX) is mi.WordClass.CONTINUOUS_ONLY
    assert mi.classify(mi.word(1, 0, 2)) is mi.WordClass.CONTINUOUS_ONLY
    assert mi.classify(mi.word(0, "N2", 2)) is mi.WordClass.JUMP_INTERIOR
    assert mi.classify(mi.word("N1", 1)) is mi.WordClass.JUMP_FIRST


def test_rendering():
    assert mi.render_index(mi.EMPTY_INDEX) == "nu"
    assert str(mi.word(0, "N2", 2, 1, "N3", 0)) == "(0,N2,2,1,N3,0)"
    assert str(mi.word("Nb2")) == "(Nb2)"


def test_repr_of_a_word():
    assert repr(mi.word(0, "N2", 2)) == "MultiIndex((0,N2,2))"


def test_word_takes_letters_as_they_are():
    assert mi.word(mi.TIME, mi.jump_exact(1)).components == (mi.TIME, mi.jump_exact(1))


def test_bare_digit_tags_are_time_and_wiener_letters():
    assert mi.word("0", "2") == mi.word(0, 2)


# ---------------------------------------------------------------------------
# validation and guards


def test_word_validation():
    with pytest.raises(ConsecutiveJumpComponents):
        mi.word("N1", "N2")
    with pytest.raises(ConsecutiveJumpComponents):
        mi.word("N1", "Nb3")
    with pytest.raises(InvalidComponent):
        mi.Component(mi.ComponentKind.WIENER, 0)
    with pytest.raises(InvalidComponent):
        mi.Component(mi.ComponentKind.TIME, 1)
    for tag in ("x", "N", "Nbx", "1.5"):
        with pytest.raises(InvalidComponent, match="cannot interpret"):
            mi.word(tag)

    ok = mi.validate_word(mi.word(1, "N2", 2).components, m=2, mu=2)
    assert ok.length == 3
    with pytest.raises(InvalidComponent):
        mi.validate_word(mi.word(3,).components, m=2, mu=2)
    with pytest.raises(InvalidComponent):
        mi.validate_word(mi.word("N3").components, m=2, mu=2)
    with pytest.raises(InvalidComponent):
        mi.validate_word(mi.word("Nb1").components, m=2, mu=2)


def test_gamma_guards():
    with pytest.raises(InvalidGamma):
        mi.build_scheme_sets(0.7, 1)
    with pytest.raises(InvalidGamma):
        mi.build_scheme_sets(0.0, 1)
    with pytest.raises(InvalidGamma):
        mi.build_scheme_sets(-1.0, 1)
    with pytest.raises(InvalidGamma):
        mi.build_scheme_sets(3.5, 1)
    with pytest.raises(InvalidComponent, match="integer count of Wiener dimensions"):
        mi.build_scheme_sets(1.0, 1.5)
    # the supported ceiling still enumerates
    s = mi.build_scheme_sets(3.0, 1)
    assert mi.EMPTY_INDEX in s.drift


def test_a_predicate_that_refuses_the_empty_word_keeps_no_word():
    assert mi.build_hierarchical_set(lambda w: False, 1, 1) == frozenset()


def test_remainder_of_empty_set():
    assert mi.remainder_set([], 3, 2) == frozenset([mi.EMPTY_INDEX])


def test_the_letter_bound_stops_every_set_as_it_grows(monkeypatch):
    # the order-1.5 sets for m = 1: an alphabet of 6 letters, A^sigma of 13
    # letters and B(A^sigma) of 75; one letter less refuses each, and a set
    # of exactly the bound builds
    sets = mi.build_scheme_sets(1.5, 1)
    for bound, error in ((5, InvalidComponent), (12, InvalidGamma), (74, InvalidGamma)):
        monkeypatch.setattr(mi, "_MAX_LETTERS", bound)
        with pytest.raises(error):
            mi.build_scheme_sets(1.5, 1)
        monkeypatch.setattr(mi, "_MAX_LETTERS", bound + 1)
    assert mi.build_scheme_sets(1.5, 1) == sets


# ---------------------------------------------------------------------------
# structural properties on enumerated sets


@pytest.mark.parametrize("gamma,m", [(0.5, 1), (1.0, 2), (1.5, 2), (2.0, 2), (1.5, 3)])
def test_set_properties(gamma, m):
    sets = mi.build_scheme_sets(gamma, m)
    for kept, rem in (
        (sets.drift, sets.drift_remainder),
        (sets.diffusion, sets.diffusion_remainder),
    ):
        # closure under dropping the first letter
        for w in kept:
            if not w.is_empty:
                assert mi.drop_first(w) in kept
        # remainder characterization: outside, one letter above the set
        assert not (rem & kept)
        for w in rem:
            assert mi.drop_first(w) in kept
        # completeness: every admissible one-letter extension of a member is
        # kept or in the remainder
        letters = mi.alphabet(m, sets.mu)
        for w in kept:
            for c in letters:
                if w.components and w.components[0].is_jump and c.is_jump:
                    continue
                grown = mi.MultiIndex((c,) + w.components)
                assert grown in kept or grown in rem
        # jump subsets really are the members with an exact-jump letter
    for group, sub in (
        (sets.drift, sets.drift_jump),
        (sets.diffusion, sets.diffusion_jump),
    ):
        expected = {
            w
            for w in group
            if any(c.kind is mi.ComponentKind.JUMP_EXACT for c in w.components)
        }
        assert sub == expected


def test_eta_monotone_under_concat():
    rng = random.Random(20240817)
    letters = mi.alphabet(3, 3)

    def random_word():
        comps = []
        for _ in range(rng.randrange(0, 5)):
            c = rng.choice(letters)
            if comps and comps[-1].is_jump and c.is_jump:
                continue
            comps.append(c)
        return mi.MultiIndex(tuple(comps))

    checked = 0
    for _ in range(500):
        a, b = random_word(), random_word()
        if a.components and b.components and a.components[-1].is_jump and b.components[0].is_jump:
            continue
        j = mi.concat(a, b)
        assert mi.eta(j) >= max(mi.eta(a), mi.eta(b))
        assert mi.eta(j) <= mi.eta(a) + mi.eta(b) + max(mi.eta(a), mi.eta(b))
        checked += 1
    assert checked > 300


def test_canonical_order_is_total_and_stable():
    sets = mi.build_scheme_sets(1.5, 2)
    ordered = mi.canonical_order(sets.diffusion)
    assert len(ordered) == len(sets.diffusion)
    assert ordered == mi.canonical_order(reversed(ordered))
    lengths = [w.length for w in ordered]
    assert lengths == sorted(lengths)
    # deterministic rendering of the full listing
    assert [str(w) for w in ordered[:5]] == ["nu", "(0)", "(1)", "(2)", "(N1)"]


def test_sets_as_dict_round_trip_content():
    sets = mi.build_scheme_sets(1.0, 2)
    d = mi.sets_as_dict(sets)
    assert d["gamma"] == 1.0 and d["mu"] == 2 and d["m"] == 2
    assert d["diffusion"] == [[], ["1"], ["2"], ["N1"]]
    assert d["drift"] == [[]]
    assert d["diffusion_jump"] == [["N1"]]
