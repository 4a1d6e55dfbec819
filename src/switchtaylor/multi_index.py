"""Words of integral labels and the index sets that define strong schemes.

An iterated stochastic integral is labelled by a word whose letters come from
a finite alphabet: one time letter, one letter per Wiener dimension
``1..m``, letters counting exactly ``r`` chain jumps for ``r = 1..mu``, and a
single overflow letter for "more than ``mu`` jumps".  A word is admissible
when no two jump-count letters are adjacent.  This module implements the word
combinatorics (weights, truncation, concatenation, classification), the
hierarchical/remainder set construction, and the specific index-set families
that drive the order-``gamma`` schemes for ``gamma`` in ``{0.5, 1.0, 1.5}``
(enumeration is supported up to ``gamma = 3.0``).

Rendering convention: the time letter prints as ``0``, Wiener letters print
as their dimension, exact-jump letters as ``N<r>``, the overflow letter as
``Nb<mu>``, and the empty word as ``nu``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, fields
from typing import Callable, Collection, Iterable, NamedTuple

from ._values import is_count, is_int, number
from .errors import (
    ConsecutiveJumpComponents,
    EmptyIndex,
    InvalidComponent,
    InvalidGamma,
)

__all__ = [
    "ComponentKind",
    "Component",
    "MultiIndex",
    "IndexCounts",
    "WordClass",
    "SchemeSets",
    "EMPTY_INDEX",
    "TIME",
    "wiener",
    "jump_exact",
    "jump_overflow",
    "word",
    "validate_word",
    "alphabet",
    "counts",
    "eta",
    "drop_first",
    "drop_last",
    "concat",
    "classify",
    "build_hierarchical_set",
    "remainder_set",
    "build_scheme_sets",
    "canonical_order",
    "render_index",
    "sets_as_dict",
]

# Enumeration is refused above this order; the sets grow combinatorially and
# nothing in the package uses longer words.
MAX_GAMMA = 3.0

# an alphabet, hierarchical set or remainder set may hold at most this many
# letters, 2**20: the largest set of gamma <= 3 and m <= 4, B(A^sigma) at
# gamma = 3 and m = 4, holds 122 224 words of 828 006 letters
_MAX_LETTERS = 2**20


class ComponentKind(enum.Enum):
    """The four letter families a word may contain."""

    TIME = "time"
    WIENER = "wiener"
    JUMP_EXACT = "jump_exact"
    JUMP_OVERFLOW = "jump_overflow"


# letters sort by family in declaration order
_SORT_RANK = {kind: rank for rank, kind in enumerate(ComponentKind)}


@dataclass(frozen=True)
class Component:
    """One letter of a word.

    The meaning of ``index`` depends on ``kind``: Wiener dimension for
    WIENER, the exact jump count for JUMP_EXACT, and the overflow threshold
    for JUMP_OVERFLOW (which stands for "more than ``index`` jumps").  It
    must be 0 for the time letter.
    """

    kind: ComponentKind
    index: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, ComponentKind) or not is_int(self.index):
            raise InvalidComponent("no letter has kind %r, index %r" % (self.kind, self.index))
        if self.kind is ComponentKind.TIME:
            if self.index != 0:
                raise InvalidComponent("time letter carries no index")
        elif self.index < 1:
            raise InvalidComponent(
                "%s letter needs a positive index, got %r" % (self.kind.value, self.index)
            )

    @property
    def is_jump(self) -> bool:
        """True for the two jump-count letter families."""
        return self.kind in (ComponentKind.JUMP_EXACT, ComponentKind.JUMP_OVERFLOW)

    @property
    def jump_value(self) -> int:
        """Numeric weight of a jump letter: r for exactly-r, mu + 1 for overflow."""
        if self.kind is ComponentKind.JUMP_EXACT:
            return self.index
        if self.kind is ComponentKind.JUMP_OVERFLOW:
            return self.index + 1
        return 0

    @property
    def tag(self) -> str:
        """Short text form used in word rendering."""
        if self.kind is ComponentKind.TIME:
            return "0"
        if self.kind is ComponentKind.WIENER:
            return str(self.index)
        if self.kind is ComponentKind.JUMP_EXACT:
            return "N%d" % self.index
        return "Nb%d" % self.index

    def sort_key(self) -> tuple:
        return (_SORT_RANK[self.kind], self.index)

    def __repr__(self):
        return "Component(%s)" % self.tag


TIME = Component(ComponentKind.TIME)


def wiener(j: int) -> Component:
    """Letter for the j-th Wiener dimension (1-based)."""
    return Component(ComponentKind.WIENER, j)


def jump_exact(r: int) -> Component:
    """Letter counting steps on which the chain jumps exactly r times."""
    return Component(ComponentKind.JUMP_EXACT, r)


def jump_overflow(mu: int) -> Component:
    """Letter counting steps on which the chain jumps more than mu times."""
    return Component(ComponentKind.JUMP_OVERFLOW, mu)


@dataclass(frozen=True)
class MultiIndex:
    """An admissible word of letters.

    Admissibility (no adjacent jump-count letters) is enforced on
    construction; alphabet bounds are checked separately by
    :func:`validate_word` because they depend on the ambient ``(m, mu)``.
    """

    components: tuple[Component, ...] = ()

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        for c in comps:
            if not isinstance(c, Component):
                raise InvalidComponent("word letters must be Component, got %r" % (c,))
        for a, b in zip(comps, comps[1:]):
            if a.is_jump and b.is_jump:
                raise ConsecutiveJumpComponents(
                    "adjacent jump letters %s,%s are not admissible" % (a.tag, b.tag)
                )

    @property
    def length(self) -> int:
        return len(self.components)

    @property
    def is_empty(self) -> bool:
        return not self.components

    def sort_key(self) -> tuple:
        return (len(self.components), tuple(c.sort_key() for c in self.components))

    def __str__(self):
        return render_index(self)

    def __repr__(self):
        return "MultiIndex(%s)" % render_index(self)


EMPTY_INDEX = MultiIndex(())


class IndexCounts(NamedTuple):
    """Letter statistics of a word: (length, wiener, time, jump, max_jump_value)."""

    length: int
    wiener_count: int
    time_count: int
    jump_count: int
    max_jump_value: int


class WordClass(enum.Enum):
    """Partition of words by where jump-count letters appear.

    CONTINUOUS_ONLY: no jump letters at all (the empty word included).
    JUMP_INTERIOR:   jump letters occur, but the first letter is time/Wiener.
    JUMP_FIRST:      the first letter is a jump letter.
    """

    CONTINUOUS_ONLY = "continuous_only"
    JUMP_INTERIOR = "jump_interior"
    JUMP_FIRST = "jump_first"


def word(*tags) -> MultiIndex:
    """Build a word from components or rendered tags.

    Accepts Component objects, integers (0 for the time letter, j >= 1 for
    Wiener letters), or tag strings like "N2" / "Nb3".

    >>> word(0, "N2", 2)
    MultiIndex((0,N2,2))
    """
    comps = []
    for t in tags:
        if isinstance(t, Component):
            comps.append(t)
        elif is_int(t):
            comps.append(TIME if t == 0 else wiener(t))
        elif isinstance(t, str):
            comps.append(_component_from_tag(t))
        else:
            raise InvalidComponent("cannot interpret %r as a word letter" % (t,))
    return MultiIndex(tuple(comps))


_TAG = re.compile(r"(Nb|N)?([0-9]+)\Z")


def _component_from_tag(tag: str) -> Component:
    match = _TAG.match(tag.strip())
    if match is None:
        raise InvalidComponent("cannot interpret %r as a word letter" % (tag,))
    prefix, j = match.group(1), int(match.group(2))
    if prefix == "Nb":
        return jump_overflow(j)
    if prefix == "N":
        return jump_exact(j)
    return TIME if j == 0 else wiener(j)


def validate_word(components: Iterable[Component], m: int, mu: int) -> MultiIndex:
    """Check a letter sequence against the alphabet with m Wiener dimensions
    and jump threshold mu, and return it as a MultiIndex.

    Raises:
      InvalidComponent: a letter is outside the alphabet (Wiener dimension
        above m, exact-jump count above mu, or overflow threshold != mu).
      ConsecutiveJumpComponents: two jump letters are adjacent.
    """
    letters = alphabet(m, mu)
    comps = tuple(components)
    for c in comps:
        if c not in letters:
            raise InvalidComponent(
                "letter %r is not in the alphabet of m = %d, mu = %d" % (c, m, mu)
            )
    return MultiIndex(comps)


def counts(index: MultiIndex) -> IndexCounts:
    """Letter statistics used by the weight eta."""
    wiener_count = time_count = jump_count = 0
    max_jump = 0
    for c in index.components:
        if c.kind is ComponentKind.WIENER:
            wiener_count += 1
        elif c.kind is ComponentKind.TIME:
            time_count += 1
        else:
            jump_count += 1
            max_jump = max(max_jump, c.jump_value)
    return IndexCounts(index.length, wiener_count, time_count, jump_count, max_jump)


def eta(index: MultiIndex) -> int:
    """Weight of a word: wiener count + 2 * time count + largest jump value.

    The weight of the empty word is 0.
    """
    c = counts(index)
    return c.wiener_count + 2 * c.time_count + c.max_jump_value


def drop_first(index: MultiIndex) -> MultiIndex:
    """Remove the first letter.  Raises EmptyIndex on the empty word."""
    if index.is_empty:
        raise EmptyIndex("cannot drop a letter from the empty word")
    return MultiIndex(index.components[1:])


def drop_last(index: MultiIndex) -> MultiIndex:
    """Remove the last letter.  Raises EmptyIndex on the empty word."""
    if index.is_empty:
        raise EmptyIndex("cannot drop a letter from the empty word")
    return MultiIndex(index.components[:-1])


def concat(left: MultiIndex, right: MultiIndex) -> MultiIndex:
    """Concatenate two words; fails if jump letters meet at the junction."""
    return MultiIndex(left.components + right.components)


def classify(index: MultiIndex) -> WordClass:
    """Partition a word by the placement of its jump letters."""
    if not any(c.is_jump for c in index.components):
        return WordClass.CONTINUOUS_ONLY
    if index.components[0].is_jump:
        return WordClass.JUMP_FIRST
    return WordClass.JUMP_INTERIOR


def alphabet(m: int, mu: int) -> tuple[Component, ...]:
    """All letters for m Wiener dimensions and jump threshold mu; at most
    2**20 of them (``_MAX_LETTERS``)."""
    if not (is_count(m) and is_count(mu) and m + mu + 2 <= _MAX_LETTERS):
        raise InvalidComponent(
            "alphabet needs integers m, mu >= 1 and at most %d letters, got %r and %r"
            % (_MAX_LETTERS, m, mu)
        )
    letters = [TIME]
    letters.extend(wiener(j) for j in range(1, m + 1))
    letters.extend(jump_exact(r) for r in range(1, mu + 1))
    letters.append(jump_overflow(mu))
    return tuple(letters)


def _extensions(words, letters):
    # every admissible word that prepends one of ``letters`` to a word of
    # ``words``; the letters come from ``alphabet`` and ``blocked`` checks the
    # one new junction, so each word skips MultiIndex's pass over all letters
    for w in words:
        blocked = w.components and w.components[0].is_jump
        for c in letters:
            if not (blocked and c.is_jump):
                extended = object.__new__(MultiIndex)
                object.__setattr__(extended, "components", (c,) + w.components)
                yield extended


def _bounded(words, held=()) -> list:
    # ``words`` as a list, refused as soon as they and the words ``held``
    # pass _MAX_LETTERS letters; a bound on letters, not words, also stops a
    # chain of ever longer words, whose letters grow with its length squared
    total = sum(w.length for w in held)
    out = []
    for w in words:
        total += w.length
        if total > _MAX_LETTERS:
            raise InvalidGamma(
                "an index set of more than %d letters; the predicate is too permissive "
                "or the set too large" % _MAX_LETTERS
            )
        out.append(w)
    return out


def build_hierarchical_set(
    predicate: Callable[[MultiIndex], bool],
    m: int,
    mu: int,
) -> frozenset:
    """Enumerate the admissible words satisfying a membership predicate.

    The predicate must be monotone under removal of the first letter (if a
    word is a member, so is the word with its first letter dropped), which
    makes the result closed under that truncation.  Enumeration proceeds by
    prepending alphabet letters, so a non-monotone predicate silently loses
    members.  A set of more than 2**20 letters (``_MAX_LETTERS``) raises
    ``InvalidGamma`` as it grows, which stops a predicate that is too
    permissive.
    """
    if not predicate(EMPTY_INDEX):
        return frozenset()
    letters = alphabet(m, mu)
    members = {EMPTY_INDEX}
    frontier = [EMPTY_INDEX]
    while frontier:
        frontier = _bounded(filter(predicate, _extensions(frontier, letters)), members)
        members.update(frontier)
    return frozenset(members)


def remainder_set(members: Collection[MultiIndex], m: int, mu: int) -> frozenset:
    """Words one prepended letter outside a truncation-closed set.

    For a set A closed under drop_first, these are exactly the words not in
    A whose first-letter truncation lies in A.  The remainder of the empty
    set is the singleton {empty word}.  A remainder of more than 2**20
    letters raises ``InvalidGamma``.
    """
    base = frozenset(members)
    if not base:
        return frozenset([EMPTY_INDEX])
    return frozenset(_bounded(w for w in _extensions(base, alphabet(m, mu)) if w not in base))


@dataclass(frozen=True)
class SchemeSets:
    """Index-set family of the order-``gamma`` scheme.

    drift/diffusion hold the words kept in the drift and diffusion
    expansions; the *_jump subsets collect members with at least one
    exact-jump letter (these drive the regime-switch correction terms); the
    *_remainder sets hold the words one letter beyond the kept sets, which
    carry the local truncation error.
    """

    gamma: float
    mu: int
    m: int
    drift: frozenset = field(repr=False)
    diffusion: frozenset = field(repr=False)
    drift_jump: frozenset = field(repr=False)
    diffusion_jump: frozenset = field(repr=False)
    drift_remainder: frozenset = field(repr=False)
    diffusion_remainder: frozenset = field(repr=False)


def _has_exact_jump(index: MultiIndex) -> bool:
    return any(c.kind is ComponentKind.JUMP_EXACT for c in index.components)


def build_scheme_sets(gamma: float, m: int) -> SchemeSets:
    """Construct the kept/jump/remainder index sets of the order-gamma scheme.

    gamma must be a positive multiple of 0.5; enumeration is refused above
    3.0.  The jump threshold is mu = 2 * gamma.  Membership: the diffusion
    set keeps every word of weight at most 2*gamma - 1; the drift set keeps
    the empty word, all-time words of weight at most 2*gamma - 1, and any
    other nonempty word only at weight at most 2*gamma - 2.

    Raises:
      InvalidGamma: gamma is not a positive half-integer, or above 3.0.
    """
    two = 2 * number(gamma)
    # NaN and inf fail the first comparison, before round() could see them
    if not (0.5 <= two < float("inf") and abs(two - round(two)) <= 1e-12):
        raise InvalidGamma("scheme order must be a positive multiple of 0.5, got %r" % (gamma,))
    if two > 2 * MAX_GAMMA:
        raise InvalidGamma(
            "enumeration refused for order %s > %s; the sets grow combinatorially"
            % (gamma, MAX_GAMMA)
        )
    if not is_count(m):
        raise InvalidComponent("need an integer count of Wiener dimensions >= 1, got %r" % (m,))
    mu = two_gamma = round(two)

    def keep_diffusion(index: MultiIndex) -> bool:
        return eta(index) <= two_gamma - 1

    def keep_drift(index: MultiIndex) -> bool:
        if index.is_empty:
            return True
        if all(c.kind is ComponentKind.TIME for c in index.components):
            return eta(index) <= two_gamma - 1
        return eta(index) <= two_gamma - 2

    drift = build_hierarchical_set(keep_drift, m, mu)
    diffusion = build_hierarchical_set(keep_diffusion, m, mu)
    return SchemeSets(
        gamma=float(gamma),
        mu=mu,
        m=m,
        drift=drift,
        diffusion=diffusion,
        drift_jump=frozenset(w for w in drift if _has_exact_jump(w)),
        diffusion_jump=frozenset(w for w in diffusion if _has_exact_jump(w)),
        drift_remainder=remainder_set(drift, m, mu),
        diffusion_remainder=remainder_set(diffusion, m, mu),
    )


def canonical_order(indices: Iterable[MultiIndex]) -> list:
    """Sort words by length, then letter-wise by kind rank and index."""
    return sorted(indices, key=MultiIndex.sort_key)


def render_index(index: MultiIndex) -> str:
    """Text form of a word: "nu" when empty, else "(tag,...,tag)"."""
    if index.is_empty:
        return "nu"
    return "(" + ",".join(c.tag for c in index.components) + ")"


def sets_as_dict(sets: SchemeSets) -> dict:
    """JSON-ready form of a scheme-set family.

    Each word becomes a list of letter tags in canonical order; the empty
    word is an empty list.
    """

    def encode(value):
        if not isinstance(value, frozenset):
            return value
        return [[c.tag for c in w.components] for w in canonical_order(value)]

    return {f.name: encode(getattr(sets, f.name)) for f in fields(sets)}
