"""Chain path semantics: crafted-path values, then seeded statistics."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from switchtaylor import fixture
from switchtaylor import markov_chain as mc
from switchtaylor.errors import IntervalOutOfRange, InvalidGenerator, StateOutOfRange

TWO_STATE = mc.GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))


def crafted_path():
    # state 1 on (0, 0.5], 2 on (0.5, 1.25], 1 on (1.25, 2]
    return mc.ChainPath(0.0, 2.0, 1, np.array([0.5, 1.25]), np.array([2, 1]))


def test_generator_validation():
    with pytest.raises(InvalidGenerator):
        mc.GeneratorMatrix(np.array([[1.0, -1.0], [1.0, -1.0]]))  # wrong signs
    with pytest.raises(InvalidGenerator):
        mc.GeneratorMatrix(np.array([[-1.0, 0.5], [1.0, -1.0]]))  # row sum off
    with pytest.raises(InvalidGenerator):
        mc.GeneratorMatrix(np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]))  # not square
    with pytest.raises(InvalidGenerator):
        mc.GeneratorMatrix(np.array([[-1.0, np.nan], [1.0, -1.0]]))

    # a row-sum defect below the tolerance is accepted
    g = mc.GeneratorMatrix(np.array([[-1.0, 1.0 + 5e-13], [2.0, -2.0]]))
    assert g.m0 == 2
    assert g.qmax == 2.0
    assert g.rate(1, 2) == pytest.approx(1.0)
    with pytest.raises(StateOutOfRange):
        g.rate(0, 1)
    with pytest.raises(StateOutOfRange):
        g.rate(1, 3)


def test_a_generator_equals_no_other_kind_of_value():
    assert TWO_STATE.__eq__(TWO_STATE.q) is NotImplemented
    assert TWO_STATE != TWO_STATE.q.tolist()


def test_path_validation():
    with pytest.raises(IntervalOutOfRange):
        mc.ChainPath(0.0, 0.0, 1)
    gen = mc.GeneratorMatrix([[-1.0, 1.0], [1.0, -1.0]])
    for t_end in (np.nan, np.inf):
        with pytest.raises(IntervalOutOfRange):
            mc.ChainPath(0.0, t_end, 1)
        with pytest.raises(IntervalOutOfRange):
            mc.sample_path(gen, 1, 0.0, t_end, np.random.default_rng(0))
    with pytest.raises(IntervalOutOfRange):
        mc.ChainPath(0.0, 1.0, 1, np.array([0.5, 0.5]), np.array([2, 1]))
    with pytest.raises(IntervalOutOfRange):
        mc.ChainPath(0.0, 1.0, 1, np.array([1.5]), np.array([2]))
    with pytest.raises(IntervalOutOfRange):
        mc.ChainPath(0.0, 1.0, 1, np.array([0.0]), np.array([2]))


def test_entered_states_are_labelled_from_one():
    # a label 0 would index the last regime's coefficient table
    with pytest.raises(StateOutOfRange):
        mc.ChainPath(0.0, 1.0, 1, np.array([0.4]), np.array([0]))
    # a fractional label would be truncated to the regime below it
    with pytest.raises(StateOutOfRange):
        mc.ChainPath(0.0, 1.0, 1, [0.5], [1.5])
    with pytest.raises(StateOutOfRange):
        mc.ChainPath(0.0, 1.0, 1.5)
    with pytest.raises(StateOutOfRange):
        mc.sample_path(mc.GeneratorMatrix([[-1.0, 1.0], [1.0, -1.0]]), 1.5, 0.0, 1.0, None)


def test_state_accessors_on_crafted_path():
    p = crafted_path()
    assert p.state_at(0.0) == 1
    assert p.state_at(0.4) == 1
    assert p.state_at(0.5) == 2  # right continuous
    assert p.state_before(0.5) == 1  # left limit
    assert p.state_at(1.25) == 1
    assert p.state_before(1.25) == 2
    assert p.state_at(2.0) == 1
    assert list(p.states_at([0.0, 0.5, 1.0, 1.9])) == [1, 2, 2, 1]
    with pytest.raises(IntervalOutOfRange):
        p.state_at(2.5)


def test_jump_counting_half_open_convention():
    p = crafted_path()
    assert p.jump_count == 2
    assert mc.count_jumps(p, 0.0, 2.0) == 2
    assert mc.count_jumps(p, 0.25, 0.5) == 1  # right endpoint included
    assert mc.count_jumps(p, 0.5, 0.75) == 0  # left endpoint excluded
    assert mc.count_jumps(p, 0.5, 2.0) == 1
    with pytest.raises(IntervalOutOfRange):
        mc.count_jumps(p, 1.0, 1.0)
    with pytest.raises(IntervalOutOfRange):
        mc.count_jumps(p, -0.5, 1.0)


def test_occupation_and_pair_statistics():
    # count of the pair minus its rate (1 here) times the occupation time of
    # the first state through left limits: state 1 holds 1.25 of (0, 2] and
    # 0.75 of (0.5, 2], state 2 holds 0.75 of (0, 2] and 0.5 of (0, 1]
    p = crafted_path()

    def m(i0, k0, s, t):
        return mc.pair_jump_martingale(TWO_STATE, p, i0, k0, s, t)

    assert m(1, 2, 0.0, 2.0) == pytest.approx(1 - 1.25)
    assert m(2, 1, 0.0, 2.0) == pytest.approx(1 - 0.75)
    assert m(2, 1, 0.0, 1.0) == pytest.approx(0 - 0.5)
    assert m(1, 2, 0.5, 2.0) == pytest.approx(0 - 0.75)
    # the jump at 0.5 is outside (0.5, 2]; the one at 1.25 is inside (1.0, 1.5]
    assert m(2, 1, 1.0, 1.5) == pytest.approx(1 - 0.25)
    assert m(1, 2, 1.0, 1.5) == pytest.approx(0 - 0.25)
    assert m(1, 1, 0.0, 2.0) == 0.0


def _loop_statistics(gen, path, s, t):
    # the (s, t] statistics from one walk over the path's jumps in order:
    # jump times, occupation time per state (left limits) and transition
    # counts, each occupation summed piece by piece from s to t
    state = path.initial_state
    for tau, entered in zip(path.jump_times, path.states_after):
        if tau <= s:
            state = entered
    times, pairs = [], {}
    occupation = {i: 0.0 for i in range(1, gen.m0 + 1)}
    left = s
    for tau, entered in zip(path.jump_times, path.states_after):
        if s < tau <= t:
            times.append(tau)
            pairs[state, int(entered)] = pairs.get((state, int(entered)), 0) + 1
            if tau < t:
                occupation[state] += tau - left
                left, state = tau, int(entered)
    occupation[state] += t - left
    return times, occupation, pairs


def test_chain_queries_equal_a_sequential_loop():
    gen = mc.GeneratorMatrix(
        np.array([[-20.0, 15.0, 5.0], [8.0, -10.0, 2.0], [3.0, 30.0, -33.0]])
    )
    rng = np.random.default_rng(17)
    for p in range(40):
        path = mc.sample_path(gen, 1 + p % 3, 0.0, 3.0, rng)
        assert path.jump_count > 20
        jt = path.jump_times
        # whole span, inner windows, and ends that sit on jump times
        for s, t in ((0.0, 3.0), (0.1, 0.9), (1.3, 2.7), (jt[0], jt[-1]), (jt[2], jt[9])):
            times, occupation, pairs = _loop_statistics(gen, path, s, t)
            assert mc.count_jumps(path, s, t) == len(times)
            # every off-diagonal rate is positive, so each state's
            # occupation time enters a martingale with a nonzero weight
            for i0 in range(1, 4):
                for k0 in range(1, 4):
                    want = 0.0
                    if i0 != k0:
                        count = pairs.get((i0, k0), 0)
                        want = count - gen.rate(i0, k0) * occupation[i0]
                    assert mc.pair_jump_martingale(gen, path, i0, k0, s, t) == want


def test_sample_path_determinism_and_range():
    g = mc.GeneratorMatrix(np.array([[-2.0, 1.5, 0.5], [0.5, -1.0, 0.5], [1.0, 2.0, -3.0]]))
    a = mc.sample_path(g, 1, 0.0, 5.0, np.random.default_rng(7))
    b = mc.sample_path(g, 1, 0.0, 5.0, np.random.default_rng(7))
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.states_after, b.states_after)
    assert a.jump_count > 0
    assert set(np.unique(a.states_after)) <= {1, 2, 3}
    assert ((a.jump_times > 0.0) & (a.jump_times <= 5.0)).all()
    # successive states differ
    seq = np.concatenate(([a.initial_state], a.states_after))
    assert (np.diff(seq) != 0).all()


def per_jump_reference(generator, initial_state, t0, t_end, rng):
    """The sampler as it was before the move tables: at every jump it
    copies the row, zeroes the diagonal, takes the cumulative sum and
    searches it.  Kept here as the reference the tables must match."""
    q = generator.q
    times, states = [], []
    t, state = t0, initial_state
    while True:
        exit_rate = -q[state - 1, state - 1]
        if exit_rate <= 0.0:
            break
        t = t + rng.exponential(1.0 / exit_rate)
        if t > t_end:
            break
        rates = q[state - 1].copy()
        rates[state - 1] = 0.0
        cdf = np.cumsum(rates)
        u = rng.random() * cdf[-1]
        state = int(np.searchsorted(cdf, u, side="right")) + 1
        times.append(t)
        states.append(state)
    return np.array(times), np.array(states, dtype=np.int64)


# state 1 never jumps to 2 directly, and state 3 is absorbing
ZERO_RATE_AND_ABSORBING = mc.GeneratorMatrix([[-1.5, 0.0, 1.5], [0.5, -2.0, 1.5], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize(
    "generator",
    [fixture("linear2").generator, fixture("diagonal3").generator, ZERO_RATE_AND_ABSORBING],
    ids=["linear2", "diagonal3", "zero-rate-and-absorbing"],
)
def test_sample_path_matches_the_per_jump_loop_bit_for_bit(generator):
    for seed in range(300):
        initial = seed % generator.m0 + 1
        args = (generator, initial, 0.0, 4.0)
        got = mc.sample_path(*args, np.random.default_rng(seed))
        times, states = per_jump_reference(*args, np.random.default_rng(seed))
        assert got.jump_times.tobytes() == times.tobytes()
        assert got.states_after.tobytes() == states.tobytes()


def test_move_tables_follow_pickle_and_replace_and_are_ignored_by_eq():
    g = ZERO_RATE_AND_ABSORBING
    fresh = mc.GeneratorMatrix(g.q.copy())
    for clone in (pickle.loads(pickle.dumps(g)), dataclasses.replace(g)):
        assert clone.q.tobytes() == g.q.tobytes()
        assert clone._moves == fresh._moves
    scale, cdf = g._moves[0]
    assert scale == 1.0 / 1.5 and cdf == (0.0, 0.0, 1.5)
    assert g._moves[2][0] is None
    # the tables are derived from q, so neither repr nor == reads them; the
    # clone shares g's q, since == on two distinct q arrays is ambiguous
    other = copy.copy(g)
    object.__setattr__(other, "_moves", ())
    assert other == g
    assert "_moves" not in repr(g)


def test_generators_compare_by_q_and_models_by_identity():
    # == and hash read arrays without asking numpy for one truth value
    q = [[-1.0, 1.0], [1.0, -1.0]]
    a, b = mc.GeneratorMatrix(q), mc.GeneratorMatrix(np.array(q))
    assert a == b and hash(a) == hash(b) and a != mc.GeneratorMatrix([[-2.0, 2.0], [1.0, -1.0]])
    signed = mc.GeneratorMatrix([[-0.0, 0.0], [0.0, -0.0]])
    zero = mc.GeneratorMatrix(np.zeros((2, 2)))
    assert signed == zero and hash(signed) == hash(zero)
    model = fixture("linear2")
    assert model == model and model != fixture("linear2")
    assert model.coefficients != fixture("linear2").coefficients
    assert len({model, fixture("linear2")}) == 2


def test_absorbing_state():
    g = mc.GeneratorMatrix(np.array([[-1.0, 1.0], [0.0, 0.0]]))
    p = mc.sample_path(g, 2, 0.0, 10.0, np.random.default_rng(0))
    assert p.jump_count == 0


def test_jump_target_frequencies():
    # from state 1 the first jump goes to 2 with chance 0.75, seeded MC check
    g = mc.GeneratorMatrix(np.array([[-2.0, 1.5, 0.5], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]))
    rng = np.random.default_rng(123)
    hits = 0
    n = 4000
    for _ in range(n):
        p = mc.sample_path(g, 1, 0.0, 100.0, rng)
        assert p.jump_count > 0
        hits += p.states_after[0] == 2
    freq = hits / n
    assert abs(freq - 0.75) < 4 * np.sqrt(0.75 * 0.25 / n)


def test_mean_jump_count_two_state():
    # symmetric rate-1 chain: jump count on [0, 1] has mean 1
    rng = np.random.default_rng(2024)
    n = 4000
    total = sum(mc.sample_path(TWO_STATE, 1, 0.0, 1.0, rng).jump_count for _ in range(n))
    mean = total / n
    assert abs(mean - 1.0) < 4 / np.sqrt(n)


def test_martingale_mean_is_small():
    rng = np.random.default_rng(99)
    vals = []
    for _ in range(2000):
        p = mc.sample_path(TWO_STATE, 1, 0.0, 1.0, rng)
        vals.append(mc.pair_jump_martingale(TWO_STATE, p, 1, 2, 0.0, 1.0))
    vals = np.array(vals)
    sem = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean()) < 4 * sem

