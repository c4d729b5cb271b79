import io
import math
from collections import Counter

import numpy as np
import pytest

from baradapt.history import (
    HistoryStack,
    _central_difference,
    fill_with_exact_model_data,
    write_csv,
)
from baradapt.model import benchmark_plant, benchmark_trajectory


def test_derivative_exact_for_quadratics():
    # the central difference is exact for polynomials up to degree 2
    t = np.array([0.0, 0.1, 0.2])
    states = np.stack([3.0 * t_**2 - 2.0 * t_ + np.array([1.0, -1.0]) for t_ in t])
    got = _central_difference(states[0], states[2], t[0], t[2])
    expected = 6.0 * 0.1 - 2.0
    assert np.allclose(got, [expected, expected], rtol=1e-12, atol=1e-12)


def test_derivative_five_point_window_uses_midpoint():
    t = np.linspace(0.0, 0.4, 5)
    states = np.sin(t)[:, None]
    got = _central_difference(states[1], states[3], t[1], t[3])
    expected = (np.sin(t[3]) - np.sin(t[1])) / (t[3] - t[1])
    assert got[0] == pytest.approx(expected, rel=1e-15)
    # it estimates the derivative at the midpoint t[2], within h^2/6 max|x'''|
    assert got[0] == pytest.approx(np.cos(t[2]), abs=0.1**2 / 6)


def test_append_until_capacity():
    stack = HistoryStack(2, 4, capacity=3, min_eig_threshold=1e-3)
    Y = np.eye(2, 4)
    assert len(stack) == 0
    for k in range(3):
        assert stack.try_insert(Y, np.zeros(2), np.zeros(2))
        assert len(stack) == k + 1


def test_gram_and_cl_term_recomputed_from_entries():
    rng = np.random.default_rng(2)
    stack = HistoryStack(2, 4, capacity=10, min_eig_threshold=1e-3)
    for _ in range(7):
        stack.try_insert(rng.normal(size=(2, 4)), rng.normal(size=2),
                         rng.normal(size=2))
    gram = np.zeros((4, 4))
    for ent in stack._entries:
        gram += ent.Y.T @ ent.Y
    assert np.allclose(stack.gram, gram, rtol=1e-14, atol=1e-14)
    th = rng.normal(size=4)
    cl = np.zeros(4)
    for ent in stack._entries:
        cl += ent.Y.T @ (ent.xdot_hat - ent.u - ent.Y @ th)
    assert np.allclose(stack.cl_term(th), cl, rtol=1e-12, atol=1e-12)


def test_cached_sums_equal_an_entry_loop_through_swaps():
    # the stacked per-entry terms are summed in entry order, so the cached
    # gram and projection equal a loop over the entries exactly
    rng = np.random.default_rng(31)
    stack = HistoryStack(2, 4, capacity=4, min_eig_threshold=1e-3)
    changes = 0
    for _ in range(60):
        changes += stack.try_insert(rng.normal(size=(2, 4)), rng.normal(size=2),
                                    rng.normal(size=2))
        gram, proj = np.zeros((4, 4)), np.zeros(4)
        for ent in stack._entries:
            gram += ent.Y.T @ ent.Y
            proj += ent.Y.T @ (ent.xdot_hat - ent.u)
        assert np.array_equal(stack.gram, gram)
        assert np.array_equal(stack._proj, proj)
    assert changes > stack.capacity  # some candidates were swapped in


def _unscreened_try_insert(stack, Y, u, xdot_hat):
    """The swap rule with every trial gram in one batched eigvalsh and no
    screen: try_insert as it was before the screen, the reference below."""
    cand = stack._validate(Y, u, xdot_hat)
    if stack.capacity == 0:
        return False
    cand_gram = cand.Y.T @ cand.Y
    cand_proj = cand.Y.T @ (cand.xdot_hat - cand.u)
    if len(stack._entries) < stack.capacity:
        stack._entries.append(cand)
        stack._grams = np.concatenate([stack._grams, cand_gram[None]])
        stack._projs = np.concatenate([stack._projs, cand_proj[None]])
        stack._recompute()
        return True
    current = stack.excitation_level()
    trials = stack._gram - stack._grams + cand_gram
    eigs = np.linalg.eigvalsh(trials)[:, 0]
    best_idx = int(np.argmax(eigs))
    if eigs[best_idx] <= current * (1.0 + 1e-12):
        return False
    removed = (stack._entries[best_idx], stack._grams[best_idx].copy(),
               stack._projs[best_idx].copy())
    stack._entries[best_idx], stack._grams[best_idx], stack._projs[best_idx] = (
        cand, cand_gram, cand_proj)
    stack._recompute()
    if stack.excitation_level() <= current:
        stack._entries[best_idx], stack._grams[best_idx], stack._projs[best_idx] = removed
        stack._recompute()
        return False
    return True


KINDS = ["gaussian", "benchmark", "rank_deficient", "ties", "huge", "bursts", "faint"]


def _candidates(kind, rng, stack, scale, last):
    """Candidate regressors of one stream kind; ties re-offers the stack's
    own entries, exactly or within a few ulps to a few 1e-5 of them,
    bursts near-copies of last, the last candidate the stack took, so that
    swaps come in runs as on a densely recorded lane, and faint offers a
    full stack with an unexcited direction candidates 1e-8 to 1e-6 of its
    scale, whose own slack 1e-9 trace(C) is below the rounding of the
    bound: the stack's slack 1e-9 trace(G) covers it."""
    n, p = stack.dim_state, stack.dim_param
    if kind == "benchmark":
        # the paper's regressor along its reference path: exact zeros
        x = benchmark_trajectory().eval(float(rng.uniform(0.0, 30.0)))[0]
        return scale * benchmark_plant().regressor(x + rng.choice([0.0, 0.1]) * rng.normal(size=2))
    if kind == "ties" and len(stack) and rng.random() < 0.6:
        Y = stack._entries[rng.integers(len(stack))].Y
        return Y * rng.choice([1.0, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-7, 1.0 + 1e-5])
    if kind == "bursts" and last is not None and rng.random() < 0.8:
        return last * (1.0 + 10.0 ** rng.uniform(-4.0, -1.0) * rng.normal(size=(n, p)))
    if kind == "faint" and len(stack) == stack.capacity and rng.random() < 0.7:
        return scale * 10.0 ** rng.uniform(-8.0, -6.0) * rng.normal(size=(n, p))
    if kind == "rank_deficient" and (not len(stack) or rng.random() < 0.3):
        # a stack of zero samples offered another has a bound and a bar of
        # exactly 0
        return np.zeros((n, p))
    Y = scale * 10.0 ** rng.uniform(-1.0, 1.0) * rng.normal(size=(n, p))
    if kind == "faint" or kind == "rank_deficient" and rng.random() < 0.9:
        # one parameter direction stays unexcited, so the level is 0
        Y[:, 0] = 0.0
    return Y


@pytest.mark.parametrize("kind", KINDS)
def test_screened_swaps_match_the_full_batched_rule(kind, monkeypatch):
    # the screen only skips trials that cannot change the decision: every
    # return value, entry, cached sum, level and revision is bitwise the
    # unscreened rule's, and the screen both ends candidates without LAPACK
    # and sends only part of the trials to it.  huge draws regressors up to
    # 1e150, where the 2x2 bound's sqrt(h*h + b*b) would overflow to inf;
    # p = 1 stacks have one eigenvector to bound with
    eigvalsh, batches = np.linalg.eigvalsh, []

    def counted(a):
        if a.ndim == 3:
            batches.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rng = np.random.default_rng(KINDS.index(kind))
    screened_out = partial = at_zero = 0
    for capacity in range(1, 8):
        for _ in range(3):
            n, p = (2, 4) if kind == "benchmark" else (int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            scale = 10.0 ** rng.uniform(*((100.0, 150.0) if kind == "huge" else (-4.0, 4.0)))
            stack, ref = (HistoryStack(n, p, capacity, 1e-3) for _ in range(2))
            last = None
            for _ in range(50):
                Y = _candidates(kind, rng, ref, scale, last)
                u, xd = rng.normal(size=n), rng.normal(size=n)
                full = len(stack) == capacity
                at_zero += full and ref.excitation_level() == 0.0
                want = _unscreened_try_insert(ref, Y, u, xd)
                last = Y if want else last
                del batches[:]
                assert stack.try_insert(Y, u, xd) == want
                if full:
                    screened_out += not batches
                    partial += bool(batches) and batches[0] < capacity
                assert all(np.array_equal(a, b) for ea, eb in zip(stack._entries, ref._entries)
                           for a, b in zip(ea, eb))
                assert len(stack) == len(ref)
                for name in ("_grams", "_projs", "_gram", "_proj"):
                    assert np.array_equal(getattr(stack, name), getattr(ref, name))
                assert stack.excitation_level() == ref.excitation_level()
                # the run forms its memory terms again on every revision
                assert stack._revision == ref._revision
    assert screened_out > 0 and partial > 0
    if kind in ("rank_deficient", "faint"):
        assert at_zero > 0


def test_a_rejection_forms_the_screen_and_a_change_drops_it(monkeypatch):
    # every change (an append, a swap, and both halves of a reverted swap)
    # forms the level and leaves no screen, with no eigh; a full-stack
    # candidate rejected without a screen forms one with one eigh, and the
    # candidates after it reuse that screen until the next change
    eigh, eigh_calls = np.linalg.eigh, []

    def counted(a):
        eigh_calls.append(a)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rng = np.random.default_rng(12)
    stack = HistoryStack(2, 4, capacity=4, min_eig_threshold=1e-3)

    def check():
        eigs = np.linalg.eigvalsh(stack.gram)
        tol = stack.dim_param * np.finfo(float).eps * eigs[-1]
        assert stack.excitation_level() == (float(eigs[0]) if eigs[0] > tol else 0.0)

    def offer(scale):
        revision, screen = stack._revision, stack._screen
        del eigh_calls[:]
        stack.try_insert(scale * rng.normal(size=(2, 4)), rng.normal(size=2),
                         rng.normal(size=2))
        changes = stack._revision - revision
        if changes:
            assert stack._screen is None and not eigh_calls
            return "changed", changes
        assert len(stack) == stack.capacity
        if screen is None:
            assert stack._screen is not None and len(eigh_calls) == 1
            return "formed", 0
        assert stack._screen is screen and not eigh_calls
        return "reused", 0

    check()
    assert stack._screen is None
    outcomes = Counter()
    for _ in range(60):
        outcomes[offer(rng.choice([0.1, 1.0, 10.0]))] += 1
        check()
    assert outcomes["changed", 1] > 4 and outcomes["formed", 0] > 1 and outcomes["reused", 0] > 1

    # a swap that the post-swap guard reverts, forced as in test_sim, from a
    # stack that holds a screen
    while stack._screen is None:
        offer(0.1)
    level, reads = stack.excitation_level(), []

    def level_before_swap():
        reads.append(level)
        return level

    monkeypatch.setattr(stack, "excitation_level", level_before_swap)
    assert offer(100.0) == ("changed", 2)
    monkeypatch.undo()
    assert len(reads) == 2
    assert stack.excitation_level() == level
    check()


def test_dense_stream_screens_without_eigh_after_a_change(monkeypatch):
    # sec5b offering a candidate every step for 0.5 s: 20 appends, 73 swaps
    # and 406 rejections.  Swaps come in runs, so the screen is formed only
    # after a rejection: a screen formed on every change paid 74 eigh calls
    # here, and bounding with one eigenvector sent 126 rejections to LAPACK
    from dataclasses import replace

    from baradapt.cli import load_config
    from baradapt.sim import canonical_config, run_scenario

    cfg = load_config("sec5b")
    cfg = replace(cfg, log_every=1, t_final=0.5, stack=replace(cfg.stack, record_every=1))
    calls, outcomes = Counter(), Counter()
    eigh, eigvalsh, try_insert = np.linalg.eigh, np.linalg.eigvalsh, HistoryStack.try_insert

    def counted_eigh(a):
        calls["eigh"] += 1
        return eigh(a)

    def counted_eigvalsh(a):
        calls["batches"] += a.ndim == 3
        return eigvalsh(a)

    def classified_insert(self, *args):
        size, batches = len(self), calls["batches"]
        changed = try_insert(self, *args)
        outcome = "insert" if len(self) > size else "swap" if changed else "rejection"
        outcomes[outcome] += 1
        outcomes["rejection to LAPACK"] += not changed and calls["batches"] > batches
        return changed

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(HistoryStack, "try_insert", classified_insert)
    run_scenario(canonical_config(cfg))
    assert (outcomes["insert"], outcomes["swap"], outcomes["rejection"]) == (20, 73, 406)
    assert outcomes["rejection to LAPACK"] <= 5
    assert calls["eigh"] <= 5


def test_write_csv_prints_each_cell_as_format_17g():
    # the one line format per call gives every cell's format(v, ".17g"),
    # strings as they are, for every kind of number a caller passes
    rows = [
        ["a", 1, 0.1, np.float64(1 / 3), math.inf, -math.inf, -0.0, 5e-324, 1e16],
        ["barrier_sigma_mod", -7, 2.5e-310, np.float64(-1e300), math.nan, 0.0, 1e-5, 2**60, True],
    ]
    expected = "k,n,x,y,p,q,z,s,b\n" + "".join(
        ",".join(v if isinstance(v, str) else format(v, ".17g") for v in row) + "\n"
        for row in rows)
    for given in (rows, iter(rows)):
        buf = io.StringIO()
        write_csv(buf, "k,n,x,y,p,q,z,s,b".split(","), given)
        assert buf.getvalue() == expected
    assert ",-0,4.9406564584124654e-324,10000000000000000\n" in expected
    buf = io.StringIO()
    write_csv(buf, ["t"], [])
    assert buf.getvalue() == "t\n"


def test_cl_term_empty_stack_is_zero():
    stack = HistoryStack(2, 4, capacity=20, min_eig_threshold=1e-3)
    assert np.array_equal(stack.cl_term(np.ones(4)), np.zeros(4))
    assert stack.excitation_level() == 0.0
    assert not stack.assumption_met


def test_swap_accepts_only_improvements():
    stack = HistoryStack(2, 2, capacity=2, min_eig_threshold=1e-3)
    # two aligned entries leave the second direction unexcited
    weak = np.array([[1.0, 0.0], [0.0, 0.0]])
    stack.try_insert(weak, np.zeros(2), np.zeros(2))
    stack.try_insert(weak, np.zeros(2), np.zeros(2))
    assert stack.excitation_level() == 0.0
    # an orthogonal candidate fills the gap and must be accepted
    strong = np.array([[0.0, 1.0], [1.0, 0.0]])
    before = stack.excitation_level()
    assert stack.try_insert(strong, np.zeros(2), np.zeros(2))
    assert stack.excitation_level() > before
    # re-offering the weak entry cannot improve and must be refused
    level = stack.excitation_level()
    assert not stack.try_insert(weak, np.zeros(2), np.zeros(2))
    assert stack.excitation_level() == level


def test_excitation_never_decreases_under_random_inserts():
    rng = np.random.default_rng(23)
    stack = HistoryStack(2, 4, capacity=5, min_eig_threshold=1e-3)
    prev = stack.excitation_level()
    for _ in range(300):
        scale = rng.choice([0.01, 1.0, 10.0])
        stack.try_insert(scale * rng.normal(size=(2, 4)), rng.normal(size=2),
                         rng.normal(size=2))
        level = stack.excitation_level()
        assert level >= prev
        prev = level


def test_assumption_threshold():
    stack = HistoryStack(2, 2, capacity=4, min_eig_threshold=0.5)
    stack.try_insert(0.1 * np.eye(2), np.zeros(2), np.zeros(2))
    assert stack.excitation_level() > 0.0
    assert not stack.assumption_met
    stack.try_insert(np.eye(2), np.zeros(2), np.zeros(2))
    assert stack.assumption_met


def test_entry_validation():
    stack = HistoryStack(2, 4, capacity=2, min_eig_threshold=1e-3)
    with pytest.raises(ValueError):
        stack.try_insert(np.zeros((3, 4)), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        stack.try_insert(np.zeros((2, 4)), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        stack.try_insert(np.full((2, 4), np.nan), np.zeros(2), np.zeros(2))
    assert len(stack) == 0
    with pytest.raises(ValueError, match=r"^theta_hat has shape \(2, 2\), expected \(4,\)$"):
        stack.cl_term(np.zeros((2, 2)))


def test_constructor_rejects_fractional_capacity_and_nan_threshold():
    for capacity in (2.5, math.nan, math.inf, True, "2"):
        with pytest.raises(ValueError, match="^capacity must be an integer, got"):
            HistoryStack(2, 4, capacity=capacity, min_eig_threshold=1e-3)
    with pytest.raises(ValueError, match="^capacity must be non-negative$"):
        HistoryStack(2, 4, capacity=-1, min_eig_threshold=1e-3)
    # StackConfig rejects an infinite min_excitation, so the stack does too
    for threshold in (math.nan, -1e-3, math.inf, True):
        with pytest.raises(ValueError, match="^min_eig_threshold must be non-negative"):
            HistoryStack(2, 4, capacity=2, min_eig_threshold=threshold)
    stack = HistoryStack(2, 4, capacity=2.0, min_eig_threshold=0)
    assert stack.capacity == 2 and type(stack.capacity) is int


def test_constructor_rejects_non_integral_dimensions():
    for bad in (2.7, math.nan, math.inf, True):
        with pytest.raises(ValueError, match=r"^dim_state must be an integer, got"):
            HistoryStack(bad, 4, capacity=2, min_eig_threshold=1e-3)
        with pytest.raises(ValueError, match=r"^dim_param must be an integer, got"):
            HistoryStack(2, bad, capacity=2, min_eig_threshold=1e-3)
    # as PlantModel and ConstraintGroup: a dimension is at least 1
    for bad in (0, -1, 0.0):
        with pytest.raises(ValueError, match=r"^dim_state must be positive$"):
            HistoryStack(bad, 4, capacity=2, min_eig_threshold=1e-3)
        with pytest.raises(ValueError, match=r"^dim_param must be positive$"):
            HistoryStack(2, bad, capacity=2, min_eig_threshold=1e-3)
    stack = HistoryStack(2.0, 4.0, capacity=2, min_eig_threshold=1e-3)
    assert (stack.dim_state, stack.dim_param) == (2, 4)
    assert type(stack.dim_state) is int and type(stack.dim_param) is int


def test_zero_capacity_accepts_nothing():
    stack = HistoryStack(2, 4, capacity=0, min_eig_threshold=1e-3)
    assert not stack.try_insert(np.ones((2, 4)), np.zeros(2), np.zeros(2))
    assert len(stack) == 0


def test_fill_with_exact_model_data_consistency():
    plant = benchmark_plant()
    traj = benchmark_trajectory()
    stack = HistoryStack(2, 4, capacity=20, min_eig_threshold=1e-3)
    states = [traj.eval(float(t))[0] for t in np.linspace(1.0, 30.0, 20)]
    accepted = fill_with_exact_model_data(stack, plant, states)
    assert accepted == 20
    assert len(stack) == 20
    # perfect data implies a vanishing residual at the true parameters
    assert np.abs(stack.cl_term(plant.theta)).max() < 1e-9
    assert stack.excitation_level() > 0.0



def _looped_fill(stack, plant, states) -> int:
    """The prefill as one try_insert per state: the reference that
    fill_with_exact_model_data must match."""
    accepted = 0
    for x in states:
        Y = plant.eval_regressor(x)
        u = np.zeros(plant.dim_state)
        accepted += stack.try_insert(Y, u, Y @ plant.theta + u)
    return accepted


@pytest.mark.parametrize("capacity, n_states, preset", [
    (20, 20, 0),  # the offline scenarios: every state fits
    (20, 12, 0),  # room to spare
    (8, 20, 0),   # more states than room: the last 12 meet a full stack
    (10, 15, 4),  # a stack that already holds entries
    (0, 5, 0),
])
def test_prefill_matches_a_try_insert_loop(capacity, n_states, preset):
    plant, traj = benchmark_plant(), benchmark_trajectory()
    states = [traj.eval(float(t))[0] for t in np.linspace(0.3, 30.0, n_states)]
    stack, ref = (HistoryStack(2, 4, capacity, 1e-3) for _ in range(2))
    for each in (stack, ref):
        _looped_fill(each, plant, states[-preset:] if preset else [])
    assert fill_with_exact_model_data(stack, plant, states) == _looped_fill(ref, plant, states)
    assert len(stack) == len(ref)
    assert all(np.array_equal(a, b) for ea, eb in zip(stack._entries, ref._entries)
               for a, b in zip(ea, eb))
    for name in ("_grams", "_projs", "_gram", "_proj"):
        assert np.array_equal(getattr(stack, name), getattr(ref, name))
    assert stack.excitation_level() == ref.excitation_level()
    assert (stack._screen is None) == (ref._screen is None)
    if stack._screen is not None:
        V, kept, key_max = stack._screen
        ref_V, ref_kept, ref_max = ref._screen
        assert np.array_equal(V, ref_V) and np.array_equal(kept, ref_kept) and key_max == ref_max


def test_offline_prefill_offers_every_state_to_try_insert(monkeypatch):
    # building sanity's offline context offers its 20 states to try_insert,
    # which forms the level once for the empty stack and once per append,
    # and no screen: only a rejected full-stack candidate forms one
    from baradapt.cli import load_config
    from baradapt.sim import build_context

    calls = Counter()
    try_insert = HistoryStack.try_insert

    def counted_insert(self, *args):
        calls["try_insert"] += 1
        return try_insert(self, *args)

    def counted(name):
        inner = getattr(np.linalg, name)

        def wrapper(a):
            calls[name] += 1
            return inner(a)
        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    monkeypatch.setattr(HistoryStack, "try_insert", counted_insert)
    ctx = build_context(load_config("sanity"))
    assert len(ctx.stack) == ctx.cfg.stack.size == 20
    assert calls == {"try_insert": 20, "eigvalsh": 21} and calls["eigh"] == 0
