"""Tests for optimizers and their shared variation/selection machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobench.algorithms import (
    MOEAD_MATE_NEIGHBORHOOD_PROB,
    MOEAD_NEIGHBORS,
    MUTATION_ETA,
    SBX_ETA,
    SBX_PROB,
    AlgoConfig,
    _FrontCrowding,
    _insert_into_fronts,
    _pow,
    _RunState,
    _smallest_contributor,
    _tournament,
    _variation_pair,
    crowding_distance,
    fast_nondominated_sort,
    hv_contributions_2d,
    moead_weights,
    nsga2_offspring,
    nsga2_survival,
    polynomial_mutation,
    run_moead,
    run_nsga2,
    run_random_search,
    run_smsemoa,
    sbx_crossover,
    tchebycheff,
)
from mobench.errors import ParameterError
from mobench.indicators import (
    ParetoArchive,
    accepted_history,
    compute_normalization,
    hypervolume_2d,
    nondominated_rows,
    normalized_hv,
)
from mobench.instance import ProblemInstance, evaluate_instance_batch
from mobench.problems import ProblemId
from mobench.transforms import TransformSpec


class _StubRng:
    """Deterministic stand-in replaying fixed uniform draws."""

    def __init__(self, scalars, vector_value):
        self._scalars = list(scalars)
        self._vector_value = vector_value

    def random(self, size=None):
        if size is None:
            return self._scalars.pop(0)
        return np.full(size, self._vector_value)


def reference_hv_contributions(front_objectives, ref) -> np.ndarray:
    """Exclusive hypervolume of each member of a 2-D front in any order, with
    numpy: a lexsort, shifted copies and clipped box sides."""
    f = np.asarray(front_objectives, dtype=float)
    order = np.lexsort((f[:, 1], f[:, 0]))
    fs = f[order]
    right_f1 = np.concatenate((fs[1:, 0], [ref[0]]))
    upper_f2 = np.concatenate(([ref[1]], fs[:-1, 1]))
    contrib = np.empty(len(f))
    contrib[order] = np.maximum(right_f1 - fs[:, 0], 0.0) * np.maximum(upper_f2 - fs[:, 1], 0.0)
    return contrib


def reference_tchebycheff(f, lam, z) -> np.ndarray:
    """max_i lam_i |f_i - z_i| with numpy; f and lam may be pairs or (k, 2)
    rows, which broadcast against each other."""
    f = np.asarray(f, dtype=float)
    lam = np.asarray(lam, dtype=float)
    return np.maximum(lam[..., 0] * np.abs(f[..., 0] - z[0]), lam[..., 1] * np.abs(f[..., 1] - z[1]))


def make_instance(problem=("zdt", 1, 2), search=None, objective=None):
    return ProblemInstance(
        ProblemId(*problem),
        search or TransformSpec.identity(),
        objective or TransformSpec.identity(),
    )


class TestOperators:
    def test_sbx_u_half_returns_parents(self):
        # beta = (2u)^(1/(eta+1)) = 1 at u = 0.5
        rng = _StubRng(scalars=[0.0], vector_value=0.5)
        p1 = np.array([0.2, 0.7])
        p2 = np.array([0.9, 0.1])
        c1, c2 = sbx_crossover(p1, p2, eta_c=15.0, p_c=1.0, rng=rng)
        np.testing.assert_allclose(c1, p1, atol=1e-15)
        np.testing.assert_allclose(c2, p2, atol=1e-15)

    def test_sbx_pc_zero_copies(self):
        rng = np.random.default_rng(0)
        p1 = np.array([0.2, 0.7])
        p2 = np.array([0.9, 0.1])
        c1, c2 = sbx_crossover(p1, p2, eta_c=15.0, p_c=0.0, rng=rng)
        np.testing.assert_array_equal(c1, p1)
        np.testing.assert_array_equal(c2, p2)
        assert c1 is not p1  # copies, not aliases

    def test_sbx_bounds_property(self):
        rng = np.random.default_rng(1)
        for _ in range(100_000):
            p1 = rng.random(2)
            p2 = rng.random(2)
            c1, c2 = sbx_crossover(p1, p2, 15.0, 0.9, rng)
            assert np.all((c1 >= 0.0) & (c1 <= 1.0))
            assert np.all((c2 >= 0.0) & (c2 <= 1.0))

    def test_mutation_u_half_unchanged(self):
        rng = _StubRng(scalars=[], vector_value=0.5)
        x = np.array([0.3, 0.6])
        got = polynomial_mutation(x, eta_m=20.0, p_m=1.0, rng=rng)
        np.testing.assert_allclose(got, x, atol=1e-15)

    def test_mutation_pm_zero_identity(self):
        rng = np.random.default_rng(2)
        x = np.array([0.3, 0.6, 0.9])
        np.testing.assert_array_equal(polynomial_mutation(x, 20.0, 0.0, rng), x)

    def test_mutation_stays_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(5000):
            x = rng.random(3)
            got = polynomial_mutation(x, 20.0, 0.9, rng)
            assert np.all((got >= 0.0) & (got <= 1.0))

    @pytest.mark.parametrize("d", [2, 10])
    @pytest.mark.parametrize("p_m", ["zero", "one_over_d", "one"])
    def test_mutation_draws_two_vectors(self, d, p_m):
        # SMS-EMOA skips the discarded child's mutation and draws random(d)
        # twice in its place, which holds only if mutation draws just that
        p_m = {"zero": 0.0, "one_over_d": 1.0 / d, "one": 1.0}[p_m]
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(50):
            polynomial_mutation(rng.random(d), 20.0, p_m, rng)
            twin.random(d)
            twin.random(d)
            twin.random(d)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_mutation_frequency(self):
        rng = np.random.default_rng(4)
        p_m = 0.3
        n = 100_000
        x = np.full(5, 0.5)
        changed = 0
        for _ in range(n // 5):
            got = polynomial_mutation(x, 20.0, p_m, rng)
            changed += int(np.sum(got != x))
        freq = changed / n
        sigma = np.sqrt(p_m * (1 - p_m) / n)
        assert abs(freq - p_m) <= 3 * sigma


def brute_force_fronts(points):
    """O(n^3) reference front partition."""
    pts = [tuple(map(float, p)) for p in points]
    remaining = set(range(len(pts)))
    fronts = []
    while remaining:
        front = []
        for i in remaining:
            dominated = any(
                j != i
                and pts[j][0] <= pts[i][0]
                and pts[j][1] <= pts[i][1]
                and pts[j] != pts[i]
                for j in remaining
            )
            if not dominated:
                front.append(i)
        fronts.append(sorted(front))
        remaining -= set(front)
    return fronts


class TestRanking:
    def test_mutual_nondominance(self):
        assert fast_nondominated_sort([(0.0, 1.0), (1.0, 0.0)]) == [[0, 1]]

    def test_chain(self):
        assert fast_nondominated_sort([(0.0, 0.0), (1.0, 1.0)]) == [[0], [1]]

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        pts = np.round(rng.random((200, 2)) * 10) / 10
        fronts = fast_nondominated_sort(pts)
        assert [sorted(f) for f in fronts] == brute_force_fronts(pts)
        # SMS-EMOA breaks contribution ties by position in the worst front,
        # so each front lists its members by (f1, f2, index)
        for front in fronts:
            assert front == sorted(front, key=lambda i: (pts[i, 0], pts[i, 1], i))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=80),
        st.integers(2, 25),
        st.randoms(use_true_random=False),
    )
    def test_insert_into_fronts_matches_full_sort(self, points, capacity, random):
        # grow a population one point at a time, dropping a worst-front member
        # once it exceeds the capacity, as SMS-EMOA does
        pts = np.array(points, dtype=float) / 6
        fronts, rows = [], []
        for row, (a, b) in enumerate(pts.tolist()):
            first, stop = _insert_into_fronts(fronts, (a, b, row))
            rows.append(row)
            if len(rows) > capacity:
                worst = fronts[-1]
                rows.remove(worst.pop(random.randrange(len(worst)))[2])
                if not worst:
                    fronts.pop()
            expected = [
                [(pts[rows[i], 0], pts[rows[i], 1], rows[i]) for i in front]
                for front in fast_nondominated_sort(pts[rows])
            ]
            assert fronts == expected
            assert 0 <= first < stop

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=60))
    def test_front_crowding_matches_crowding_distance(self, points):
        # a coarse grid forces runs of exact duplicates inside fronts
        f = np.array(points, dtype=float) / 5
        keys = [(a, b, row) for row, (a, b) in enumerate(f.tolist())]
        fronts = [[keys[i] for i in front] for front in fast_nondominated_sort(f)]
        rank = {row: r for r, front in enumerate(fronts) for _, _, row in front}
        crowd = _FrontCrowding(fronts, rank, f)
        for front in fronts:
            rows = [row for _, _, row in front]
            expected = crowding_distance(f[rows]).tolist()
            assert [crowd[row] for row in rows] == expected

    def test_crowding_two_points(self):
        d = crowding_distance([(0.0, 1.0), (1.0, 0.0)])
        assert np.all(np.isinf(d))

    def test_crowding_hand_value(self):
        d = crowding_distance([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
        assert d[1] == pytest.approx(2.0)
        assert np.isinf(d[0]) and np.isinf(d[2])

    def test_crowding_duplicates_zero(self):
        d = crowding_distance([(0.0, 1.0), (0.5, 0.5), (0.5, 0.5), (0.5, 0.5), (1.0, 0.0)])
        assert d[2] == 0.0

    def test_survival_elitism(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            pts = rng.random((40, 2))
            keep = nsga2_survival(pts, 20)
            assert len(keep) == 20
            rank0 = set(fast_nondominated_sort(pts)[0])
            if len(rank0) <= 20:
                assert rank0 <= set(keep)
            else:
                assert set(keep) <= rank0

    def test_hv_contribution_removal_case(self):
        front = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
        ref = (2.0, 2.0)  # front nadir + (1, 1)
        contrib = hv_contributions_2d(front, ref)
        np.testing.assert_allclose(contrib, [0.5, 0.25, 0.5])
        assert int(np.argmin(contrib)) == 1

    def test_hv_contributions_match_boxes(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pts = rng.random((30, 2))
            front = pts[fast_nondominated_sort(pts)[0]]
            ref = front.max(axis=0) + 1.0
            by_f1 = sorted(range(len(front)), key=lambda i: tuple(front[i]))
            expected = np.empty(len(front))
            for k, i in enumerate(by_f1):
                right = front[by_f1[k + 1], 0] if k + 1 < len(front) else ref[0]
                upper = front[by_f1[k - 1], 1] if k > 0 else ref[1]
                expected[i] = (right - front[i, 0]) * (upper - front[i, 1])
            np.testing.assert_array_equal(hv_contributions_2d(front, ref), expected)
            assert hv_contributions_2d(front, ref) == reference_hv_contributions(front, ref).tolist()

    def test_smallest_contributor_matches_numpy_argmin(self):
        # fronts of 2-101 members on a coarse grid, so exact duplicates and
        # equal contributions occur, and a few with -0.0 next to 0.0
        rng = np.random.default_rng(23)
        ties = 0
        for trial in range(600):
            n = int(rng.integers(2, 102))
            steps = int(rng.integers(2, 40))
            f1 = np.sort(rng.integers(0, steps, n)) / steps
            f2 = 1.0 - f1 if trial % 2 else (1.0 - f1) ** 2
            pts = np.column_stack([f1, f2])
            if trial % 5 == 0:
                pts[pts == 0.0] = rng.choice([0.0, -0.0], int((pts == 0.0).sum()))
            rows = rng.permutation(1000)[:n]
            keys = sorted((a, b, int(r)) for (a, b), r in zip(pts.tolist(), rows))
            front = np.array([k[:2] for k in keys])
            want = reference_hv_contributions(front, front.max(axis=0) + 1.0)
            ties += int((want == want.min()).sum() > 1)
            assert _smallest_contributor(keys) == int(np.argmin(want))
        assert ties > 100  # the first of equal smallest contributions is dropped


class _Recorder(dict):
    """A rank or crowding table that notes each row looked up; all values 0."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def __getitem__(self, row):
        self.seen.append(row)
        return 0


@pytest.mark.parametrize("n", [2, 10, 100, 101, 2**31 + 1])
def test_tournament_draws_equal_one_array_draw(n):
    # two scalar draws equal integers(0, n, size=2), with uniform draws in
    # between; at n = 2**31 + 1 about half the 32-bit draws are rejected
    pop = range(7, 7 + n)  # row pop[i] is 7 + i
    for seed in range(300):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            rank = _Recorder()
            _tournament(pop, rank, _Recorder(), got)
            assert [row - 7 for row in rank.seen] == want.integers(0, n, size=2).tolist()
            assert got.random() == want.random()
        assert got.bit_generator.state == want.bit_generator.state


def _rank_and_crowding(f: np.ndarray, rows) -> tuple[dict, dict]:
    """Front index and crowding distance of each row of f, keyed by row."""
    objs = f[rows]
    rank: dict[int, int] = {}
    crowd: dict[int, float] = {}
    for r, front in enumerate(fast_nondominated_sort(objs)):
        members = [rows[i] for i in front]
        rank.update(dict.fromkeys(members, r))
        crowd.update(zip(members, crowding_distance(objs[front]).tolist()))
    return rank, crowd


def _reference_offspring(x, rows, rank, crowd, n, rng) -> np.ndarray:
    """NSGA-II's children bred pair by pair: two _tournament calls, one
    sbx_crossover and two polynomial_mutation calls per pair."""
    children: list[np.ndarray] = []
    while len(children) < n:
        c1, c2 = _variation_pair(x, rows, rank, crowd, rng)
        children += (
            polynomial_mutation(c1, MUTATION_ETA, 1.0 / len(c1), rng),
            polynomial_mutation(c2, MUTATION_ETA, 1.0 / len(c2), rng),
        )
    return np.array(children[:n])


def _reference_nsga2(inst, cfg):
    """NSGA-II with rank and crowding keyed by row and children bred pair by
    pair; returns the run and its generator."""
    rng = np.random.default_rng(cfg.seed)
    state = _RunState(inst, cfg.budget)
    n = cfg.population
    pop = state.evaluate(rng.random((n, inst.problem.dim)))
    while state.remaining > 0:
        rows = pop.tolist()
        rank, crowd = _rank_and_crowding(state.f_seen, rows)
        children = _reference_offspring(state.x, rows, rank, crowd, n, rng)
        full_generation = state.remaining >= n
        offspring = state.evaluate(children[: state.remaining])
        if not full_generation:
            break
        union = np.concatenate([pop, offspring])
        pop = union[nsga2_survival(state.f_seen[union], n)]
    return state.result(pop), rng


def _run_keeping_generator(run, inst, cfg, monkeypatch):
    """run(inst, cfg) and the generator it made."""
    made, default_rng = [], np.random.default_rng

    def recording_default_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", recording_default_rng)
        result = run(inst, cfg)
    (rng,) = made
    return result, rng


@pytest.mark.parametrize("population", [2, 3, 10, 11, 100])
@pytest.mark.parametrize("d", [2, 10])
@pytest.mark.parametrize("search", ["identity", "beta", "rotation"])
def test_nsga2_matches_pair_by_pair_reference(population, d, search, monkeypatch):
    search = {
        "identity": TransformSpec.identity(),
        "beta": TransformSpec.beta_cdf(0.5, 2.0),
        "rotation": TransformSpec.sphered_rotation(dim=d, seed=3),
    }[search]
    inst = make_instance(problem=("zdt", 3, d), search=search)
    # budgets that end on a whole generation and ones that cut the last short
    for budget in (population * 6, population * 6 + 1, population * 5 + (population + 1) // 2):
        cfg = AlgoConfig("nsga2", population, budget, seed=budget)
        got, got_rng = _run_keeping_generator(run_nsga2, inst, cfg, monkeypatch)
        want, want_rng = _reference_nsga2(inst, cfg)
        for column in ("x", "f_seen", "f_orig", "final_population"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes(), column
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("n", [2, 3, 10, 11, 100])
@pytest.mark.parametrize("d", [1, 2, 10])
def test_offspring_match_pair_by_pair_with_ties(n, d):
    # duplicate-heavy parents: ranks in {0, 1}, crowding on a coarse grid with
    # inf and NaN, coordinates at 0, 1 and a few shared values, so tournaments
    # tie on rank and on crowding and SBX and mutation meet the bounds; SBX
    # turns a -0.0 coordinate into 0.0, so a parent passed through shows
    rng = np.random.default_rng(n * 100 + d)
    for trial in range(30):
        x = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0, rng.random()], size=(n, d))
        rank = rng.integers(0, 2, n)
        crowd = rng.choice([0.0, 0.5, 1.0, np.inf, np.nan if trial % 3 == 0 else 2.0], size=n)
        rows = (np.arange(n) + 5).tolist()  # row rows[i] sits at position i
        full_x = np.concatenate([np.full((5, d), np.nan), x])
        got_rng, want_rng = np.random.default_rng(trial), np.random.default_rng(trial)
        for m in (n, n - 1, 1):  # fewer children than parents too
            got = nsga2_offspring(x, rank, crowd, m, got_rng)
            want = _reference_offspring(
                full_x, rows, dict(zip(rows, rank.tolist())), dict(zip(rows, crowd.tolist())), m, want_rng
            )
            assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("high", [2, 3, 10, 100, 101, 2**31 + 1, 2**32 - 1])
def test_integers_array_draw_equals_scalar_draws(high):
    # one integers(size=4) call equals four scalar calls, with doubles drawn
    # in between; at 2**31 + 1 about half the 32-bit draws are rejected
    for seed in range(300):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for step in range(20):
            assert got.integers(0, high, size=4).tolist() == [int(want.integers(0, high)) for _ in range(4)]
            if step % 2:
                assert got.random() == want.random()
            else:
                assert got.random(3).tolist() == want.random(3).tolist()
        assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 10])
def test_random_vector_draw_equals_shorter_draws(d):
    # random(4d) gives the doubles of four random(d) calls, in their order
    for seed in range(300):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            got.integers(0, 7)
            want.integers(0, 7)
            whole = got.random(4 * d)
            assert whole.tobytes() == b"".join(want.random(d).tobytes() for _ in range(4))
        assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("exponent", [1.0 / (SBX_ETA + 1.0), MUTATION_ETA + 1.0, 1.0 / (MUTATION_ETA + 1.0)])
def test_pow_is_independent_of_array_length(exponent):
    # the operators' powers and the generation kernel's may split the same
    # values differently: one array, 2-D blocks, pairs and single values
    rng = np.random.default_rng(17)
    values = np.concatenate([rng.random(20_000), 2.0 * rng.random(2_000), [0.0, 0.5, 1.0, 2.0]])
    whole = np.array(_pow(values.tolist(), exponent))
    assert (values.reshape(-1, 2) ** exponent).tobytes() == whole.tobytes()
    assert np.array([_pow(values[k : k + 2].tolist(), exponent) for k in range(0, len(values), 2)]).tobytes() == whole.tobytes()
    for k in range(0, len(values), 7):
        assert _pow([values[k]], exponent) == [whole[k]]


def _reference_smsemoa(inst, cfg):
    """SMS-EMOA with a full non-dominated sort and crowding pass per step.

    Also counts the children removed the moment they are inserted, alone in
    a new last front.
    """
    rng = np.random.default_rng(cfg.seed)
    state = _RunState(inst, cfg.budget)
    n = cfg.population
    pop = state.evaluate(rng.random((n, inst.problem.dim)))
    rank, crowd = _rank_and_crowding(state.f_seen, pop.tolist())
    removed_alone = 0
    while state.remaining > 0:
        c1, c2 = _variation_pair(state.x, pop.tolist(), rank, crowd, rng)
        child_x = polynomial_mutation(c1, MUTATION_ETA, 1.0 / len(c1), rng)
        polynomial_mutation(c2, MUTATION_ETA, 1.0 / len(c2), rng)
        pop = np.concatenate([pop, state.evaluate(child_x[np.newaxis])])
        objs = state.f_seen[pop]
        worst = fast_nondominated_sort(objs)[-1]
        removed = worst[0]
        if len(worst) > 1:
            front = objs[worst]
            removed = worst[int(np.argmin(reference_hv_contributions(front, front.max(axis=0) + 1.0)))]
        else:
            removed_alone += removed == n
        pop = np.delete(pop, removed)
        rank, crowd = _rank_and_crowding(state.f_seen, pop.tolist())
    return state.result(pop), removed_alone


def _check_smsemoa(problem, search, population, seed):
    inst = ProblemInstance(ProblemId(*problem), search, TransformSpec.identity())
    cfg = AlgoConfig("smsemoa", population, 800, seed=seed)
    got, (want, removed_alone) = run_smsemoa(inst, cfg), _reference_smsemoa(inst, cfg)
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.final_population, want.final_population)
    # the path where a dominated child, alone in a new last front, leaves at
    # once without a rank is taken
    assert removed_alone > 0


@pytest.mark.parametrize(
    "problem,search",
    [
        (("zdt", 3, 2), TransformSpec.beta_cdf(0.2, 5.0)),
        (("dtlz", 1, 2), TransformSpec.sphered_rotation(dim=2, seed=2)),
        (("zdt", 1, 10), TransformSpec.identity()),
    ],
)
@pytest.mark.parametrize("population", [10, 40])
def test_smsemoa_matches_reference(problem, search, population):
    _check_smsemoa(problem, search, population, seed=population)


@pytest.mark.parametrize(
    "problem,search,seed",
    [
        (("dtlz", 1, 2), TransformSpec.sphered_rotation(dim=2, seed=2), 3),
        (("mmf", 4, 2), TransformSpec.identity(), 1),
    ],
)
def test_smsemoa_matches_reference_p100(problem, search, seed):
    _check_smsemoa(problem, search, 100, seed)


def _reference_moead(inst, cfg):
    """MOEA/D with a fresh index pool, neighbourhood weights and ideal point per step."""
    rng = np.random.default_rng(cfg.seed)
    state = _RunState(inst, cfg.budget)
    n = cfg.population
    weights = moead_weights(n)
    dist = np.linalg.norm(weights[:, np.newaxis, :] - weights[np.newaxis, :, :], axis=2)
    neighborhoods = np.argsort(dist, axis=1, kind="stable")[:, : min(MOEAD_NEIGHBORS, n)]
    pop = state.evaluate(rng.random((n, inst.problem.dim)))
    x, f_seen = state.x, state.f_seen
    z = f_seen[pop].min(axis=0)
    while state.remaining > 0:
        for i in range(n):
            if state.remaining == 0:
                break
            if rng.random() < MOEAD_MATE_NEIGHBORHOOD_PROB:
                pool = neighborhoods[i]
            else:
                pool = np.arange(n)
            p1, p2 = rng.choice(pool, size=2, replace=False)
            c1, _ = sbx_crossover(x[pop[p1]], x[pop[p2]], SBX_ETA, SBX_PROB, rng)
            child_x = polynomial_mutation(c1, MUTATION_ETA, 1.0 / len(c1), rng)
            (child,) = state.evaluate(child_x[np.newaxis])
            f_child = f_seen[child]
            z = np.minimum(z, f_child)
            nb = neighborhoods[i]
            lam = weights[nb]
            better = reference_tchebycheff(f_child, lam, z) < reference_tchebycheff(f_seen[pop[nb]], lam, z)
            pop[nb[better]] = child
    return state.result(pop)


@pytest.mark.parametrize(
    "problem,search",
    [
        (("zdt", 3, 2), TransformSpec.beta_cdf(0.2, 5.0)),
        (("dtlz", 1, 2), TransformSpec.sphered_rotation(dim=2, seed=2)),
        (("zdt", 1, 10), TransformSpec.identity()),
    ],
)
@pytest.mark.parametrize("population", [10, 40])
def test_moead_matches_reference(problem, search, population):
    inst = ProblemInstance(ProblemId(*problem), search, TransformSpec.identity())
    cfg = AlgoConfig("moead", population, 800, seed=population)
    got, want = run_moead(inst, cfg), _reference_moead(inst, cfg)
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.final_population, want.final_population)


class TestMoeadPieces:
    def test_tchebycheff(self):
        assert tchebycheff([(0.5, 0.5)], [(1.0, 0.0)], (0.0, 0.0)) == [0.5]

    def test_tchebycheff_rows(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            # a coarse grid makes equal terms and equal values common
            f = np.round(rng.random((20, 2)) * 8) / 8
            lam, z = moead_weights(20), (np.round(rng.random(2) * 8) / 8 - 0.5).tolist()
            got = tchebycheff(f.tolist(), lam.tolist(), z)
            want = reference_tchebycheff(f, lam, z)
            assert np.array(got).tobytes() == want.tobytes()
            assert got == [max(lk[0] * abs(fk[0] - z[0]), lk[1] * abs(fk[1] - z[1]))
                           for fk, lk in zip(f.tolist(), lam.tolist())]

    def test_weights_pop3(self):
        np.testing.assert_allclose(
            moead_weights(3), [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]
        )

    def test_weights_need_two(self):
        with pytest.raises(ParameterError):
            moead_weights(1)


RUNNERS = {
    "random_search": run_random_search,
    "nsga2": run_nsga2,
    "smsemoa": run_smsemoa,
    "moead": run_moead,
}


def _first_attainments(f_orig):
    """(f1, f2) -> evaluation index of each member of the full log's archive."""
    archive = ParetoArchive()
    for f in f_orig.tolist():
        archive.insert(f)
    accepted = {(f1, f2): i for i, f1, f2 in accepted_history(f_orig)}
    return {p: accepted[p] for p in archive.points()}


@pytest.mark.parametrize("name", sorted(RUNNERS))
class TestRunContracts:
    def test_deterministic(self, name):
        inst = make_instance(problem=("dtlz", 2, 2))
        cfg = AlgoConfig(name, population=10, budget=150, seed=77)
        r1 = RUNNERS[name](inst, cfg)
        r2 = RUNNERS[name](inst, cfg)
        np.testing.assert_array_equal(r1.f_orig, r2.f_orig)
        np.testing.assert_array_equal(r1.final_population, r2.final_population)
        np.testing.assert_array_equal(
            r1.x[r1.final_population], r2.x[r2.final_population]
        )

    def test_budget_exact_and_feasible(self, name):
        inst = make_instance(problem=("zdt", 3, 2))
        cfg = AlgoConfig(name, population=10, budget=157, seed=3)
        res = RUNNERS[name](inst, cfg)
        # row i is evaluation i + 1, and every row is a real evaluation
        assert res.x.shape == (157, 2)
        assert res.f_seen.shape == res.f_orig.shape == (157, 2)
        np.testing.assert_array_equal(evaluate_instance_batch(inst, res.x)[1], res.f_orig)
        np.testing.assert_array_equal(res.f_seen, res.f_orig)  # no objective warp
        assert {i for i, _, _ in accepted_history(res.f_orig)} <= set(range(1, 158))
        assert np.all((res.x >= 0.0) & (res.x <= 1.0))

    def test_one_formula_call_per_batch(self, name):
        inst = make_instance(problem=("zdt", 1, 2))
        formula, row_formula, batches = inst._kernel, inst._row_kernel, []

        def counted(x):
            batches.append(len(x))
            return formula(x)

        def counted_row(x):  # a one-row batch's formula, on Python floats
            batches.append(1)
            return row_formula(x)

        object.__setattr__(inst, "_kernel", counted)
        object.__setattr__(inst, "_row_kernel", counted_row)
        RUNNERS[name](inst, AlgoConfig(name, population=10, budget=95, seed=2))
        # a generation, a random-search batch or a steady-state step is one call
        per_run = {"random_search": [95], "nsga2": [10] * 9 + [5]}
        assert batches == per_run.get(name, [10] + [1] * 85)

    def test_final_population_size(self, name):
        inst = make_instance(problem=("zdt", 1, 2))
        cfg = AlgoConfig(name, population=10, budget=105, seed=5)
        res = RUNNERS[name](inst, cfg)
        if name == "random_search":
            # every first attainment of a member of the full log's archive
            archive_idx = sorted(_first_attainments(res.f_orig).values())
            assert (res.final_population + 1).tolist() == archive_idx
        else:
            assert len(res.final_population) == 10

    def test_archive_matches_brute_force(self, name):
        inst = make_instance(problem=("mmf", 4, 2))
        cfg = AlgoConfig(name, population=10, budget=120, seed=11)
        res = RUNNERS[name](inst, cfg)
        expected = {}  # brute-force non-dominated filter of the full log
        for eval_index, f in enumerate(map(tuple, res.f_orig.tolist()), 1):
            if f in expected or any(
                q[0] <= f[0] and q[1] <= f[1] and q != f for q in expected
            ):
                continue
            for q in [q for q in expected if f[0] <= q[0] and f[1] <= q[1] and q != f]:
                del expected[q]
            expected[f] = eval_index
        assert _first_attainments(res.f_orig) == expected
        front = nondominated_rows(res.f_orig).tolist()
        assert {tuple(res.f_orig[r].tolist()): r + 1 for r in front} == expected


class TestRandomSearchInvariances:
    def test_objective_transform_invariance_exact(self):
        cfg = AlgoConfig("random_search", population=10, budget=300, seed=9)
        plain = run_random_search(make_instance(problem=("dtlz", 3, 2)), cfg)
        warped = run_random_search(
            make_instance(problem=("dtlz", 3, 2), objective=TransformSpec.beta_cdf(0.2, 5.0)),
            cfg,
        )
        np.testing.assert_array_equal(plain.f_orig, warped.f_orig)
        assert not np.array_equal(plain.f_seen, warped.f_seen)

    def test_all_points_in_cube(self):
        cfg = AlgoConfig("random_search", population=10, budget=500, seed=1)
        res = run_random_search(make_instance(), cfg)
        xs = res.x
        assert xs.shape == (500, 2)
        assert np.all((xs >= 0.0) & (xs <= 1.0))


class TestArchiveOverTime:
    def test_running_hv_monotone(self):
        inst = make_instance(problem=("zdt", 2, 2))
        cfg = AlgoConfig("smsemoa", population=10, budget=200, seed=13)
        res = run_smsemoa(inst, cfg)
        ref = (2.0, 2.0)
        accepted = np.array(accepted_history(res.f_orig))
        hv_prev = 0.0
        for idx in range(1, cfg.budget + 1):
            n = np.searchsorted(accepted[:, 0], idx, side="right")
            hv = hypervolume_2d(accepted[:n, 1:], ref)
            assert hv >= hv_prev - 1e-15
            hv_prev = hv


class TestSanityOrdering:
    def test_nsga2_beats_random_search_on_zdt1(self):
        # paper-scale sanity run: pop 100, budget 5000, 10 seeds
        inst = make_instance(problem=("zdt", 1, 2))
        nsga_hv, rs_hv = [], []
        fronts = []
        results = []
        for seed in range(10):
            results.append(
                (
                    run_nsga2(inst, AlgoConfig("nsga2", 100, 5000, seed)),
                    run_random_search(inst, AlgoConfig("random_search", 100, 5000, seed)),
                )
            )
        for pair in results:
            for res in pair:
                fronts.append(res.f_orig[nondominated_rows(res.f_orig)])
        box = compute_normalization(fronts)
        for nsga_res, rs_res in results:
            nsga_hv.append(normalized_hv(nsga_res.f_orig[nsga_res.final_population], box))
            rs_hv.append(normalized_hv(rs_res.f_orig[rs_res.final_population], box))
        assert np.mean(nsga_hv) > np.mean(rs_hv)


class TestConfigValidation:
    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            AlgoConfig("simulated_annealing", 10, 100, 0)

    def test_population_budget(self):
        with pytest.raises(ParameterError):
            AlgoConfig("nsga2", 1, 100, 0)
        with pytest.raises(ParameterError):
            AlgoConfig("nsga2", 10, 5, 0)
        with pytest.raises(ParameterError):
            AlgoConfig("nsga2", 10, 100, -1)
