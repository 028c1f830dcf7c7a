"""Optimizers: random search, NSGA-II, SMS-EMOA, and MOEA/D.

All runs are driven through _RunState.evaluate, so every evaluation is
recorded with both the algorithm-visible and the original objectives.
Selection uses the algorithm-visible values (f_seen). Runs keep no archive:
the harness derives it from the original-space column (f_orig). Each run
owns a single seeded generator; operator draw order is documented on the
operators, so a run is a pure function of (instance, AlgoConfig).

NSGA-II breeds each generation in one nsga2_offspring call: first every
pair's draws, in the order the pair-by-pair operators draw them, then the
tournaments, SBX and mutation as array arithmetic on the whole generation.
An array draw takes the same values from the stream as that many scalar
draws, and numpy's ** gives the same bits at every array length, so the
generation equals the operators' pair-by-pair children bit for bit.
SMS-EMOA and MOEA/D breed one child per step with the operators.

Variation defaults follow the usual framework settings: SBX with eta=15 and
crossover probability 0.9, polynomial mutation with eta=20 and per-variable
probability 1/d.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .indicators import nondominated_rows
from .instance import ProblemInstance, evaluate_instance_batch
from .specfun import _pow

__all__ = [
    "ALGORITHM_NAMES",
    "AlgoConfig",
    "RunResult",
    "run_algorithm",
    "run_random_search",
    "run_nsga2",
    "run_smsemoa",
    "run_moead",
    "sbx_crossover",
    "polynomial_mutation",
    "nsga2_offspring",
    "fast_nondominated_sort",
    "crowding_distance",
    "nsga2_survival",
    "hv_contributions_2d",
    "tchebycheff",
    "moead_weights",
]

ALGORITHM_NAMES = ("random_search", "nsga2", "smsemoa", "moead")

SBX_ETA = 15.0
SBX_PROB = 0.9
MUTATION_ETA = 20.0

MOEAD_NEIGHBORS = 20
MOEAD_MATE_NEIGHBORHOOD_PROB = 0.9


@dataclass(frozen=True)
class AlgoConfig:
    name: str
    population: int
    budget: int
    seed: int

    def __post_init__(self):
        if self.name not in ALGORITHM_NAMES:
            raise ParameterError(f"unknown algorithm {self.name!r}")
        if self.population < 1:
            raise ParameterError("population must be positive")
        if self.name != "random_search" and self.population < 2:
            raise ParameterError(f"{self.name} needs a population of at least 2")
        if self.budget < self.population:
            raise ParameterError("budget must be at least the population size")
        if self.seed < 0:
            raise ParameterError("seed must be a non-negative integer")


@dataclass
class RunResult:
    """One run's evaluations as columns: row i holds evaluation i + 1.

    final_population holds row indices into the columns.
    """

    x: np.ndarray
    f_seen: np.ndarray
    f_orig: np.ndarray
    final_population: np.ndarray


class _RunState:
    """Budget accounting and the column record shared by all runners."""

    def __init__(self, inst: ProblemInstance, budget: int):
        self.inst = inst
        self.x = np.empty((budget, inst.problem.dim))
        self.f_seen = np.empty((budget, 2))
        self.f_orig = np.empty((budget, 2))
        self.used = 0

    @property
    def remaining(self) -> int:
        return len(self.x) - self.used

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate and record a (k, d) batch; returns its new row indices."""
        f_seen, f_orig = evaluate_instance_batch(self.inst, points)
        start, stop = self.used, self.used + len(f_orig)
        self.x[start:stop] = points
        self.f_seen[start:stop] = f_seen
        self.f_orig[start:stop] = f_orig
        self.used = stop
        return np.arange(start, stop)

    def result(self, final_population) -> RunResult:
        used = slice(self.used)
        return RunResult(
            self.x[used],
            self.f_seen[used],
            self.f_orig[used],
            np.asarray(final_population, dtype=int),
        )


# --- variation operators --------------------------------------------------
#
# The operators do their arithmetic on Python floats, which round exactly like
# numpy's elementwise ufuncs and cost far less per call on d-vectors. Powers
# stay numpy's ** (specfun._pow): numpy's float64 pow may differ from libm's in
# the last bit, and the draws and results must not change. numpy's ** gives the
# same bits at every array length, so nsga2_offspring may raise a whole
# generation's values at once.


def _clip_unit(v: float) -> float:
    """_clip_unit_array for one float: NaN stays NaN, -0.0 becomes 0.0 (np.clip keeps -0.0)."""
    if v != v:
        return v
    return 0.0 if v <= 0.0 else 1.0 if v >= 1.0 else v


def sbx_crossover(p1, p2, eta_c: float, p_c: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover, clipped to [0,1]^d.

    Draw order: one uniform gate, then one uniform per coordinate (skipped
    entirely when the gate fails, in which case parent copies are returned).
    With u=0.5 the spread factor is exactly 1 and children equal parents.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if rng.random() >= p_c:
        return p1.copy(), p2.copy()
    u = rng.random(p1.shape[0]).tolist()
    beta = _pow([2.0 * v if v <= 0.5 else 1.0 / (2.0 * (1.0 - v)) for v in u], 1.0 / (eta_c + 1.0))
    c1, c2 = [], []
    for b, a1, a2 in zip(beta, p1.tolist(), p2.tolist()):
        c1.append(_clip_unit(0.5 * ((1.0 + b) * a1 + (1.0 - b) * a2)))
        c2.append(_clip_unit(0.5 * ((1.0 - b) * a1 + (1.0 + b) * a2)))
    return np.array(c1), np.array(c2)


def polynomial_mutation(p, eta_m: float, p_m: float, rng) -> np.ndarray:
    """Bounded polynomial mutation on [0,1]^d.

    Draw order: one uniform gate vector, then one uniform delta vector (both
    of length d, always consumed). A delta draw of exactly 0.5 leaves the
    coordinate unchanged.
    """
    xs = np.asarray(p, dtype=float).tolist()
    gate = rng.random(len(xs)).tolist()
    us = rng.random(len(xs)).tolist()
    mut = [k for k, g in enumerate(gate) if g < p_m]
    if mut:
        # towards the lower bound for u < 0.5, upper bound otherwise
        low = [us[k] < 0.5 for k in mut]
        xy = _pow([1.0 - xs[k] if lo else xs[k] for k, lo in zip(mut, low)], eta_m + 1.0)
        val = [
            2.0 * us[k] + (1.0 - 2.0 * us[k]) * t if lo else 2.0 * (1.0 - us[k]) + 2.0 * (us[k] - 0.5) * t
            for k, lo, t in zip(mut, low, xy)
        ]
        for k, lo, v in zip(mut, low, _pow(val, 1.0 / (eta_m + 1.0))):
            xs[k] = _clip_unit(xs[k] + (v - 1.0 if lo else 1.0 - v))
    return np.array(xs)


def _clip_unit_array(v: np.ndarray) -> np.ndarray:
    """_clip_unit elementwise."""
    return np.where(v <= 0.0, 0.0, np.where(v >= 1.0, 1.0, v))


def nsga2_offspring(x, rank, crowd, n: int, rng) -> np.ndarray:
    """n children of one NSGA-II generation, bred from the parents x.

    x holds the parents by position, rank and crowd their front indices and
    crowding distances. Each pair of children comes from two binary
    tournaments, SBX and polynomial mutation of both children, at the
    module's settings; an odd n breeds a last pair and drops its second
    child.

    Draw order, pair by pair: integers(0, len(x), size=4), the two
    tournaments' contestants; the SBX gate random(); random(d) when the
    gate passes; random(4d), the first child's mutation gate and delta
    vectors, then the second child's. This is the stream, and the children
    are the bits, of _tournament, sbx_crossover and polynomial_mutation
    called pair by pair (see the module docstring).
    """
    m, d = x.shape
    pairs = -(-n // 2)
    contestants = np.empty((pairs, 4), dtype=np.intp)
    crossed = np.zeros(pairs, dtype=bool)
    u = np.full((pairs, d), 0.5)  # 0.5 keeps the unused rows finite
    draws = np.empty((pairs, 4 * d))
    for k in range(pairs):
        contestants[k] = rng.integers(0, m, size=4)
        if rng.random() < SBX_PROB:
            crossed[k] = True
            rng.random(out=u[k])
        rng.random(out=draws[k])

    # binary tournaments: lower rank wins, then larger crowding, else the first
    a, b = contestants[:, 0::2], contestants[:, 1::2]
    ca, cb = crowd[a], crowd[b]
    b_wins = np.where(rank[a] != rank[b], rank[a] > rank[b], (ca != cb) & ~(ca > cb))
    parents = x[np.where(b_wins, b, a)]  # (pairs, 2, d)

    # SBX, each child from its own parent and the other one (IEEE addition
    # commutes); a pair whose gate failed passes its parents through
    spread = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u)))
    beta = (spread ** (1.0 / (SBX_ETA + 1.0)))[:, np.newaxis]
    crossed_children = _clip_unit_array(0.5 * ((1.0 + beta) * parents + (1.0 - beta) * parents[:, ::-1]))
    children = np.where(crossed[:, np.newaxis, np.newaxis], crossed_children, parents).reshape(2 * pairs, d)

    # polynomial mutation of the coordinates whose gate passes
    draws = draws.reshape(2 * pairs, 2, d)
    mutated = draws[:, 0] < 1.0 / d
    xs, us = children[mutated], draws[:, 1][mutated]
    low = us < 0.5  # towards the lower bound for u < 0.5, upper bound otherwise
    t = np.where(low, 1.0 - xs, xs) ** (MUTATION_ETA + 1.0)
    val = np.where(low, 2.0 * us + (1.0 - 2.0 * us) * t, 2.0 * (1.0 - us) + 2.0 * (us - 0.5) * t)
    v = val ** (1.0 / (MUTATION_ETA + 1.0))
    children[mutated] = _clip_unit_array(xs + np.where(low, v - 1.0, 1.0 - v))
    return children[:n]


# --- ranking helpers -------------------------------------------------------


def fast_nondominated_sort(objectives) -> list[list[int]]:
    """Non-dominated sorting (minimization) into index fronts.

    Bi-objective sweep: after lexicographic sorting, a point's front is found
    by binary search over the per-front minimum of the second objective
    (patience-sorting argument), so the whole partition is O(n log n).
    Exact duplicates share the front of their first occurrence.
    """
    f = np.asarray(objectives, dtype=float)
    if len(f) == 0:
        return []
    order = np.lexsort((f[:, 1], f[:, 0]))
    tails: list[float] = []  # current min f2 per front; non-decreasing
    fronts: list[list[int]] = []
    prev = None
    r = 0
    # lexicographic order puts exact duplicates next to each other
    for idx, point in zip(order.tolist(), f[order].tolist()):
        if point != prev:
            f2 = point[1]
            r = bisect_right(tails, f2)
            if r == len(tails):
                tails.append(f2)
                fronts.append([])
            else:
                tails[r] = f2
            prev = point
        fronts[r].append(idx)
    return fronts


def crowding_distance(front_objectives) -> np.ndarray:
    """Crowding distances of one front; boundary members get +inf."""
    f = np.asarray(front_objectives, dtype=float)
    n = len(f)
    if n == 0:
        raise ParameterError("front must be non-empty")
    dist = np.zeros(n)
    for m in range(f.shape[1]):
        order = np.argsort(f[:, m], kind="stable")
        fm = f[order, m]
        span = fm[-1] - fm[0]
        dist[order[0]] = dist[order[-1]] = np.inf
        if span > 0.0 and n > 2:
            dist[order[1:-1]] += (fm[2:] - fm[:-2]) / span
    return dist


def nsga2_survival(objectives, capacity: int) -> list[int]:
    """Indices surviving (mu+mu) selection by rank, then crowding distance.

    They come front by front: each whole front as fast_nondominated_sort
    lists it, then the survivors of the last front by decreasing crowding
    distance.
    """
    f = np.asarray(objectives, dtype=float)
    chosen: list[int] = []
    for front in fast_nondominated_sort(f):
        if len(chosen) == capacity:
            break
        if len(chosen) + len(front) <= capacity:
            chosen.extend(front)
            continue
        crowd = crowding_distance(f[front])
        order = np.argsort(-crowd, kind="stable")
        need = capacity - len(chosen)
        chosen.extend(np.asarray(front)[order[:need]].tolist())
        break
    return chosen


def _insert_into_fronts(fronts: list[list[tuple]], c: tuple) -> tuple[int, int]:
    """Add key c = (f1, f2, row) to bi-objective fronts, in place.

    Each front is a list of (f1, f2, row) keys in ascending order, the order
    fast_nondominated_sort lists a front in when rows are positions; c's row
    must exceed every other. c joins the first front with no member that
    dominates it. The members it dominates there move one front down, and
    each further front passes on the members dominated by those that came
    in. Returns the range of front indices that changed.
    """
    f1, f2 = c[0], c[1]
    probe = (f1, math.inf)  # sorts after every key with first objective <= f1
    lo, hi = 0, len(fronts)
    while lo < hi:  # "some member dominates c" holds for a prefix of the fronts
        mid = (lo + hi) // 2
        front = fronts[mid]
        i = bisect_right(front, probe) - 1  # lowest f2 among f1 <= c's f1
        if i >= 0 and front[i][1] <= f2 and front[i][:2] != c[:2]:
            lo = mid + 1
        else:
            hi = mid
    first = k = lo
    if k == len(fronts):
        fronts.append([c])
        return first, k + 1
    front = fronts[k]
    pos = j = bisect_right(front, c)
    while j < len(front) and front[j][1] >= f2:  # f2 falls along a front
        j += 1
    moved = front[pos:j]
    front[pos:j] = [c]
    while moved:
        k += 1
        if k == len(fronts):
            fronts.append(moved)
            break
        kept, pushed = [], []
        m = -1  # last moved key with f1 <= q's f1, the lowest f2 among them
        for q in fronts[k]:
            while m + 1 < len(moved) and moved[m + 1][0] <= q[0]:
                m += 1
            (pushed if m >= 0 and moved[m][1] <= q[1] else kept).append(q)
        fronts[k] = sorted(kept + moved)
        moved = pushed
    return first, k + 1


class _FrontCrowding:
    """Row -> crowding distance in SMS-EMOA's kept fronts, computed on demand.

    Equals crowding_distance over the row's front. Each front lists (f1, f2,
    row) keys in ascending order, and in a 2-D front equal f1 or equal f2
    means an exact duplicate. So sorting by f1 keeps the front's order, and
    sorting by f2 reverses its runs of duplicates but keeps the order inside
    each run: a member's neighbours by f2 lie in its run or next to it.
    """

    def __init__(self, fronts: list[list[tuple]], rank: dict, f: np.ndarray):
        self.fronts, self.rank, self.f = fronts, rank, f

    def __getitem__(self, row: int) -> float:
        front = self.fronts[self.rank[row]]
        n = len(front)
        k = bisect_left(front, (*self.f[row].tolist(), row))
        if n <= 2 or k == 0 or k == n - 1:
            return math.inf
        f1, f2 = front[k][0], front[k][1]
        s, e = k - 1, k + 1  # nearest distinct members before and after k's run
        while s >= 0 and front[s][0] == f1:
            s -= 1
        while e < n and front[e][0] == f1:
            e += 1
        ends_run, starts_run = e == k + 1, s == k - 1
        if ends_run and s < 0 or starts_run and e == n:
            return math.inf  # the last of the first run or the first of the last
        up = front[s][1] if ends_run else f2
        down = front[e][1] if starts_run else f2
        dist = 0.0
        span = front[-1][0] - front[0][0]
        if span > 0.0:
            dist += (front[k + 1][0] - front[k - 1][0]) / span
        span = front[0][1] - front[-1][1]
        if span > 0.0:
            dist += (up - down) / span
        return dist


def _tournament(pop, rank, crowd, rng) -> int:
    """Binary tournament over the rows in pop; returns the winning row.

    Draw order: two integers in [0, len(pop)), the positions of the two
    contestants, in that order. They equal rng.integers(0, len(pop), size=2):
    both forms take 32-bit halves from the bit generator's own buffer, the
    low half of a 64-bit output first, so two scalar calls draw the same
    stream at a fraction of the array call's cost.
    """
    n = len(pop)
    i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
    a, b = pop[i], pop[j]
    if rank[a] != rank[b]:
        return a if rank[a] < rank[b] else b
    ca, cb = crowd[a], crowd[b]
    if ca != cb:
        return a if ca > cb else b
    return a


def hv_contributions_2d(front, ref) -> list[float]:
    """Exclusive hypervolume of each member of a non-dominated 2-D front.

    front lists its members as (f1, f2, ...) sequences in ascending (f1, f2)
    order, as SMS-EMOA's (f1, f2, row) keys are, and ref lies at or beyond
    the front's nadir; the contributions come in front's order. Member k's
    box reaches from its point to the next member's f1 and the previous
    member's f2, or to ref at either end, so an exact duplicate contributes 0.
    """
    r1, r2 = ref
    contrib = []
    up, last = r2, len(front) - 1
    for k in range(len(front)):
        f1, f2 = front[k][0], front[k][1]
        right = front[k + 1][0] if k < last else r1
        contrib.append((right - f1) * (up - f2))
        up = f2
    return contrib


def _smallest_contributor(front: list[tuple]) -> int:
    """Position of SMS-EMOA's drop in a front of ascending (f1, f2, row)
    keys: the first smallest hypervolume contributor against the front's
    nadir shifted by (1, 1), which is (last f1 + 1, first f2 + 1)."""
    contrib = hv_contributions_2d(front, (front[-1][0] + 1.0, front[0][1] + 1.0))
    return contrib.index(min(contrib))  # np.argmin's first smallest


def tchebycheff(f, lam, z) -> list[float]:
    """Weighted Tchebycheff aggregation max_i lam_i |f_i - z_i| of each row.

    f and lam are sequences of objective and weight pairs of equal length;
    row k gives f[k]'s value under lam[k]. For finite inputs every value is
    a number, and the larger of two terms is np.maximum's.
    """
    z1, z2 = z
    out = []
    for (f1, f2), (l1, l2) in zip(f, lam):
        g, h = l1 * abs(f1 - z1), l2 * abs(f2 - z2)
        out.append(g if g >= h else h)
    return out


def moead_weights(population: int) -> np.ndarray:
    """Uniform bi-objective weight lattice from (1, 0) to (0, 1)."""
    if population < 2:
        raise ParameterError("MOEA/D needs at least 2 weight vectors")
    w = np.linspace(0.0, 1.0, population)
    return np.column_stack([1.0 - w, w])


# --- runners ---------------------------------------------------------------


def run_random_search(inst: ProblemInstance, cfg: AlgoConfig) -> RunResult:
    """Uniform i.i.d. sampling of the whole budget.

    The final population is the non-dominated subset of all evaluations,
    the first row of any exact duplicates.
    """
    rng = np.random.default_rng(cfg.seed)
    state = _RunState(inst, cfg.budget)
    state.evaluate(rng.random((cfg.budget, inst.problem.dim)))
    return state.result(np.sort(nondominated_rows(state.f_orig)))


def _variation_pair(x, pop, rank, crowd, rng):
    """Two binary tournaments over pop's rows, then SBX; the children are not yet mutated."""
    a = _tournament(pop, rank, crowd, rng)
    b = _tournament(pop, rank, crowd, rng)
    return sbx_crossover(x[a], x[b], SBX_ETA, SBX_PROB, rng)


def _mutate(c, rng) -> np.ndarray:
    return polynomial_mutation(c, MUTATION_ETA, 1.0 / len(c), rng)


def run_nsga2(inst: ProblemInstance, cfg: AlgoConfig) -> RunResult:
    """Generational NSGA-II with binary tournaments on (rank, crowding).

    Each generation sorts its population afresh for the tournaments' ranks
    and crowding distances, and its children come from one nsga2_offspring
    call; nsga2_survival sorts the union of parents and children. A final
    generation that does not fit into the budget is evaluated and logged
    (truncated) but skips environmental selection, so the final population
    is the last complete survivor set.
    """
    rng = np.random.default_rng(cfg.seed)
    state = _RunState(inst, cfg.budget)
    n = cfg.population
    pop = state.evaluate(rng.random((n, inst.problem.dim)))
    rank, crowd = np.empty(n, dtype=int), np.empty(n)  # by position in pop
    while state.remaining > 0:
        objs = state.f_seen[pop]
        for r, front in enumerate(fast_nondominated_sort(objs)):
            rank[front] = r
            crowd[front] = crowding_distance(objs[front])
        children = nsga2_offspring(state.x[pop], rank, crowd, n, rng)
        full_generation = state.remaining >= n
        offspring = state.evaluate(children[: state.remaining])
        if not full_generation:
            break
        union = np.concatenate([pop, offspring])
        pop = union[nsga2_survival(state.f_seen[union], n)]
    return state.result(pop)


def run_smsemoa(inst: ProblemInstance, cfg: AlgoConfig) -> RunResult:
    """Steady-state SMS-EMOA: drop the smallest hypervolume contributor.

    Contributions are computed on the worst front in f_seen space against
    that front's nadir shifted by (1, 1), in one pass over its ascending
    keys (_smallest_contributor). The fronts are kept from one
    iteration to the next: the child is inserted with _insert_into_fronts,
    and the removed member sits in the worst front and dominates nobody, so
    ranks change only on the fronts that changed. Crowding distances are
    read from the fronts when a tournament needs one.
    """
    rng = np.random.default_rng(cfg.seed)
    state = _RunState(inst, cfg.budget)
    x, f_seen = state.x, state.f_seen
    n, d = cfg.population, inst.problem.dim
    pop = state.evaluate(rng.random((n, d))).tolist()  # rows, kept ascending
    keys = [(a, b, row) for row, (a, b) in zip(pop, f_seen[pop].tolist())]
    fronts = [[keys[i] for i in front] for front in fast_nondominated_sort(f_seen[pop])]
    rank = {key[2]: r for r, front in enumerate(fronts) for key in front}
    crowd = _FrontCrowding(fronts, rank, f_seen)
    while state.remaining > 0:
        c1, _ = _variation_pair(x, pop, rank, crowd, rng)
        child_x = _mutate(c1, rng)
        # the second child is discarded, but its mutation's gate and delta
        # draws stay in the stream, so every later draw is as it was
        rng.random(d)
        rng.random(d)
        (child,) = state.evaluate(child_x[np.newaxis]).tolist()
        first, stop = _insert_into_fronts(fronts, (*f_seen[child].tolist(), child))
        worst = fronts[-1]
        removed = worst.pop(_smallest_contributor(worst) if len(worst) > 1 else 0)[2]
        if not worst:
            fronts.pop()
        for r in range(first, min(stop, len(fronts))):
            rank.update(dict.fromkeys([row for _, _, row in fronts[r]], r))
        # a child alone in a new last front is removed at once, unranked
        rank.pop(removed, None)
        pop.append(child)
        del pop[bisect_left(pop, removed)]
    return state.result(pop)


def run_moead(inst: ProblemInstance, cfg: AlgoConfig) -> RunResult:
    """MOEA/D with Tchebycheff aggregation on uniform bi-objective weights.

    Classic neighborhood scheme: size min(20, population); mating draws
    parents from the neighborhood with probability 0.9 (whole population
    otherwise); the offspring replaces every neighborhood member whose
    decomposed fitness it strictly improves.
    """
    rng = np.random.default_rng(cfg.seed)
    state = _RunState(inst, cfg.budget)
    n = cfg.population
    weights = moead_weights(n)
    t_size = min(MOEAD_NEIGHBORS, n)
    dist = np.linalg.norm(weights[:, np.newaxis, :] - weights[np.newaxis, :, :], axis=2)
    neighborhoods = np.argsort(dist, axis=1, kind="stable")[:, :t_size]
    nb_rows, nb_weights = neighborhoods.tolist(), weights[neighborhoods].tolist()
    everyone = np.arange(n)
    pop = state.evaluate(rng.random((n, inst.problem.dim))).tolist()
    x, f_seen = state.x, state.f_seen
    f_rows = f_seen[:n].tolist()  # f_rows[row] is f_seen[row] as floats
    z = f_seen[pop].min(axis=0).tolist()
    while state.remaining > 0:
        for i in range(n):
            if state.remaining == 0:
                break
            if rng.random() < MOEAD_MATE_NEIGHBORHOOD_PROB:
                pool = neighborhoods[i]
            else:
                pool = everyone
            p1, p2 = rng.choice(pool, size=2, replace=False).tolist()
            c1, _ = sbx_crossover(x[pop[p1]], x[pop[p2]], SBX_ETA, SBX_PROB, rng)
            (child,) = state.evaluate(_mutate(c1, rng)[np.newaxis]).tolist()
            f_child = f_seen[child].tolist()
            f_rows.append(f_child)
            z = [a if a <= b else b for a, b in zip(z, f_child)]  # np.minimum
            # each neighbour is tested once against its own incumbent, so
            # testing them together equals replacing one at a time
            nb, lam = nb_rows[i], nb_weights[i]
            g_child = tchebycheff([f_child] * len(nb), lam, z)
            g_kept = tchebycheff([f_rows[pop[j]] for j in nb], lam, z)
            for j, better, kept in zip(nb, g_child, g_kept):
                if better < kept:
                    pop[j] = child
    return state.result(pop)


_RUNNERS = {
    "random_search": run_random_search,
    "nsga2": run_nsga2,
    "smsemoa": run_smsemoa,
    "moead": run_moead,
}


def run_algorithm(inst: ProblemInstance, cfg: AlgoConfig) -> RunResult:
    """Dispatch one run; deterministic in (instance, config)."""
    return _RUNNERS[cfg.name](inst, cfg)
