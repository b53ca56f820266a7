import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from superstable import (
    Instance,
    blocking_edges,
    check_point,
    convex_combination,
    enumerate_all,
    incidence_vector,
    maximal_sequence,
    parse_edge_values,
    random_instance,
    self_dual,
    vertices,
)
from superstable import polytope
from superstable.oracle import brute_stable_set, enumerate_matchings, has_blocking_edge
from conftest import (
    block_union,
    blocking_edges_by_name,
    check_point_by_name,
    drop_union,
    reference_back_substitute,
    reference_vertices,
    self_dual_by_name,
)

M0_I1 = frozenset({("a", "x"), ("b", "y")})
MZ_I1 = frozenset({("a", "y"), ("b", "x")})

SINGLE_EDGE = Instance(["a"], ["x"], {"a": [["x"]], "x": [["a"]]})


def half_point(inst):
    return {e: Fraction(1, 2) for e in inst.edges}


def test_check_point_zero_vector(i1):
    report = check_point(i1, {}, "super")
    assert [v.constraint for v in report] == ["1b"] * 4
    assert {v.witness for v in report} == set(i1.edges)
    assert all(v.lhs == 0 and v.relation == ">= 1" for v in report)


def test_check_point_incidence_and_half(i1):
    assert check_point(i1, incidence_vector(M0_I1), "super") == []
    assert check_point(i1, half_point(i1), "super") == []


def test_check_point_violation_kinds(i1):
    over = {e: Fraction(2, 3) for e in i1.edges}
    tags = {v.constraint for v in check_point(i1, over, "super")}
    assert tags == {"1a"}
    neg = dict(incidence_vector(M0_I1))
    neg[("a", "y")] = Fraction(-1, 4)
    tags = {v.constraint for v in check_point(i1, neg, "super")}
    assert "1c" in tags
    tags = {v.constraint for v in check_point(i1, neg, "strong")}
    assert "3d" in tags
    with pytest.raises(ValueError, match="not an edge"):
        check_point(i1, {("a", "a"): 1}, "super")
    with pytest.raises(ValueError, match="unknown model"):
        check_point(i1, {}, "weak")


def test_strong_model_tags(i2):
    report = check_point(i2, {}, "strong")
    assert {v.constraint for v in report} == {"3b", "3c"}


def test_self_dual_examples(i1):
    cert, primal, dual = self_dual(i1, incidence_vector(M0_I1))
    assert primal == dual == 2
    assert all(cert.alpha[v] == 1 for v in i1.men + i1.women)
    cert, primal, dual = self_dual(i1, half_point(i1))
    assert primal == dual == 2
    assert all(cert.alpha[v] == 1 for v in i1.men + i1.women)
    assert cert.beta == {e: Fraction(1, 2) for e in i1.edges}


def test_self_dual_empty_instance():
    inst = Instance(["a"], ["x"], {})
    cert, primal, dual = self_dual(inst, {})
    assert primal == dual == 0


def test_self_dual_requires_feasible(i1):
    with pytest.raises(ValueError, match="feasible"):
        self_dual(i1, {})


def test_vertices_examples(i1, i2):
    got = vertices(i1, "super", 8)
    assert got == [incidence_vector(MZ_I1), incidence_vector(M0_I1)] or {
        frozenset(p) for p in got
    } == {MZ_I1, M0_I1}
    assert all(set(p.values()) == {1} for p in got)
    assert vertices(i2, "super", 8) == []
    assert vertices(SINGLE_EDGE, "super", 8) == [{("a", "x"): 1}]


def _assert_same_vertices(inst, label):
    for model in ("super", "strong"):
        got, want = vertices(inst, model, 8), reference_vertices(inst, model, 8)
        # list order, each point's key order and its exact values
        assert [list(p.items()) for p in got] == [list(p.items()) for p in want], (label, model)
        assert all(type(v) is Fraction for p in got for v in p.values()), (label, model)


def _small_instances(count, largest, max_edges, first_seed):
    """(seed, instance) for the first ``count`` seeds from ``first_seed`` on
    whose n x n instance, n = 2 .. ``largest`` in turn, has at most
    ``max_edges`` edges."""
    found = []
    for seed in range(first_seed, first_seed + 100 * count):
        n = 2 + seed % (largest - 1)
        inst = random_instance(n, n, 0.7, 0.4, seed=seed)
        if len(inst.edges) <= max_edges:
            found.append((seed, inst))
            if len(found) == count:
                return found
    raise AssertionError("too few small instances")


def test_vertices_match_reference(i1, i2):
    no_edges = Instance(["a", "b"], ["x"], {})
    for label, inst in (("i1", i1), ("i2", i2), ("single", SINGLE_EDGE), ("empty", no_edges)):
        _assert_same_vertices(inst, label)
    assert vertices(no_edges, "strong", 8) == [{}]
    for seed, inst in _small_instances(110, 3, 5, 57_000):
        _assert_same_vertices(inst, seed)


@pytest.mark.slow
def test_vertices_match_reference_corpus():
    for seed, inst in _small_instances(520, 4, 7, 58_000):
        _assert_same_vertices(inst, seed)


def test_back_substitution_matches_the_fraction_reference():
    # random integer square systems, the singular ones rejected by the
    # elimination; both routes solve the same reduced rows
    rng = random.Random(59_000)
    solved = fractional = negative = 0
    for _ in range(800):
        n = rng.randint(1, 8)
        pivots = []
        for _ in range(n):
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            reduced = polytope._eliminate(pivots, coeffs, rng.randint(-3, 3))
            if reduced is None:
                break
            pivots.append(reduced)
        else:
            nums, den = polytope._back_substitute(pivots, n)
            assert den > 0 and gcd(den, *nums) == 1, pivots
            assert [Fraction(v, den) for v in nums] == reference_back_substitute(pivots, n)
            solved += 1
            fractional += den > 1
            negative += any(v < 0 for v in nums)
    assert solved >= 300 and fractional >= 100 and negative >= 100, (solved, fractional, negative)


def test_vertices_builds_no_fraction_for_a_rejected_basis(monkeypatch, i1):
    # every basis is solved and checked in integers: the only Fractions
    # built are the coordinates of the vertices returned
    tied = random_instance(3, 3, 0.7, 0.4, seed=8)
    assert len(tied.edges) == 6 and any(len(t) > 1 for ts in tied.prefs.values() for t in ts)
    cases = [(inst, m, vertices(inst, m)) for inst in (i1, tied) for m in ("super", "strong")]
    built, verdicts = [], []

    class CountedFraction(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    feasible = polytope._feasible

    def spy(*args):
        verdicts.append(feasible(*args))
        return verdicts[-1]

    monkeypatch.setattr(polytope, "Fraction", CountedFraction)
    monkeypatch.setattr(polytope, "_feasible", spy)
    for inst, model, expected in cases:
        built.clear()
        verdicts.clear()
        got = vertices(inst, model)
        assert got == expected and got, model
        assert False in verdicts, model
        assert len(built) <= len(inst.edges) * len(got), (model, len(built))


def test_vertices_cap():
    inst = random_instance(3, 3, 1.0, 0.0, seed=3)
    with pytest.raises(ValueError, match="cap"):
        vertices(inst, "super", 8)
    with pytest.raises(ValueError, match="unknown model"):
        vertices(inst, "weak", 8)


def test_point_file(i1):
    point = parse_edge_values(i1, "a x 1/2\nb y 1/2\n")
    assert point[("a", "x")] == Fraction(1, 2)


def test_convex_combination_validation(i1):
    with pytest.raises(ValueError, match="sum to 1"):
        convex_combination([incidence_vector(M0_I1)], [Fraction(1, 2)])
    # a length mismatch is reported, not cut short by zip
    with pytest.raises(ValueError, match="1 points but 2 coefficients"):
        convex_combination([incidence_vector(M0_I1)], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError, match="2 points but 1 coefficients"):
        convex_combination(iter([incidence_vector(M0_I1), incidence_vector(MZ_I1)]), [1])


def test_integral_characterization_sweep():
    for k in range(80):
        n = 2 + (k % 4)
        inst = random_instance(n, n, 0.7, 0.4, seed=54_000 + k)
        for matching in enumerate_matchings(inst, max_edges=40):
            x = incidence_vector(matching)
            for model in ("super", "strong"):
                assert (not check_point(inst, x, model)) == (
                    not has_blocking_edge(inst, matching, model)
                ), (k, model, sorted(matching))


def test_convexity_closure_sweep():
    for k in range(60):
        n = 2 + (k % 4)
        inst = random_instance(n, n, 0.7, 0.3, seed=55_000 + k)
        stable = brute_stable_set(inst, max_edges=40)
        if not stable:
            continue
        points = [incidence_vector(m) for m in stable]
        rng = random.Random(k)
        for _ in range(5):
            raw = [rng.randint(0, 4) for _ in points]
            if not sum(raw):
                raw[0] = 1
            coefficients = [Fraction(r, sum(raw)) for r in raw]
            x = convex_combination(points, coefficients)
            assert check_point(inst, x, "super") == [], k
            cert, primal, dual = self_dual(inst, x)
            assert primal == dual, k
            assert all(a >= 0 for a in cert.alpha.values())


def test_vertex_integrality_sweep():
    seen = 0
    for k in range(120):
        n = 2 + (k % 2)
        inst = random_instance(n, n, 0.55, 0.4, seed=56_000 + k)
        if len(inst.edges) > 6:
            continue
        seen += 1
        for model in ("super", "strong"):
            reference = brute_stable_set(inst, model, max_edges=40)
            got = vertices(inst, model, 8)
            for point in got:
                assert all(value == 1 for value in point.values()), (k, model)
                assert not has_blocking_edge(inst, frozenset(point), model), (k, model)
            assert len(got) == len(reference), (k, model)
        if seen >= 60:
            break
    assert seen >= 40


def test_equality_structure_sweep():
    # every maximal positive partner of a covered vertex sits at a saturated vertex
    for k in range(60):
        n = 2 + (k % 4)
        inst = random_instance(n, n, 0.8, 0.3, seed=57_000 + k)
        stable = brute_stable_set(inst, max_edges=40)
        if not stable:
            continue
        points = [incidence_vector(m) for m in stable]
        rng = random.Random(k)
        raw = [rng.randint(1, 4) for _ in points]
        x = convex_combination(points, [Fraction(r, sum(raw)) for r in raw])

        def vertex_sum(name):
            if name in inst._midx:
                return sum(x.get((name, w), 0) for w in inst.neighbors(name))
            return sum(x.get((m, name), 0) for m in inst.neighbors(name))

        for man in inst.men:
            positive = [w for w in inst.neighbors(man) if x.get((man, w), 0) > 0]
            if not positive:
                continue
            best = min(inst.man_rank(man, w) for w in positive)
            for w in positive:
                if inst.man_rank(man, w) == best:
                    assert vertex_sum(w) == 1, (k, man, w)
        for woman in inst.women:
            positive = [m for m in inst.neighbors(woman) if x.get((m, woman), 0) > 0]
            if not positive:
                continue
            best = min(inst.woman_rank(woman, m) for m in positive)
            for m in positive:
                if inst.woman_rank(woman, m) == best:
                    assert vertex_sum(m) == 1, (k, woman, m)


def random_matching(inst, rng):
    """A random partial matching: edges taken greedily in shuffled order."""
    used, chosen = set(), set()
    for m, w in rng.sample(inst.edges, len(inst.edges)):
        if m not in used and w not in used and rng.random() < 0.7:
            chosen.add((m, w))
            used.update((m, w))
    return frozenset(chosen)


def random_point(inst, rng):
    """Rational values on a random subset of edges: halves, thirds, values
    that push vertex sums above 1, some negative, and some explicit zeros."""
    values = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2),
              Fraction(1), Fraction(0), Fraction(-1, 4), Fraction(-2)]
    share = rng.choice((0.1, 0.4, 1.0))
    return {e: rng.choice(values) for e in inst.edges if rng.random() < share}


def outcome(fn, *args):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


def test_index_kernels_match_by_name_references_at_scale():
    rng = random.Random(58_000)
    inputs = [
        random_instance(n, n, 0.3, ties, seed=58_000 + k)
        for k, (ties, n) in enumerate((t, n) for t in (0.0, 0.1, 0.3) for n in (30, 55, 80))
    ]
    # large random instances with ties are almost never feasible
    inputs += [block_union(58_100 + k, n, 0.3) for k, n in enumerate((30, 55, 80))]
    feasible = tied = fractional = 0
    for k, inst in enumerate(inputs):
        chain = maximal_sequence(inst)
        feasible += bool(chain)
        tied += bool(chain) and any(len(t) > 1 for ts in inst.prefs.values() for t in ts)
        matchings = chain + [random_matching(inst, rng) for _ in range(4)] + [frozenset()]
        # the by-name references are slow: 0/1 points from the chain's ends only
        points = [incidence_vector(m) for m in chain[:1] + chain[-1:] + matchings[len(chain):]]
        points += [random_point(inst, rng) for _ in range(4)]
        points += [{e: Fraction(1, 2) for e in inst.edges},
                   {e: Fraction(1, 3) for e in inst.edges}]
        for _ in range(2 if len(chain) > 1 else 0):
            weights = [Fraction(rng.randint(0, 5)) for _ in chain]
            weights[0] += 1
            points.append(convex_combination(
                [incidence_vector(m) for m in chain], [w / sum(weights) for w in weights]
            ))
        for matching in matchings:
            for criterion in ("super", "strong"):
                assert blocking_edges(inst, matching, criterion) == blocking_edges_by_name(
                    inst, matching, criterion
                ), (k, criterion, sorted(matching))
        for x in points:
            if kernels_agree(inst, x, k):
                fractional += any(v.denominator > 1 for v in x.values())
    assert feasible >= 6 and tied >= 3 and fractional >= 8, (feasible, tied, fractional)


def kernels_agree(inst, x, k) -> bool:
    """Assert that ``check_point`` and ``self_dual`` give what the by-name
    references give, in value, type and dict order; True when ``x`` got a
    certificate."""
    for model in ("super", "strong"):
        got = check_point(inst, x, model)
        assert got == check_point_by_name(inst, x, model), (k, model)
        assert all(type(v.lhs) is Fraction for v in got), (k, model)
    got, expected = outcome(self_dual, inst, x), outcome(self_dual_by_name, inst, x)
    assert got == expected, k
    if isinstance(got[0], type):
        return False
    cert = got[0]
    assert list(cert.alpha) == list(expected[0].alpha), k
    assert list(cert.beta) == list(expected[0].beta), k
    values = [*cert.alpha.values(), *cert.beta.values(), *got[1:]]
    assert all(type(v) is Fraction for v in values), k
    return True


def with_idle_agents(inst):
    """``inst`` with agents of empty lists inserted on both sides, at the
    front, in the middle and at the end."""
    sides = [list(inst.men), list(inst.women)]
    for side, prefix in zip(sides, ("im", "iw")):
        for k in range(3):
            side.insert((0, len(side) // 2, len(side))[k], f"{prefix}{k}")
    return Instance(*sides, inst.prefs)


def test_flat_prefix_kernels_on_idle_agents_sparse_points_and_long_ties():
    rng = random.Random(58_200)
    inputs = [with_idle_agents(block_union(58_200 + k, n, 0.3)) for k, n in enumerate((6, 24))]
    # complete lists of 30 and 60 partners with many tie tiers
    long_ties = [random_instance(n, n, 1.0, 0.3, seed=58_210 + n) for n in (30, 60)]
    assert max(len(tiers) for tiers in long_ties[1].prefs.values()) >= 35
    inputs += [with_idle_agents(inst) for inst in long_ties]
    inputs += [with_idle_agents(SINGLE_EDGE), Instance(["a", "b"], ["x"], {})]
    values = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(5, 2), 1, 0]
    certified = negative = 0
    for k, inst in enumerate(inputs):
        chain = maximal_sequence(inst)
        points = [incidence_vector(m) for m in chain[:1] + chain[-1:]] + [{}]
        points += [random_point(inst, rng) for _ in range(3)]
        for _ in range(8 if inst.edges else 0):
            # a point on one to three edges touches only a few agents
            few = rng.sample(inst.edges, min(len(inst.edges), rng.randint(1, 3)))
            points.append({e: rng.choice(values) for e in few})
        for x in points:
            certified += kernels_agree(inst, x, k)
            negative += any(v < 0 for v in x.values())
    assert certified >= 6 and negative >= 10, (certified, negative)


@st.composite
def small_tied_instances(draw):
    """2-6 agents a side, at most 14 edges, and randomly tied lists."""
    men = [f"m{i}" for i in range(draw(st.integers(2, 6)))]
    women = [f"w{j}" for j in range(draw(st.integers(2, 6)))]
    density = draw(st.sampled_from((0.8, 0.5, 0.3)))
    tie_prob = draw(st.sampled_from((0.3, 0.6, 0.0)))
    # edges and orders drawn element by element lean to tiny sorted
    # instances; a drawn seed keeps them random
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = [(m, w) for m in men for w in women if rng.random() < density][:14]
    prefs = {}
    for agent in men + women:
        listed = [w if agent == m else m for m, w in edges if agent in (m, w)]
        rng.shuffle(listed)
        tiers = []
        for partner in listed:
            if tiers and rng.random() < tie_prob:
                tiers[-1].append(partner)
            else:
                tiers.append([partner])
        prefs[agent] = tiers
    return Instance(men, women, prefs)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_tied_instances())
def test_blocking_and_integral_characterization_property(inst):
    for matching in enumerate_matchings(inst, max_edges=14):
        x = incidence_vector(matching)
        for criterion in ("super", "strong"):
            stable = not has_blocking_edge(inst, matching, criterion)
            assert (not blocking_edges(inst, matching, criterion)) == stable, criterion
            assert (check_point(inst, x, criterion) == []) == stable, criterion


def prefix_kernel(inst, x, model):
    """``check_point``'s report by the integer prefix sums alone."""
    return polytope._violations(inst, polytope._tier_sums(inst, x), model)


def test_matching_route_matches_the_prefix_kernel():
    # arbitrary matchings, most of them unstable, on small tied instances
    rng = random.Random(59_000)
    points = breached = 0
    for k in range(3_000):
        n = rng.randint(2, 8)
        inst = random_instance(n, n, rng.choice((0.4, 0.7, 1.0)), rng.choice((0.0, 0.3, 0.6)),
                               seed=59_000 + k)
        matching = random_matching(inst, rng)
        one = rng.choice((1, Fraction(1)))
        x = dict.fromkeys(matching, one)
        for model in ("super", "strong"):
            got = check_point(inst, x, model)
            assert got == prefix_kernel(inst, x, model), (k, model, sorted(matching))
            assert all(type(v.lhs) is Fraction for v in got), (k, model)
            points += 1
            breached += bool(got)
    assert points == 6_000 and breached >= points * 3 // 4, (points, breached)


def test_matching_route_matches_the_prefix_kernel_at_scale():
    # n = 1,000: super-stable matchings off the lattice, then each with two
    # men of one block trading partners
    inst = drop_union(20)
    assert len(inst.men) == 1_000
    rng = random.Random(59_100)
    listed = list(enumerate_all(inst, 12))
    swapped = []
    for matching in listed:
        pairs = dict(matching)
        while True:
            (m1, w1), (m2, w2) = rng.sample(sorted(matching), 2)
            if inst.is_edge(m1, w2) and inst.is_edge(m2, w1):
                break
        pairs[m1], pairs[m2] = w2, w1
        swapped.append(frozenset(pairs.items()))
    breached = 0
    for matching in listed + swapped:
        x = incidence_vector(matching)
        for model in ("super", "strong"):
            got = check_point(inst, x, model)
            assert got == prefix_kernel(inst, x, model), model
            breached += bool(got)
    assert breached >= len(swapped), breached


def test_check_point_reads_a_matching_off_the_blocking_walk(monkeypatch, i1, i3):
    calls = []
    tier_sums = polytope._tier_sums

    def spy(*args):
        calls.append(args)
        return tier_sums(*args)

    monkeypatch.setattr(polytope, "_tier_sums", spy)
    # a matching's incidence vector, with int or Fraction ones (the CLI's
    # parse_edge_values gives the latter) and with or without explicit zeros
    for inst in (i1, i3):
        for matching in enumerate_matchings(inst, max_edges=8):
            rest = [e for e in inst.edges if e not in matching]
            for one in (1, Fraction(1)):
                for zero in (None, 0, Fraction(0)):
                    x = dict.fromkeys(matching, one)
                    if zero is not None:
                        x.update(dict.fromkeys(rest, zero))
                    for model in ("super", "strong"):
                        assert check_point(inst, x, model) == check_point_by_name(inst, x, model)
    assert calls == []
    # every other point takes the prefix-sum kernel
    others = [
        {("a", "x"): Fraction(1, 2), ("b", "y"): 1},
        {("a", "x"): 1, ("b", "x"): Fraction(-1, 4)},
        {("a", "x"): 1, ("a", "y"): 1},  # not a matching: a 1a breach
    ]
    for x in others:
        for model in ("super", "strong"):
            calls.clear()
            report = check_point(i1, x, model)
            assert len(calls) == 1, (x, model)
            assert report == check_point_by_name(i1, x, model), (x, model)
    assert "1a" in {v.constraint for v in check_point(i1, others[2], "super")}
    # a non-edge key gives the same error before and after a fractional value
    for x in (
        {("a", "a"): 1, ("a", "x"): Fraction(1, 2)},
        {("a", "x"): Fraction(1, 2), ("a", "a"): 1},
        {("a", "x"): 1, ("a", "a"): 1},
    ):
        with pytest.raises(ValueError, match=r"^point key \('a', 'a'\) is not an edge$"):
            check_point(i1, x, "super")
