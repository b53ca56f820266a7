import gc
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import superstable.instance as instance_module
from superstable import (
    Instance,
    ParseError,
    load_weights,
    parse_edge_values,
    parse_instance,
    random_instance,
    reduce_for_edge,
    serialize_instance,
)
from conftest import (
    I1_TEXT,
    I2_TEXT,
    NON_MUTUAL_TEXT,
    reference_instance,
    reference_parse_edge_values,
    reference_parse_instance,
    swap_sides,
)


def test_parse_i1(i1):
    assert len(i1.edges) == 4
    assert all(len(tier) == 1 for name in i1.men + i1.women for tier in i1.prefs[name])
    assert i1.prefs["a"] == (("x",), ("y",))


def test_parse_i2_tie(i2):
    assert i2.prefs["x"] == (("a", "b"),)
    assert len(i2.edges) == 2


def test_parse_rejects_non_mutual():
    broken = I1_TEXT.replace("x: b a", "x: b")
    with pytest.raises(ParseError, match="non-mutual"):
        parse_instance(broken)
    # the first one-sided listing in declaration order, men's lists first
    with pytest.raises(ParseError) as err:
        parse_instance(NON_MUTUAL_TEXT)
    assert str(err.value) == "non-mutual listing: 'a' lists 'z' but not vice versa"
    with pytest.raises(ValueError) as err:
        Instance(["a", "b"], ["x", "y"], {"a": [["x"]], "x": [["a"], ["b"]], "y": [["b"], ["a"]]})
    assert str(err.value) == "non-mutual listing: 'x' lists 'b' but not vice versa"


def test_parse_errors():
    with pytest.raises(ParseError, match="men"):
        parse_instance("women: x\nmen: a\na: x\nx: a\n")
    with pytest.raises(ParseError, match="empty side"):
        parse_instance("men:\nwomen: x\n")
    with pytest.raises(ParseError, match="empty side: no women declared"):
        parse_instance("men: a\nwomen:\n")
    with pytest.raises(ParseError, match="unknown agent"):
        parse_instance("men: a\nwomen: x\na: x\nx: a\nq: x\n")
    with pytest.raises(ParseError, match="duplicate preference line"):
        parse_instance("men: a\nwomen: x\na: x\na: x\nx: a\n")
    with pytest.raises(ParseError, match="duplicate entry"):
        parse_instance("men: a\nwomen: x y\na: x x\nx: a\n")
    with pytest.raises(ParseError, match="unclosed"):
        parse_instance("men: a\nwomen: x y\na: (x y\nx: a\ny: a\n")
    with pytest.raises(ParseError, match="empty tie"):
        parse_instance("men: a\nwomen: x\na: ( ) x\nx: a\n")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_instance("men: a\nwomen: x\na: x!\nx: a\n")
    with pytest.raises(ParseError, match="both sides"):
        parse_instance("men: a\nwomen: a\na: a\n")


def test_parse_error_reports_line():
    err = None
    try:
        parse_instance("men: a\nwomen: x\na: x\nx: a\nx: a\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 5
    assert "line 5" in str(err)


def test_agent_without_line_has_empty_list():
    inst = parse_instance("men: a b\nwomen: x\na: x\nx: a\n")
    assert inst.prefs["b"] == ()
    assert len(inst.edges) == 1


def test_constructor_invariants():
    with pytest.raises(ValueError, match="duplicate name"):
        Instance(["a", "a"], ["x"], {})
    with pytest.raises(ValueError, match="duplicate name on the women side"):
        Instance(["a"], ["x", "x"], {})
    with pytest.raises(ValueError, match="preferences given for unknown agent"):
        Instance(["a"], ["x"], {"z": [["x"]]})
    with pytest.raises(ValueError, match="non-mutual"):
        Instance(["a"], ["x"], {"a": [["x"]]})
    with pytest.raises(ValueError, match="opposite side"):
        Instance(["a", "b"], ["x"], {"a": [["b"]]})
    with pytest.raises(ValueError, match="empty tier"):
        Instance(["a"], ["x"], {"a": [[]], "x": []})
    with pytest.raises(ValueError, match="bad agent name"):
        Instance(["a-b"], ["x"], {})


def test_man_and_woman_rank_examples(i1, i2, i3):
    assert i1.woman_rank("x", "b") == 1
    assert i1.woman_rank("x", "a") == 2
    assert i1.man_rank("a", "y") == 2
    assert i2.woman_rank("x", "a") == 1 and i2.woman_rank("x", "b") == 1
    assert i3.man_rank("a", "y") == 1 and i3.man_rank("a", "x") == 1
    with pytest.raises(ValueError, match="not an edge"):
        i1.man_rank("a", "a")  # a man, not a woman
    with pytest.raises(ValueError, match="not an edge"):
        i1.woman_rank("a", "x")  # the sides swapped
    with pytest.raises(ValueError, match="not an edge"):
        i3.woman_rank("x", "b")  # not an edge
    with pytest.raises(ValueError, match="unknown agent 'q'"):
        i1.neighbors("q")


def test_rank_consistent_with_tiers(i3):
    for agent in i3.men + i3.women:
        listed = i3.neighbors(agent)
        for p in listed:
            for q in listed:
                strictly_preferred = False
                for tier in i3.prefs[agent]:
                    if p in tier:
                        strictly_preferred = q not in tier
                        break
                    if q in tier:
                        break
                rank = i3.man_rank if agent in i3.men else i3.woman_rank
                assert (rank(agent, p) < rank(agent, q)) == strictly_preferred


def test_random_complete_strict():
    inst = random_instance(3, 3, 1.0, 0.0, seed=5)
    assert len(inst.edges) == 9
    assert all(len(t) == 1 for n in inst.men + inst.women for t in inst.prefs[n])


def test_random_zero_density():
    inst = random_instance(2, 2, 0.0, 0.5, seed=5)
    assert inst.edges == ()


def test_random_full_ties():
    inst = random_instance(3, 3, 1.0, 1.0, seed=11)
    assert all(len(inst.prefs[n]) == 1 for n in inst.men + inst.women)


def test_random_deterministic():
    a = random_instance(4, 5, 0.6, 0.4, seed=123)
    b = random_instance(4, 5, 0.6, 0.4, seed=123)
    assert serialize_instance(a) == serialize_instance(b)
    assert a == b
    assert serialize_instance(a) != serialize_instance(random_instance(4, 5, 0.6, 0.4, seed=124))


def test_random_argument_validation():
    with pytest.raises(ValueError):
        random_instance(0, 3, 0.5, 0.5, seed=1)
    with pytest.raises(ValueError):
        random_instance(2, 2, 1.5, 0.5, seed=1)


def test_round_trip():
    for k in range(40):
        inst = random_instance(1 + k % 5, 1 + (k // 5) % 5, 0.6, 0.5, seed=900 + k)
        again = parse_instance(serialize_instance(inst))
        assert again == inst
        assert again.edges == inst.edges


def test_swap_sides_involution(i1):
    swapped = swap_sides(i1)
    assert swapped.men == i1.women and swapped.women == i1.men
    assert swap_sides(swapped) == i1
    assert swapped.is_edge("x", "a")


def test_weights_file(i1):
    wts = load_weights(i1, "a x 3\nb y -1/2\n# comment\n")
    assert wts[("a", "x")] == 3
    assert str(wts[("b", "y")]) == "-1/2"
    with pytest.raises(ParseError, match="not an edge"):
        load_weights(i1, "a a 1\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_weights(i1, "a x 1\na x 2\n")
    with pytest.raises(ParseError, match="bad rational"):
        load_weights(i1, "a x 1/0\n")
    with pytest.raises(ParseError, match="bad rational"):
        load_weights(i1, "a x one\n")


def test_rational_tokens_are_ascii_digits_with_a_sign():
    inst = parse_instance(I1_TEXT)
    for token, want in [("7", 7), ("-1/2", Fraction(-1, 2)), ("+4/6", Fraction(2, 3)),
                        ("007", 7), ("-0", 0), ("3/+9", Fraction(1, 3))]:
        assert parse_edge_values(inst, f"b y 1\na x {token}\n")[("a", "x")] == want
    bad = ["1_0", "1_0/3", "3/1_0", "\u0663", "\uff12", "1/\u0663", "1.5", "1e3",
           "0x10", "--1", "+-1", "1/", "/2", "1//2", "1/2/3", "\u00b2"]
    for token in bad:
        with pytest.raises(ParseError) as err:
            parse_edge_values(inst, f"b y 1\n\na x {token}\n")
        assert str(err.value) == f"line 3: bad rational {token!r}", token
        assert err.value.line == 3
    for token in ("1/0", "2/-3", "-2/-0"):
        with pytest.raises(ParseError, match="denominator must be positive"):
            parse_edge_values(inst, f"a x {token}\n")


def test_rationals_past_the_digit_limit_name_it():
    # Fraction and str() of one would hit the interpreter's limit anyway
    inst = parse_instance(I1_TEXT)
    limit = sys.get_int_max_str_digits()
    assert parse_edge_values(inst, "a x " + "1" * limit + "\n")[("a", "x")] == int("1" * limit)
    long = "1" * 5000
    weights = f"b y 1\na x {long}\n"
    point = f"a x 1/2\nb y 1/2\na y 2/{long}\n"
    for text, line in ((weights, 2), (point, 3)):
        with pytest.raises(ParseError) as err:
            parse_edge_values(inst, text)
        assert err.value.line == line
        assert f"limit of {limit} digits" in str(err.value)
        assert len(str(err.value)) < 120  # the token is shortened, not echoed


def _values_outcome(parse, inst, text):
    """The parsed items in order, or the error's type, text and line."""
    try:
        values = parse(inst, text)
    except ParseError as exc:
        return ParseError, str(exc), exc.line
    assert all(type(v) is Fraction for v in values.values())
    return list(values.items())


_TOKENS = ["0", "1", "-1", "3", "+2", "1/2", "-3/4", "4/6", "007", "-0",
           "12345678901234567890/7", "1/3", "2/+5"]


def _values_text(rng, inst):
    """A valid edge-value file: a random subset of the edges in random order,
    tokens drawn from a small pool, with comments, blank lines and mixed
    whitespace."""
    edges = rng.sample(inst.edges, rng.randint(0, len(inst.edges)))
    gap = lambda: rng.choice([" ", "  ", "\t"])  # noqa: E731
    lines = []
    for m, w in edges:
        line = gap().join((m, w, rng.choice(_TOKENS)))
        if rng.random() < 0.2:
            line = rng.choice(["", " "]) + line + gap() + "# note 1/0 x"
        lines.append(line)
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "   ", "# comment", "\t# a b 1"]))
    return "\n".join(lines) + "\n"


def _values_mutant(rng, text, inst):
    """``text`` with one ASCII edit: a field dropped or added, a non-edge, a
    repeated line, a bad rational or a zero or negative denominator, a
    comment-only or blank line, or one character inserted or deleted."""
    lines = text.splitlines()
    body = [k for k, line in enumerate(lines) if line.split("#", 1)[0].strip()]
    kind = rng.randrange(8)
    if kind == 0 or not body:
        pos = rng.randrange(len(text) + 1)
        return text[:pos] + rng.choice("0123456789/+-_ #\tabxy\n") + text[pos:]
    k = rng.choice(body)
    fields = lines[k].split("#", 1)[0].split()
    if kind == 1:
        del fields[rng.randrange(3)]
    elif kind == 2:
        fields.insert(rng.randrange(4), rng.choice(["1", "x", "a"]))
    elif kind == 3:
        fields[rng.randrange(2)] = rng.choice(inst.men + inst.women + ("q",))
    elif kind == 4:
        lines.insert(rng.randrange(len(lines) + 1), lines[k])
        return "\n".join(lines) + "\n"
    elif kind == 5:
        fields[2] = rng.choice(["1/0", "-3/0", "1/-2", "2/-0", "1/", "/3", "--1", "1_0",
                                "1.5", "one", "1/2/3", "+", "-"])
    elif kind == 6:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "# only 1/0"]))
        return "\n".join(lines) + "\n"
    else:
        pos = rng.randrange(len(text))
        return text[:pos] + text[pos + 1:]
    lines[k] = " ".join(fields)
    return "\n".join(lines) + "\n"


def test_edge_values_match_per_line_reference():
    rng = random.Random(4109)
    outcomes = {"ok": 0, "error": 0}
    for _ in range(300):
        inst = random_instance(rng.randint(1, 5), rng.randint(1, 5), 0.7, 0.3, rng.randrange(10**6))
        text = _values_text(rng, inst)
        got = _values_outcome(parse_edge_values, inst, text)
        assert isinstance(got, list), text
        assert got == _values_outcome(reference_parse_edge_values, inst, text), text
        for _ in range(4):
            broken = _values_mutant(rng, text, inst)
            got = _values_outcome(parse_edge_values, inst, broken)
            assert got == _values_outcome(reference_parse_edge_values, inst, broken), broken
            outcomes["ok" if isinstance(got, list) else "error"] += 1
    # the mutations reach both outcomes
    assert outcomes["ok"] > 150 and outcomes["error"] > 600, outcomes


def test_index_tiers_leave_garbage_collector_tracking():
    # the build allocates O(m) small containers; the collector walks them no
    # longer once they hold nothing it tracks
    inst = parse_instance(serialize_instance(random_instance(30, 30, 0.5, 0.3, seed=4110)))
    gc.collect()
    tiers = [t for side in (inst._man_tiers, inst._woman_tiers) for ts in side for t in ts]
    assert len(tiers) > 400
    assert not any(map(gc.is_tracked, tiers))
    assert not any(map(gc.is_tracked, inst._man_rank + inst._woman_rank))


def _assert_one_object_per_value(inst):
    """Each one-member tier is one object per member, in ``prefs`` and in the
    index tiers alike, and each rank value one int per side.  Returns the
    number of one-member tiers."""
    singles = 0
    for names, side_tiers, side_ranks in (
        (inst.men, inst._man_tiers, inst._man_rank),
        (inst.women, inst._woman_tiers, inst._woman_rank),
    ):
        by_name, by_index, by_rank = {}, {}, {}
        for name, index_tiers, ranks in zip(names, side_tiers, side_ranks):
            assert len(inst.prefs[name]) == len(index_tiers)
            for tier, index_tier in zip(inst.prefs[name], index_tiers):
                if len(tier) == 1:
                    singles += 1
                    assert by_name.setdefault(tier[0], tier) is tier
                    assert by_index.setdefault(index_tier[0], index_tier) is index_tier
            for rank in ranks.values():
                assert by_rank.setdefault(rank, rank) is rank
    return singles


def test_one_member_tiers_are_shared(monkeypatch):
    # the women's lists run past 256, where ``int`` stops caching values
    plain = parse_instance(serialize_instance(random_instance(300, 3, 1.0, 0.0, seed=4301)))
    assert max(plain._woman_rank[0].values()) == 300
    text = serialize_instance(random_instance(30, 30, 0.6, 0.3, seed=4302))
    assert "(" in text
    built = random_instance(30, 30, 0.6, 0.3, seed=4303)
    reduced = reduce_for_edge(built, built.edges[7])
    for inst in (plain, parse_instance(text), built, reduced):
        assert _assert_one_object_per_value(inst) > 2 * len(inst.men + inst.women)
    # the parser itself hands ``Instance`` one tuple per name, on tied lines
    # as on plain ones, so it allocates no transient tuple per entry
    handed = []
    real = instance_module.Instance
    monkeypatch.setattr(
        instance_module, "Instance", lambda *args: handed.append(args[2]) or real(*args)
    )
    parse_instance(text)
    by_name, singles = {}, 0
    for agent, tiers in handed[0].items():
        tied_line = any(len(tier) > 1 for tier in tiers)
        for tier in tiers:
            if len(tier) == 1:
                singles += tied_line
                assert by_name.setdefault(tier[0], tier) is tier
    assert singles > len(handed[0])


def _retained_bytes_per_edge(text):
    """Bytes that ``parse_instance`` leaves allocated, per edge of the result."""
    gc.collect()
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained / len(inst.edges)


def test_instance_memory_ceiling():
    # a strict list holds a pointer per entry in each of ``prefs`` and the
    # index tiers; with the rank maps and the edge tuples that measured
    # 181 B/edge on Python 3.10-3.12, and a fresh one-member tuple per entry
    # in both cost 459-476
    strict = serialize_instance(random_instance(120, 120, 1.0, 0.0, seed=4300))
    assert _retained_bytes_per_edge(strict) <= 250
    # tie groups keep tuples of their own: 265-273 B/edge, 402-418 unshared
    tied = serialize_instance(random_instance(120, 120, 1.0, 0.3, seed=4300))
    assert _retained_bytes_per_edge(tied) <= 300


# -- the index-space build against the per-token reference --------------------


def _plain(value):
    """A slot value with every dict turned into its item list, so that
    comparing two values also compares the dicts' iteration order."""
    if isinstance(value, dict):
        return [(k, _plain(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    return value


def _outcome(build, *args):
    """Every slot of the built instance, or the error's type, text and place."""
    try:
        inst = build(*args)
    except (ValueError, TypeError) as exc:
        where = (exc.line, exc.column) if isinstance(exc, ParseError) else None
        return type(exc), str(exc), where
    return {slot: _plain(getattr(inst, slot)) for slot in Instance.__slots__}


def _valid_text(rng):
    """A seeded instance written with the format's optional freedoms: tie
    groups around single names, mixed whitespace, groups glued to their
    neighbours, comments, blank lines, empty and missing lines, any order."""
    inst = random_instance(
        rng.randint(1, 5),
        rng.randint(1, 5),
        rng.choice([0.0, 0.3, 0.7, 1.0]),
        rng.choice([0.0, 0.3, 0.8]),
        seed=rng.randrange(10**6),
    )
    gap = lambda: rng.choice([" ", "  ", "\t", " \t "])  # noqa: E731
    lines = ["# generated", f"men:{gap()}{gap().join(inst.men)}"]
    lines.append(f"{rng.choice(['', ' '])}women:{gap()}{gap().join(inst.women)}")
    agents = list(inst.men + inst.women)
    rng.shuffle(agents)
    for name in agents:
        tiers = inst.prefs[name]
        if not tiers and rng.random() < 0.5:
            continue
        entries = [
            tier[0] if len(tier) == 1 and rng.random() < 0.7
            else "(" + gap() * (rng.random() < 0.3) + gap().join(tier) + ")"
            for tier in tiers
        ]
        body = ""
        for k, entry in enumerate(entries):
            glue = "(" in entry or (k and "(" in entries[k - 1])
            body += ("" if glue and rng.random() < 0.5 else gap()) if k else ""
            body += entry
        label = name + rng.choice(["", " "])
        line = f"{label}:{gap() if body else ''}{body}"
        if rng.random() < 0.2:
            line += gap() + "# note ( ) !"
        lines.append(line)
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "   ", "# comment"]))
    return "\n".join(lines) + "\n", inst


def _malformed_text(rng, text, inst):
    """``text`` with one character deleted, inserted or swapped, or with a
    paren, a duplicate, an unknown name or a one-sided listing added."""
    lines = text.splitlines()
    pref = [k for k, line in enumerate(lines) if k > 2 and line and line[0] != "#"]
    kind = rng.randrange(8)
    pos = rng.randrange(len(text))
    if kind == 0:
        return text[:pos] + text[pos + 1:]
    if kind == 1:
        return text[:pos] + rng.choice("()ab_xm1#:! \t\n") + text[pos:]
    if kind == 2 and pos + 1 < len(text):
        return text[:pos] + text[pos + 1] + text[pos] + text[pos + 2:]
    if not pref:
        return text + rng.choice(["x: (", "(", ")", "m1 w1"]) + "\n"
    k = rng.choice(pref)
    if kind == 3:
        cut = rng.randrange(len(lines[k]) + 1)
        lines[k] = lines[k][:cut] + rng.choice("()") + lines[k][cut:]
    elif kind == 4:
        lines.insert(rng.randrange(3, len(lines) + 1), lines[k])
    elif kind == 5:
        lines[k] += rng.choice([" zz", " (zz q)", " m1", " w1"])
    elif kind == 6:
        # list a partner twice, or one who does not list back
        name = lines[k].split(":")[0].strip()
        others = inst.women if name in inst.men else inst.men
        lines[k] += " " + rng.choice(others)
    else:
        # drop one listed name, which leaves the partner's listing one-sided
        words = lines[k].split(" ")
        if len(words) > 1:
            del words[rng.randrange(1, len(words))]
        lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"


def test_parse_matches_per_token_reference():
    rng = random.Random(4107)
    outcomes = {"ok": 0, "error": 0}
    for _ in range(400):
        text, inst = _valid_text(rng)
        got = _outcome(parse_instance, text)
        assert got == _outcome(reference_parse_instance, text), text
        assert got == _outcome(lambda t: inst, text), text
        for _ in range(3):
            broken = _malformed_text(rng, text, inst)
            got = _outcome(parse_instance, broken)
            assert got == _outcome(reference_parse_instance, broken), broken
            outcomes["error" if isinstance(got, tuple) else "ok"] += 1
    # the mutations reach both outcomes, and errors with a column
    assert outcomes["ok"] > 100 and outcomes["error"] > 600


def test_constructor_matches_per_member_reference():
    rng = random.Random(4108)
    faults = [
        lambda tiers, other: tiers + [["q"]],  # unknown name
        lambda tiers, other: tiers + [[]],  # empty tier
        lambda tiers, other: tiers + [[rng.choice(other)]],  # duplicate or one-sided
        lambda tiers, other: [[]] + tiers + [["q"]],  # the earlier fault wins
        lambda tiers, other: tiers + [[["x"]]],  # unhashable member
        lambda tiers, other: tiers + [5],  # a tier that is not iterable
        lambda tiers, other: tiers + [["q"], 5],  # the unknown name comes first
        lambda tiers, other: [tier[::-1] for tier in tiers][::-1],  # still valid
    ]
    for _ in range(300):
        inst = random_instance(rng.randint(1, 5), rng.randint(1, 5), 0.7, 0.4, rng.randrange(10**6))
        prefs = {name: [list(tier) for tier in inst.prefs[name]] for name in inst.prefs}
        name = rng.choice(inst.men + inst.women)
        other = inst.women if name in inst.men else inst.men
        prefs[name] = rng.choice(faults)(prefs[name], other)
        want = _outcome(reference_instance, inst.men, inst.women, prefs)
        assert _outcome(Instance, inst.men, inst.women, prefs) == want
        # tiers given as one-shot iterators build the same instance or fail alike
        lazy = {
            k: iter([iter(t) if isinstance(t, list) else t for t in tiers])
            for k, tiers in prefs.items()
        }
        assert _outcome(Instance, inst.men, inst.women, lazy) == want
    lazy = {"a": iter([iter(["q"]), 5])}
    assert _outcome(Instance, ["a"], ["x"], lazy) == (
        ValueError, "'a' lists 'q', which is not on the opposite side", None
    )


@pytest.mark.parametrize(
    "line",
    [
        "(" + "x" * 20000,  # one unclosed tie group
        "(" + "x " * 10000,
        "x " * 20000 + "!",  # a 40,000-character line with a bad last character
        "(x y) " * 6667 + "!",
    ],
)
def test_rejected_long_lines_fail_in_linear_time(line):
    text = f"men: a\nwomen: x\na: {line}\n"
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ParseError) as want:
        reference_parse_instance(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        str(want.value), want.value.line, want.value.column
    )


def test_round_trip_at_scale():
    for seed in range(3):
        inst = random_instance(150, 150, 0.3, 0.4, seed=4200 + seed)
        again = parse_instance(serialize_instance(inst))
        assert again == inst and hash(again) == hash(inst)
        assert again.edges == inst.edges
        assert _outcome(lambda: again) == _outcome(lambda: inst)
    assert again != random_instance(150, 150, 0.3, 0.4, seed=4199)
