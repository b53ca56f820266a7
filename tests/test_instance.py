import pytest

from superstable import (
    Instance,
    ParseError,
    load_weights,
    parse_instance,
    random_instance,
    serialize_instance,
)
from conftest import I1_TEXT, I2_TEXT, NON_MUTUAL_TEXT, swap_sides


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
