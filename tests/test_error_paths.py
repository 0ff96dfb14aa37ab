"""Raise sites and CLI exit paths that the other modules' tests do not reach."""

import itertools

import pytest

from symdesign import cli
from symdesign.cli import main
from symdesign.design import develop
from symdesign.diffset import RegularAction
from symdesign.enumeration import make_row
from symdesign.geometry import build_affine_design
from symdesign.perm import Perm, PermGroup, parse_permutation, rank_and_subdegrees

C3 = PermGroup([Perm((1, 2, 0))], 3)
# order 4 on 4 points, with orbits {0, 1} and {2, 3}
KLEIN_INTRANSITIVE = PermGroup([Perm((1, 0, 2, 3)), Perm((0, 1, 3, 2))], 4)
# the row 2-(3,2,1) inside 2-(5,4,3): lambda = 4 mu / 3, theta = 4 mu / 3
ROW_MOD_3 = make_row(3, 2, 1, 5, 4, 3)


@pytest.mark.parametrize("call,message", [
    (lambda: Perm((0, 0)), "not a permutation"),
    (lambda: parse_permutation("1,2", 3), "wrapped in parentheses"),
    (lambda: C3.point_stabilizer(5), "out of range"),
    (lambda: rank_and_subdegrees(KLEIN_INTRANSITIVE), "transitive"),
    (lambda: develop(C3, []), "base block is empty"),
    (lambda: make_row(4, 2, 1, 4, 3, 1), "non-integral r1"),
    (lambda: make_row(4, 2, 1, 5, 3, 1), "non-integral b1"),
    (lambda: ROW_MOD_3.lambda_at(1), "condition mod 3"),
    (lambda: ROW_MOD_3.r_at(1), "condition mod 3"),
    (lambda: ROW_MOD_3.theta_at(1), "condition mod 3"),
    (lambda: build_affine_design(2, 3, 0), "block_dim"),
    (lambda: build_affine_design(2, 3, 2), "block_dim"),
    (lambda: RegularAction(KLEIN_INTRANSITIVE), "is not regular"),
])
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_a_failing_handler_is_an_internal_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "enumerate", broken)
    assert main(["enumerate"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_transitive_group_without_regular_subgroup_exits_1(tmp_path, capsys):
    """A4 on the six 2-subsets of {0..3} is transitive of order 12."""
    pairs = list(itertools.combinations(range(4), 2))

    def on_pairs(img):
        cycle = [tuple(sorted((img[a], img[b]))) for a, b in pairs]
        return Perm(tuple(pairs.index(p) for p in cycle))

    gens = [on_pairs((1, 2, 0, 3)), on_pairs((1, 0, 3, 2))]
    group = PermGroup(gens, 6)
    assert group.is_transitive() and group.order() == 12
    text = "degree 6\n" + "".join(g.cycle_string() + "\n" for g in gens)
    assert main(["diffset", "regular", write(tmp_path, "a4.txt", text)]) == 1
    assert capsys.readouterr().out == "no regular subgroup\n"


def test_check_lists_eight_deviants_then_the_rest(tmp_path, capsys):
    group = write(tmp_path, "c16.txt",
                  "degree 16\n(%s)\n" % ",".join(map(str, range(1, 17))))
    assert main(["diffset", "check", group, "1", "--lambda", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10 and lines[-1] == "  ... and 7 more"


def test_non_integer_subset_is_usage_error(tmp_path, capsys):
    group = write(tmp_path, "c7.txt", "degree 7\n(1,2,3,4,5,6,7)\n")
    assert main(["diffset", "check", group, "1,x", "--lambda", "1"]) == 2
    assert "subset must be a list of integers" in capsys.readouterr().err
