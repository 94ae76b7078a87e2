"""Exit codes, output formats, and determinism of the command line."""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from artifact import branching, cli, verify
from artifact.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_USAGE,
    UsageError,
    format_tableau,
    main,
    parse_tableau,
)
from artifact.promotion import pr
from artifact.tableaux import count_ssyt


def test_parse_tableau_roundtrip():
    T = [[1, 2], [2, 3], [4]]
    assert parse_tableau("1,2;2,3;4") == T
    assert format_tableau(T) == "1,2;2,3;4"
    assert parse_tableau("") == []
    assert format_tableau([]) == ""


def test_parse_tableau_rejects_garbage():
    with pytest.raises(UsageError):
        parse_tableau("1,x")
    with pytest.raises(UsageError):
        parse_tableau("2,1")          # row decreases
    with pytest.raises(UsageError):
        parse_tableau("1,2;1")        # column not strict


def test_branch_table_golden(capsys):
    assert main(["branch", "--n", "2", "--lambda", "1,1"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "lambda\tmu\tmult\tg_dominant\tk_highest\tk_lowest\trecording\tstatus",
        "1,1\t0\t1\t1\t1\t1\t1\tok",
        "1,1\t1,1\t1\t1\t1\t1\t1\tok",
    ]


def test_branch_json(capsys):
    assert main(["branch", "--n", "2", "--lambda", "2,2", "--json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["dimension_ok"] is True
    assert payload["sst_total"] == 20
    got = {tuple(row["mu"]): row["oracle"] for row in payload["rows"]}
    assert got == {(): 1, (1, 1): 1, (2, 2): 1}


def test_branch_takes_a_shape_of_any_width(capsys, time_bound):
    """The walk over the columns and the dominant search keep their paths on
    stacks, so a one-row shape of 3000 boxes (3001 tableaux) nests no frames."""
    time_bound(30)
    assert main(["branch", "--n", "1", "--lambda", "3000", "--json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["sst_total"] == 3001
    assert payload["passed"] is True


def test_branch_takes_a_shape_of_any_height(capsys, time_bound):
    """The oracle grows the mu inside 1^60 part by part and counts LR
    fillings by a transfer over rows, so a one-column shape of 60 boxes
    (one tableau) nests no frame per letter."""
    time_bound(30)
    assert main(["branch", "--n", "30", "--lambda", ",".join(["1"] * 60), "--json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["sst_total"] == 1
    assert payload["passed"] is True


def test_branch_rejects_long_shape(capsys):
    assert main(["branch", "--n", "2", "--lambda", "1,1,1,1,1"]) == EXIT_USAGE


def test_verify_small_sweep(capsys):
    assert main(["verify", "--n", "2", "--max-size", "2"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "dimension identity\tok" in out
    assert "0 failures" in out


def test_verify_budget(capsys):
    assert main(["verify", "--n", "2", "--max-size", "3", "--budget", "1"]) == EXIT_BUDGET


def test_verify_rejects_non_positive_bounds(capsys):
    for extra in (["--max-size", "-3"], ["--max-size", "0"], ["--max-size", "2", "--budget", "0"],
                  ["--max-size", "2", "--budget", "-1"]):
        assert main(["verify", "--n", "2"] + extra) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_branch_budget(capsys, monkeypatch, time_bound):
    time_bound(10)
    assert main(["branch", "--n", "2", "--lambda", "2,2", "--budget", "20"]) == EXIT_PASS
    assert "2,2\t2,2\t1\t1\t1\t1\t1\tok" in capsys.readouterr().out
    assert main(["branch", "--n", "2", "--lambda", "2,2", "--budget", "19"]) == EXIT_BUDGET
    assert capsys.readouterr().out == ""

    def no_enumeration(*args):
        raise AssertionError("enumerated a shape over its budget")

    # Counted by the hook-content formula before any tableau is enumerated.
    assert count_ssyt((8, 4, 2), 8) == 7_567_560
    for walk in ("dominant_columns", "staircase_search", "count_columns"):
        monkeypatch.setattr(verify, walk, no_enumeration)
    assert main(["branch", "--n", "4", "--lambda", "8,4,2", "--budget", "1000000"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tableau budget 1000000 exceeded at shape 8,4,2\n"
    for budget in ("0", "-1"):
        assert main(["branch", "--n", "2", "--lambda", "2,2", "--budget", budget]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --budget must be positive\n"


def test_verify_json(capsys):
    assert main(["verify", "--n", "2", "--max-size", "2", "--json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["bijection_failures"] == []
    assert payload["promotion_failures"] == []


def test_show_text(capsys):
    assert main(["show", "--n", "2", "--tableau", "1,2;2,3;4"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "P:" in out
    assert "step 1: box (2,1)" in out
    assert "k_highest: True" in out
    assert "wt_k: (1, 0)" in out


def test_show_json(capsys):
    assert main(["show", "--n", "2", "--tableau", "1,2;2,3;4", "--json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["P"] == [[2]]
    assert payload["k_highest"] is True
    assert payload["k_lowest"] is False
    assert {tuple(q["box"]): q["step"] for q in payload["Q"]} == {
        (2, 1): 1,
        (2, 2): 1,
        (1, 2): 2,
        (1, 3): 2,
    }


# Byte-exact `artifact show` stdout: a highest and a lowest tableau at
# n = 2, and two tableaux at n = 3 that are neither.
SHOW_GOLDENS = {
    (2, '1,2;2,3;4', False): (
        'tableau:\n'
        '1 2\n'
        '2 3\n'
        '4\n'
        'P:\n'
        '2\n'
        'Q:\n'
        'step 1: box (2,1)\n'
        'step 1: box (2,2)\n'
        'step 2: box (1,2)\n'
        'step 2: box (1,3)\n'
        'k_highest: True\n'
        'k_lowest: False\n'
        'wt_ghat: (0, 1)\n'
        'wt_k: (1, 0)\n'
        'inverse column word: 2 3 1 2 4\n'
        'ghat_dominant: False (first failing prefix index 1)\n'
        'string data:\n'
        'i=1: eps=1 phi=0\n'
        'i=2: eps=0 phi=1\n'
        'i=3: eps=0 phi=0\n'
    ),
    (2, '1,2;2,3;4', True): (
        '{"P": [[2]], "Q": [{"box": [2, 1], "step": 1}, {"box": [2, 2], "step": 1}, {"box": [1, 2], "step": 2}, {"box": [1, 3], "step": 2}], "ghat_dominant": false, "k_highest": true, "k_lowest": false, "tableau": [[1, 2], [2, 3], [4]], "wt_ghat": [0, 1], "wt_k": [1, 0]}\n'
    ),
    (2, '1;2', False): (
        'tableau:\n'
        '1\n'
        '2\n'
        'P:\n'
        '(empty)\n'
        'Q:\n'
        'step 1: box (1,1)\n'
        'step 1: box (1,2)\n'
        'k_highest: True\n'
        'k_lowest: True\n'
        'wt_ghat: (1, 1)\n'
        'wt_k: (0, 0)\n'
        'inverse column word: 1 2\n'
        'ghat_dominant: True\n'
        'string data:\n'
        'i=1: eps=0 phi=0\n'
        'i=2: eps=0 phi=1\n'
        'i=3: eps=0 phi=0\n'
    ),
    (2, '1;2', True): (
        '{"P": [], "Q": [{"box": [1, 1], "step": 1}, {"box": [1, 2], "step": 1}], "ghat_dominant": true, "k_highest": true, "k_lowest": true, "tableau": [[1], [2]], "wt_ghat": [1, 1], "wt_k": [0, 0]}\n'
    ),
    (3, '1,1;2,6;5', False): (
        'tableau:\n'
        '1 1\n'
        '2 6\n'
        '5\n'
        'P:\n'
        '1 6\n'
        '5\n'
        'Q:\n'
        'step 1: box (2,2)\n'
        'step 1: box (1,3)\n'
        'k_highest: False\n'
        'k_lowest: False\n'
        'wt_ghat: (1, 0, 0)\n'
        'wt_k: (-1, 0, 0)\n'
        'inverse column word: 1 6 1 2 5\n'
        'ghat_dominant: True\n'
        'string data:\n'
        'i=1: eps=0 phi=1\n'
        'i=2: eps=0 phi=1\n'
        'i=3: eps=0 phi=0\n'
        'i=4: eps=1 phi=0\n'
        'i=5: eps=1 phi=1\n'
    ),
    (3, '1,1;2,6;5', True): (
        '{"P": [[1, 6], [5]], "Q": [{"box": [2, 2], "step": 1}, {"box": [1, 3], "step": 1}], "ghat_dominant": true, "k_highest": false, "k_lowest": false, "tableau": [[1, 1], [2, 6], [5]], "wt_ghat": [1, 0, 0], "wt_k": [-1, 0, 0]}\n'
    ),
    (3, '1,2,3;2,4;4;6', False): (
        'tableau:\n'
        '1 2 3\n'
        '2 4\n'
        '4\n'
        '6\n'
        'P:\n'
        '2 3\n'
        '4 4\n'
        '6\n'
        'Q:\n'
        'step 1: box (3,1)\n'
        'step 1: box (1,4)\n'
        'k_highest: False\n'
        'k_lowest: False\n'
        'wt_ghat: (0, 2, -1)\n'
        'wt_k: (1, -1, 1)\n'
        'inverse column word: 3 2 4 1 2 4 6\n'
        'ghat_dominant: False (first failing prefix index 1)\n'
        'string data:\n'
        'i=1: eps=1 phi=0\n'
        'i=2: eps=1 phi=2\n'
        'i=3: eps=1 phi=0\n'
        'i=4: eps=0 phi=2\n'
        'i=5: eps=1 phi=0\n'
    ),
    (3, '1,2,3;2,4;4;6', True): (
        '{"P": [[2, 3], [4, 4], [6]], "Q": [{"box": [3, 1], "step": 1}, {"box": [1, 4], "step": 1}], "ghat_dominant": false, "k_highest": false, "k_lowest": false, "tableau": [[1, 2, 3], [2, 4], [4], [6]], "wt_ghat": [0, 2, -1], "wt_k": [1, -1, 1]}\n'
    ),
}


@pytest.mark.parametrize("n, tableau, as_json", sorted(SHOW_GOLDENS))
def test_show_golden(capsys, n, tableau, as_json):
    argv = ["show", "--n", str(n), "--tableau", tableau] + (["--json"] if as_json else [])
    assert main(argv) == EXIT_PASS
    assert capsys.readouterr().out == "".join(SHOW_GOLDENS[n, tableau, as_json])


def test_show_runs_the_suc_chain_once(capsys, monkeypatch):
    """P, Q and both staircase flags come from one chain, wherever a module
    binds _suc_chain."""
    calls = []

    def counted(cols):
        calls.append(cols)
        return chain(cols)

    chain = branching._suc_chain
    for module in (branching, cli):
        monkeypatch.setattr(module, "_suc_chain", counted)
    assert main(["show", "--n", "2", "--tableau", "1,2;2,3;4"]) == EXIT_PASS
    assert len(calls) == 1


def test_show_rejects_large_entries(capsys):
    assert main(["show", "--n", "2", "--tableau", "1,5"]) == EXIT_USAGE


def test_bijection_factors(capsys):
    assert main(["bijection", "--n", "3", "--json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["phi_factors"] == [[3, 4], [3, 5], [1, 6]]
    assert payload["psi_factors"] == [[2, 5], [2, 6]]


def test_bijection_trace(capsys):
    assert main(["bijection", "--n", "3", "--tableau", "1,1;2,6;5", "--json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    steps = payload["trace"]["phi"]
    assert steps[-1]["result"] == [[1, 2], [2, 3], [4]]
    # Each step is pr of the step before it, on that step's window.
    for name in ("phi", "psi"):
        steps = payload["trace"][name]
        assert [step["window"] for step in steps] == payload[f"{name}_factors"]
        previous = [[1, 1], [2, 6], [5]]
        for step in steps:
            assert step["result"] == pr(previous, *step["window"]), (name, step)
            previous = step["result"]


def test_the_table_header_is_pinned():
    assert cli.TABLE_HEADER == (
        "lambda\tmu\tmult\tg_dominant\tk_highest\tk_lowest\trecording\tstatus"
    )


def test_the_option_surface_is_pinned():
    """Each subcommand's options with their dest, required flag, default and
    type, in sorted order: sharing declarations between subcommands must not
    drop, add or re-default one."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: sorted(
            (a.option_strings, a.dest, a.required, a.default, getattr(a.type, "__name__", None))
            for a in command._actions
        )
        for name, command in sub.choices.items()
    }
    n = (["--n"], "n", True, None, "int")
    json_flag = (["--json"], "json", False, False, None)
    budget = (["--budget"], "budget", False, None, "int")
    help_flag = (["-h", "--help"], "help", False, argparse.SUPPRESS, None)
    assert surface == {
        "branch": [budget, json_flag, (["--lambda"], "lam", True, None, None), n, help_flag],
        "verify": [
            budget,
            json_flag,
            (["--max-size"], "max_size", True, None, "int"),
            n,
            (["--seed"], "seed", False, 0, "int"),
            help_flag,
        ],
        "show": [json_flag, n, (["--tableau"], "tableau", True, None, None), help_flag],
        "bijection": [json_flag, n, (["--tableau"], "tableau", False, None, None), help_flag],
    }
    assert {name: command.get_default("func") for name, command in sub.choices.items()} == {
        "branch": cli.cmd_branch,
        "verify": cli.cmd_verify,
        "show": cli.cmd_show,
        "bijection": cli.cmd_bijection,
    }


def test_usage_errors(capsys):
    assert main(["branch", "--n", "2", "--lambda", "2,x"]) == EXIT_USAGE
    assert main(["branch", "--n", "2", "--lambda", "1,2"]) == EXIT_USAGE
    assert main(["branch", "--n", "0", "--lambda", "1"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_internal_errors_have_their_own_exit_code(capsys, monkeypatch, error):
    def broken_sweep(*args, **kwargs):
        raise error("invariant broke")

    monkeypatch.setattr(cli, "verify_sweep", broken_sweep)
    assert main(["verify", "--n", "2", "--max-size", "2"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: invariant broke\nargv: verify --n 2 --max-size 2\n"


def test_show_reports_a_suc_chain_without_fixed_point(capsys, monkeypatch, time_bound):
    time_bound(10)
    monkeypatch.setattr(branching, "_reduced", lambda col: col + (col[-1] + 1,))
    assert main(["show", "--n", "2", "--tableau", "1,2;3"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: suc did not stabilize within the size budget\n"
        "argv: show --n 2 --tableau '1,2;3'\n"
    )


def test_branch_reports_a_suc_chain_without_fixed_point(capsys, monkeypatch, time_bound):
    time_bound(10)
    monkeypatch.setattr(branching, "_reinserted", lambda col: col + (col[-1] + 1,))
    assert main(["branch", "--n", "2", "--lambda", "2,1"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: suc did not stabilize within the size budget\n"
        "argv: branch --n 2 --lambda 2,1\n"
    )


def test_output_is_deterministic(capsys):
    main(["branch", "--n", "2", "--lambda", "2,1", "--json"])
    first = capsys.readouterr().out
    main(["branch", "--n", "2", "--lambda", "2,1", "--json"])
    second = capsys.readouterr().out
    assert first == second


# Tiny sizes only (n <= 2, sizes <= 3), so that no fuzzed line is slow.
@pytest.mark.parametrize("command", ["verify", "bijection"])
def test_promotion_commands_reject_n_above_127(capsys, command):
    """verify and bijection run promotion on the letters 1 to 2n <= 254;
    show, which runs none, keeps every positive n."""
    extra = ["--max-size", "1"] if command == "verify" else []
    assert main([command, "--n", "128", *extra]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be at most 127: promotion runs on the letters 1 to 254\n"
    assert main(["bijection", "--n", "127", "--json"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["n"] == 127
    assert main(["show", "--n", "128", "--tableau", "1,2;3", "--json"]) == EXIT_PASS


_NS = ["2", "1", "0"]
_OPTIONS = {
    "verify": ("--max-size", ["3", "2", "1", "0"]),
    "branch": ("--lambda", ["1", "2,1", "1,1,1", "3", "", "1,2", "a"]),
    "show": ("--tableau", ["1,2;3", "4", "", "2,1", "1;1", "5", "x"]),
}
_JUNK = ["--bogus", "-", "--", "", "x", "1,x", ";", "1;;2", "--json", "-h", "verify",
         "--n", "--max-size", "--lambda", "--tableau", "--budget", "--seed", "-1", "0", "2"]


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    option, values = _OPTIONS[command]
    tokens = ["--n", draw(st.sampled_from(_NS)), option, draw(st.sampled_from(values))]
    if command != "show" and draw(st.booleans()):
        tokens += ["--budget", draw(st.sampled_from(["50", "1", "0", "-1"]))]
    if draw(st.booleans()):
        tokens.append("--json")
    if draw(st.booleans()):
        tokens += draw(st.lists(st.sampled_from(_JUNK), min_size=1, max_size=3))
        if draw(st.booleans()):
            tokens = draw(st.permutations(tokens))
    return [command, *tokens]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_fuzzed_command_lines_exit_cleanly_and_deterministically(time_bound):
    time_bound(10)

    @settings(max_examples=60, deadline=None)
    @given(argv=_command_lines())
    def check(argv):
        code, out, err = _run(argv)
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET, EXIT_INTERNAL), argv
        assert "Traceback" not in err, argv
        assert _run(argv) == (code, out, err), argv

    check()
