"""The CLI's usage contract: every command's help, counts that must be
positive, and the fleet path of ``repro serve`` run to its end."""

import argparse
import re

import pytest

from repro.cli import build_parser, main


def _commands(parser, prefix=()):
    """Every command path ``build_parser()`` knows, nested ones too."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield prefix + (name,)
                yield from _commands(child, prefix + (name,))


@pytest.mark.parametrize("command", sorted(_commands(build_parser())),
                         ids=" ".join)
def test_every_command_has_help(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(
        f"usage: repro {' '.join(command)}")


@pytest.mark.timeout(60)
@pytest.mark.parametrize("argv", [
    ["run", "2dconv", "--size", "0"],
    ["serve", "--size", "0"],
    ["check", "dwt53", "--no-serve", "--size", "0"],
    ["serve", "--requests", "0"],
    ["serve", "--slots", "0"],
    ["serve", "--workers", "0"],
    ["serve-front", "--workers", "0"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_a_count_below_one_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be an integer >= 1" in err


def test_a_malformed_endpoint_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["serve", "--endpoints", "127.0.0.1:1,nohost"])
    assert exit_.value.code == 2
    assert "argument --endpoints: endpoint must be host:port" \
        in capsys.readouterr().err


@pytest.mark.serve
@pytest.mark.timeout(120)
def test_serve_through_a_forked_fleet_answers_every_request(capsys):
    assert main(["serve", "--workers", "2", "--size", "16",
                 "--requests", "6"]) == 0
    out = capsys.readouterr().out
    states = [line.split()[2] for line in out.splitlines()
              if re.match(r"r\d+ ", line)]
    assert len(states) == 6, out
    assert "failed" not in states, out
    assert re.search(r"served \d/6 \(shed \d, failed 0\)", out), out
