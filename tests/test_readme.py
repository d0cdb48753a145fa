"""The README against the package: the library quick start runs as written, and the CLI
section lists the flags of each subcommand and the config keys."""

import argparse
import re
from pathlib import Path

from stretched_gasket import cli

_README = (Path(__file__).parents[1] / "README.md").read_text()
_QUICK_START = re.search(r"^## Library quick start$(.*?)^## ", _README, re.M | re.S)[1]
_CLI_SECTION = re.search(r"^## CLI$(.*?)^## ", _README, re.M | re.S)[1]


def test_readme_quick_start_runs(capsys):
    # The blocks run in order in one namespace, as a reader would paste them.
    blocks = re.findall(r"^```python\n(.*?)^```$", _QUICK_START, re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    out = capsys.readouterr().out
    assert f"\n{namespace['kappa']((1, 2))}\n" in out
    assert out.endswith(f"\n{namespace['word_point'](namespace['seq'], (2, 1, 3))}\n")


def _flags(text: str) -> set[str]:
    """The flags that open a backticked span: `--depth N` gives --depth."""
    return set(re.findall(r"`(--[a-z][a-z-]*)", text))


def _parser_flags() -> dict[str, set[str]]:
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        for command, parser in sub.choices.items()
    }


def test_readme_lists_each_subcommands_flags():
    rows = re.findall(r"^\| `([a-z]+)` +\|([^|]*)\|", _CLI_SECTION, re.M)
    every = _flags(re.search(r"^Every subcommand also takes (.*?)\n\n", _CLI_SECTION, re.M | re.S)[1])
    documented = {command: every | _flags(cell) for command, cell in rows}
    assert len(rows) == len(documented)
    assert documented == _parser_flags()
    assert sum(map(len, documented.values())) == 77


def test_readme_names_the_declared_config_keys():
    sentence = re.search(r"The config\s+keys are (.*?)\.\s", _CLI_SECTION, re.S)[1]
    keys = re.findall(r"`([^`]+)`", sentence)
    assert len(keys) == len(set(keys)) == 12
    assert set(keys) == {opt.key for opt in cli._OPTIONS}
