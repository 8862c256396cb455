"""The JSON configs that README.md shows load into the classes they
configure, and its shell commands parse, so the README cannot list a key
or a command that the code refuses."""

import re
import shlex
from pathlib import Path

import pytest

from imbalidx.cli import build_parser
from imbalidx.experiment import ExperimentConfig
from imbalidx.simulate import SimConfig
from imbalidx.textio import config_from_json

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _heredoc(name):
    found = re.search(rf"cat > {re.escape(name)} <<'EOF'\n(.*?)\nEOF\n", README, re.S)
    assert found, f"README.md shows no {name}"
    return found.group(1)


def test_the_readme_cli_configs_load():
    config_from_json(SimConfig, _heredoc("sim.json"))
    config_from_json(ExperimentConfig, _heredoc("quick.json"))


def test_the_readme_experiment_config_is_the_default():
    section = README[README.index("### Experiment config"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert config_from_json(ExperimentConfig, block) == ExperimentConfig()


def _shell_commands():
    """The argv of every `imbalidx` line in README's shell blocks, with
    backslash continuations joined."""
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("imbalidx "):
                yield shlex.split(line)[1:]


def test_the_readme_names_only_real_commands():
    # Parsing checks commands and flags, not that any file exists.
    commands = list(_shell_commands())
    assert {argv[0] for argv in commands} == {"simulate", "extract", "cell", "experiment"}
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: imbalidx {shlex.join(argv)}")
