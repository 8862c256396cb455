"""The JSON configs that README.md shows load into the classes they
configure, so the README cannot list a key that the code refuses."""

import re
from pathlib import Path

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
