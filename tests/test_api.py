"""The package keeps no public function that its own code never uses, and
no setting without a reason to exist."""

import argparse
import ast
from dataclasses import fields
from pathlib import Path

import imbalidx
from imbalidx.cli import build_parser
from imbalidx.experiment import ExperimentConfig
from imbalidx.mlp import TrainConfig
from imbalidx.simulate import SimConfig

# Public functions and methods that no package code calls, each with why
# it stays.
UNCALLED_ON_PURPOSE = {
    "mlp.gradient_check": "the acceptance suite's gradient check runs it",
}


def test_every_public_function_is_referenced_by_the_package():
    # A function counts as used when package code names it anywhere other
    # than its own def: a call, an attribute, a callback or a default.
    defined, named = {}, set()
    for path in sorted(Path(imbalidx.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            scope = [(node, "")]
            if isinstance(node, ast.ClassDef):
                scope = [(n, node.name + ".") for n in node.body]
            for n, owner in scope:
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not n.name.startswith("_"):
                    defined[f"{path.stem}.{owner}{n.name}"] = n.name
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
    unused = {qual for qual, name in defined.items() if name not in named}
    assert unused == set(UNCALLED_ON_PURPOSE), (
        "public functions no package code uses; delete them, or allow one "
        f"with its reason: {sorted(unused - set(UNCALLED_ON_PURPOSE))}; "
        f"allowed but used or gone: {sorted(set(UNCALLED_ON_PURPOSE) - unused)}")


# Every setting a run can change, each config field and each option of each
# `imbalidx` command, with why it is one: the callers outside the tests that
# set it to two or more values, the file it names, the cell it picks, or
# what in perfbench/ pins it. The method and the flow definition are module
# constants, not settings.
PERFBENCH_PIN = "pinned by perfbench/"
SETTINGS = {
    "SimConfig.n_normal_flows": "experiment's pool_sim sizes it from the grid; "
                                "perfbench's capture sets 50,000",
    "SimConfig.n_attack_flows": "pool_sim sets n_attack; perfbench's capture sets 1,000",
    "TrainConfig.epochs": "20 in the default sweep, 200 in perfbench's train workload",
    "TrainConfig.batch_size": PERFBENCH_PIN + " spans.py counts a cell's steps from it",
    "ExperimentConfig.ratios": "five by default, two in README's quick.json and "
                               "in perfbench's train workload",
    "ExperimentConfig.smote_ratios": "three by default, one in README's quick.json "
                                     "and in perfbench's train workload",
    "ExperimentConfig.seeds": "(0, 1, 2) by default, (0,) in README's quick.json; "
                              "perfbench draws them from its bench seed",
    "ExperimentConfig.n_attack": "1,000 by default, 200 in README's quick.json, "
                                 "100 in perfbench's sweep",
    "ExperimentConfig.train": "the training budget; perfbench's train workload "
                              "sets its epochs",
    "ExperimentConfig.workdir": "output path",
    "simulate --config": "input path",
    "simulate --seed": "README simulates seed 7, perfbench's capture its bench seed",
    "simulate --out": "output path",
    "simulate --packets-csv": "output path; perfbench's capture writes it, "
                              "README's simulate does not",
    "extract --in": "input path",
    "extract --labels": "input path",
    "extract --out": "output path",
    "cell --config": "input path",
    "cell --ratio": "picks the cell: any of the grid's ratios",
    "cell --seed": "picks the cell: any seed below 2**64",
    "cell --smote": "picks the cell: plain or SMOTE",
    "experiment --config": "input path",
    "experiment --out": "output path",
}


def _settings():
    """Each config field as Class.field, and each option but --help as
    'command --option'."""
    names = [f"{cls.__name__}.{f.name}"
             for cls in (SimConfig, TrainConfig, ExperimentConfig) for f in fields(cls)]
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for command, parser in commands.choices.items():
        names += [f"{command} {max(a.option_strings, key=len)}" for a in parser._actions
                  if a.option_strings and not isinstance(a, argparse._HelpAction)]
    return names


def test_every_setting_has_a_reason():
    names = _settings()
    assert len(names) == len(set(names))
    assert set(names) == set(SETTINGS), (
        "settings without a reason; make them constants, or list one with "
        f"its reason: {sorted(set(names) - set(SETTINGS))}; "
        f"listed but gone: {sorted(set(SETTINGS) - set(names))}")
    perfbench = "".join(p.read_text() for p in
                        (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    for name, reason in SETTINGS.items():
        if reason.startswith(PERFBENCH_PIN):
            assert name.split(".")[-1] in perfbench, f"{name}: perfbench no longer names it"
