"""The package keeps no public function that its own code never uses."""

import ast
from pathlib import Path

import imbalidx

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
