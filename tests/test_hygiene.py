"""Static checks of the package source: no code without a caller in the package."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dereverb"

# definitions that nothing in the package names, kept because a caller outside
# the package uses them
CALLED_FROM_OUTSIDE = {
    "model.ModelConfig.paper_scale": "perfbench's paper-b1 workload and the README's "
    "configuration section build the paper-scale config with it",
}


def _names_used(node):
    """How often ``node`` reads, imports or reaches each name as an attribute."""
    used = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.alias):
            used[n.name] += 1
    return used


def _definitions(module, tree):
    """(``module.name``, node) of each module-level function and class, and
    (``module.Class.name``, node) of each non-dunder method or property of a
    module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item


# method names that two or more classes of the package define: the caller scan
# matches a name, not its class, so a call of one sharer counts for them all
SHARED_METHOD_NAMES = {
    "parameters": [
        "attention.Sdab", "attention.TFAttentionBlock", "attention._ProjectedSA",
        "layers.ComplexBatchNorm", "layers.ComplexGruCell", "model.DccrnModel",
        "model._UNetBlock",
    ],
    "buffers": ["layers.ComplexBatchNorm", "model.DccrnModel", "model._UNetBlock"],
    "branch": ["attention.Sdab", "attention._ProjectedSA"],
    "_attend": ["attention.ComplexTFSA", "attention.ConventionalSA"],
    "validate": ["datasynth.SynthConfig", "model.ModelConfig"],
}


def _uncalled():
    """Each definition of ``src/dereverb`` whose name the package names
    nowhere outside the definition itself."""
    used, defs = Counter(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used += _names_used(tree)
        defs += _definitions(path.stem, tree)
    return [name for name, node in defs if used[node.name] == _names_used(node)[node.name]]


def test_every_definition_has_a_caller_in_the_package():
    uncalled = [name for name in _uncalled() if name not in CALLED_FROM_OUTSIDE]
    assert not uncalled, f"defined in src/dereverb but used nowhere in it: {uncalled}"


@pytest.mark.parametrize("name", sorted(CALLED_FROM_OUTSIDE))
def test_allowlist_names_uncalled_definitions(name):
    # an entry whose definition gained a caller in the package, or went, is dropped
    assert name in _uncalled()


def test_shared_method_names_are_pinned():
    classes = {}
    for path in sorted(SRC.glob("*.py")):
        for name, _ in _definitions(path.stem, ast.parse(path.read_text(), str(path))):
            module, *owner, method = name.split(".")
            if owner:
                classes.setdefault(method, []).append(f"{module}.{owner[0]}")
    shared = {name: sorted(owners) for name, owners in classes.items() if len(owners) > 1}
    assert shared == SHARED_METHOD_NAMES, (
        "the method names that classes share changed; the caller scan cannot tell "
        "their classes apart, so check by hand that each new sharer has a caller "
        "in the package, then update SHARED_METHOD_NAMES"
    )
