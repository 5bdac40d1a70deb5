"""Static checks of the package source: no code without a caller in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dereverb"

# module-level definitions that nothing in the package calls, kept because a
# test pins them as a contract
CALLED_ONLY_BY_TESTS = {
    "signal.apply_mask": "criterion 2 checks the masking rule against its oracle",
    "model.enhance_with_identity_mask": "criterion 6 checks the STFT round trip through it",
}


def _names_used(node):
    """Every name ``node`` reads, imports or reaches as an attribute."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name)
    return used


def _uncalled():
    """``module.name`` of each module-level function or class that no other
    statement of ``src/dereverb`` refers to."""
    # the names each top-level statement of each module uses, by (module, index)
    uses, defs = {}, []
    for path in sorted(SRC.glob("*.py")):
        for i, node in enumerate(ast.parse(path.read_text(), str(path)).body):
            uses[(path.stem, i)] = _names_used(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(((path.stem, i), node.name))
    return [
        f"{key[0]}.{name}"
        for key, name in defs
        if not any(name in used for other, used in uses.items() if other != key)
    ]


def test_every_definition_has_a_caller_in_the_package():
    uncalled = [name for name in _uncalled() if name not in CALLED_ONLY_BY_TESTS]
    assert not uncalled, f"defined in src/dereverb but used nowhere in it: {uncalled}"


@pytest.mark.parametrize("name", sorted(CALLED_ONLY_BY_TESTS))
def test_allowlist_names_uncalled_definitions(name):
    # an entry whose definition gained a caller, or went, is dropped
    assert name in _uncalled()
