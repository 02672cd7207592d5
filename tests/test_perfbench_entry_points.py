"""The repo benchmark's patch points must exist where it patches them.

``perfbench/layers.py`` times each layer by replacing a name in the
namespace its caller reads it from: a method in the body of the class
that defines it, or a module global such as
``repro.core.explainer.select_top_k``.  A refactor that moves one of
those names (inherits the method instead, imports the function under
another name, calls it through another module) breaks only the traced
benchmark run.  This test fails in the tier-1 suite instead.
"""

import pytest

from perfbench.layers import ENTRY_POINTS, _resolve


@pytest.mark.parametrize(
    "module_name, path, span",
    ENTRY_POINTS,
    ids=[f"{module}:{path}" for module, path, _ in ENTRY_POINTS],
)
def test_entry_point_defined_where_patched(module_name, path, span):
    owner, attr = _resolve(module_name, path)
    assert attr in owner.__dict__, (
        f"{module_name}:{path} ({span}) is not defined in {owner!r}'s own namespace"
    )
    assert callable(owner.__dict__[attr])
