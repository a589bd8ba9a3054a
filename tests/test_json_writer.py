"""Property test: ``sepsim.cli._dumps`` writes the bytes of
``json.dumps(x, indent=2, sort_keys=True) + "\\n"`` for generated documents.
Needs ``hypothesis`` (the ``test`` extra); skipped without it."""

import json

import pytest

from sepsim.cli import _dumps

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Floats on both sides of repr's switch to exponent form (1e16, 1e-5), the
# subnormals and both zeros, among everything st.floats() draws.
_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9999999999999998.0, 1e16, 1.5e16,
     0.0001, 1e-5, 1.5e-5, 1e22, 1e23])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-(2**200), -(2**63))
            | st.integers(2**63, 2**200) | _FLOATS | st.text())
# Lists of one kind take the writer's scalar-list paths.
_LEAVES = (_SCALARS | st.lists(_FLOATS) | st.lists(st.integers() | st.booleans())
           | st.lists(st.text()) | st.lists(_SCALARS))
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=24,
)


@hypothesis.settings(deadline=None)
@hypothesis.given(_DOCUMENTS)
def test_writer_is_stdlib_indent_two_sorted(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
