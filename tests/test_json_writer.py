"""Property test: ``sepsim.cli._dumps`` writes the bytes of
``json.dumps(x, indent=2, sort_keys=True) + "\\n"`` for generated documents.
Needs ``hypothesis`` (the ``test`` extra); skipped without it."""

import json
import math

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
# Lists of one kind take the writer's scalar-list paths; float lists with
# no repeated value its one-join path, and lists of float lists its table
# path (or, with an empty row, NaN or infinity, the item-by-item one).
_LEAVES = (_SCALARS | st.lists(_FLOATS) | st.lists(_FLOATS, unique=True)
           | st.lists(st.lists(_FLOATS)) | st.lists(st.integers() | st.booleans())
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


@pytest.mark.parametrize("doc", [
    [[0.0, -0.0], [-0.0], [0.0, 0.0, 1.5]],
    [[0.25, 0.5], []],
    [[0.25, math.nan], [1.0]],
    [[0.25], [math.inf, -math.inf]],
    [[0.25, 1], [0.5, 2.0]],
    [[0.25, True], [0.5]],
    [(0.25, 0.5), (0.75, 1.0)],
    ([0.25, 0.5], [0.75, 1.0]),
    [[0.25, 0.5], (0.75, 1.0)],
    {"b": [[0.1, 0.2, 0.7]] * 3, "a": {"rows": [[1e-5, 1e16], [5e-324, 0.0001]]}},
    [0.0, -0.0, 0.0, -0.0],
    [0.1, 0.2, 0.30000000000000004, -0.0],
    [0.1, 0.1, 0.2],
])
def test_float_tables_and_lists(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
