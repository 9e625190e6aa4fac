"""`jsontypes.float_array`: the one checked conversion of a parsed JSON float
table, and the guard that keeps it the one."""

import ast
import inspect
import json
import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from graphnav import checkpoint, dataset
from graphnav.jsontypes import float_array
from graphnav.nn import Adam


def test_valid_tables_convert_to_the_bits_json_parses():
    table = json.loads("[[0.1, -2, 3e-300], [1e308, 0, -0.0]]")
    arr = float_array(table, (2, 3), "w")
    assert arr.dtype == np.float64 and arr.shape == (2, 3)
    assert arr.tobytes() == np.array(table, dtype=float).tobytes()
    assert float_array([1, 2.5], (None,), "b").tolist() == [1.0, 2.5]
    assert float_array([[1.0] * 12] * 5, (None, 12), "S").shape == (5, 12)


def test_a_float_array_passes_through_its_checks():
    arr = np.arange(6.0).reshape(2, 3)
    assert float_array(arr, (2, None), "w") is arr
    with pytest.raises(ValueError, match=r"^w has shape \(2, 3\), expected \(3, 2\)$"):
        float_array(arr, (3, 2), "w")
    arr[0, 1] = math.inf
    with pytest.raises(ValueError, match="^w holds a non-finite value$"):
        float_array(arr, (2, 3), "w")


REFUSED = {
    "true": ([[1.0, True]], "w holds True, not a number"),
    "numeric-string": ([[1.0, "0.5"]], "w holds '0.5', not a number"),
    "null": ([[None, 1.0]], "w holds None, not a number"),
    "list-leaf": ([[1.0, []]], "w holds [], not a number"),
    "object-leaf": ([[1.0, {}]], "w holds {}, not a number"),
    "huge-int": ([[10**400, 1.0]], "w is not a numeric array: int too large to convert to float"),
    "ragged": ([[1.0, 2.0], [3.0]], "w is not a numeric array: "),
    "row-not-a-list": ([[1.0, 2.0], 3.0], "w is not a numeric array: "),
    "too-shallow": ([1.0, 2.0], "w has shape (2,), expected (None, 2)"),
    "wrong-width": ([[1.0, 2.0, 3.0]], "w has shape (1, 3), expected (None, 2)"),
    "empty": ([], "w has shape (0,), expected (None, 2)"),
    "not-a-list": (None, "w has shape (), expected (None, 2)"),
    "object": ({"a": 1.0}, "w is not a numeric array: "),
    "nan": ([[float("nan"), 1.0]], "w holds a non-finite value"),
    "infinity": ([[1.0, float("-inf")]], "w holds a non-finite value"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_each_refusal_says_what_differs(case):
    value, words = REFUSED[case]
    with pytest.raises(ValueError) as exc:
        float_array(value, (None, 2), "w")
    assert str(exc.value).startswith(words)


def _float_conversions(source: str) -> list:
    """The numpy calls in `source` given float as their dtype."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            and any(isinstance(arg, ast.Name) and arg.id == "float"
                    for arg in [*node.args, *(kw.value for kw in node.keywords)])]


def test_float_array_is_the_one_conversion_of_parsed_json():
    """The checkpoint and dataset readers and `Adam.from_state_dict` convert
    parsed JSON through `float_array` alone."""
    readers = {
        "checkpoint.py": Path(checkpoint.__file__).read_text(),
        "dataset.py": Path(dataset.__file__).read_text(),
        "Adam.from_state_dict": textwrap.dedent(inspect.getsource(Adam.from_state_dict)),
    }
    for name, source in readers.items():
        assert _float_conversions(source) == [], name
        assert re.search(r"\bfloat_array\(", source), name
    assert _float_conversions("x = np.asarray(y,\n  dtype=float) + np.array(z, float)") == [
        "np.asarray(y, dtype=float)", "np.array(z, float)"]
