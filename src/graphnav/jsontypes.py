"""The JSON type rule for every file graphnav reads back: a value has the JSON
type of a template value, such as a config default, and a float table is what
`float_array` takes. And the one compact encoder that dataset records and
checkpoints are written with, and that `config_hash` hashes."""

import hashlib
import json
import sys

import numpy as np

# the text of json.dumps(value, sort_keys=True, separators=(",", ":")), without
# building an encoder per call
COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_NUMBERS = {int, float}


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(COMPACT.encode(cfg).encode()).hexdigest()


def has_type_of(value, template) -> bool:
    """An int passes for a float, a number must be finite, and a list must
    have the template's length."""
    if isinstance(template, list):
        return (isinstance(value, list) and len(value) == len(template)
                and all(map(has_type_of, value, template)))
    if isinstance(template, dict):
        first = next(iter(template.values()))
        return isinstance(value, dict) and all(has_type_of(v, first) for v in value.values())
    kinds = (int, float) if type(template) is float else (type(template),)
    return type(value) in kinds and (type(value) is str or abs(value) <= sys.float_info.max)


def float_array(value, shape: tuple, name: str) -> np.ndarray:
    """`value`, a float64 array or JSON lists nested `len(shape)` deep, as a
    finite float64 array of `shape` (None matches any length) whose leaves are
    ints or floats, not booleans; else a ValueError naming the table `name`."""
    if not isinstance(value, np.ndarray):
        rows = [value] if type(value) is list else []
        for _ in shape[1:]:  # down to the lists that hold the leaves
            rows = [item for row in rows for item in row if type(item) is list]
        odd = [leaf for row in rows if not set(map(type, row)) <= _NUMBERS
               for leaf in row if type(leaf) not in _NUMBERS]
        if odd:
            raise ValueError(f"{name} holds {odd[0]!r}, not a number")
        try:
            value = np.array(value, dtype=float)
        except (OverflowError, TypeError, ValueError) as exc:  # a huge int, ragged lists, an object
            raise ValueError(f"{name} is not a numeric array: {exc}") from None
    if value.ndim != len(shape) or any([n not in (None, m) for n, m in zip(shape, value.shape)]):
        raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"{name} holds a non-finite value")
    return value


def type_name(template) -> str:
    if isinstance(template, (list, dict)):
        return f"a list of {len(template)} numbers" if isinstance(template, list) else "an object of integers"
    return {bool: "true or false", str: "a string", int: "an integer", float: "a finite number"}[type(template)]


def require_types(doc, template: dict) -> None:
    """Raise a ValueError naming the first key of `template` whose value in
    the JSON object `doc` lacks its JSON type."""
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    for key, default in template.items():
        if not has_type_of(doc.get(key), default):
            raise ValueError(f"{key} must be {type_name(default)}, got {doc.get(key)!r}")
