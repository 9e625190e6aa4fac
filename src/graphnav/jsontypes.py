"""The JSON type rule for every file graphnav reads back: a value has the JSON
type of a template value, such as a config default or a dataset record's. And
the one compact encoder that dataset records and checkpoints are written with."""

import json
import sys

# the text of json.dumps(value, sort_keys=True, separators=(",", ":")), without
# building an encoder per call
COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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
