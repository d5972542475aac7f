"""JSON type tables, and the one codec between a config dataclass and its
JSON object. A table gives each key the decoded JSON types its value may
have, exactly (a true is not an int, a number may be an int or a float);
[types] is a list of such. A config's table is derived from its field
annotations, so a field added to a config is checked as soon as it exists."""

import functools
from dataclasses import fields
from typing import get_args, get_origin, get_type_hints

JSON_NUMBER = (int, float)


def _has_json_type(value, types) -> bool:
    if isinstance(types, list):
        if type(value) is not list:
            return False
        if isinstance(types[0], tuple):  # a list of scalars: one pass over the element types
            return set(map(type, value)) <= set(types[0])
        return all(_has_json_type(v, types[0]) for v in value)
    return type(value) in types


def check_json_types(what: str, raw, types: dict, error=ValueError) -> dict:
    """``raw`` if it is a JSON object whose keys all appear in the type
    table ``types``, each with a value of its JSON type; ``error`` otherwise."""
    if type(raw) is not dict:
        raise error(f"{what} must be a JSON object")
    unknown = set(raw) - types.keys()
    if unknown:
        raise error(f"{what}: unknown keys {sorted(unknown)}")
    wrong = sorted(k for k, v in raw.items() if not _has_json_type(v, types[k]))
    if wrong:
        raise error(f"{what}: values of the wrong JSON type for {wrong}")
    return raw


def _json_type(hint):
    """The table entry of an annotation: ``bool``, ``int`` and ``str`` map
    to themselves, ``float`` to JSON_NUMBER, and ``tuple[X, ...]`` or
    ``tuple[X, X]`` is a list of X. Any other annotation is a TypeError,
    never a guessed entry."""
    if hint in (bool, int, str):
        return (hint,)
    if hint is float:
        return JSON_NUMBER
    args = get_args(hint)
    if get_origin(hint) is tuple and args and (args[1:] == (...,) or len(set(args)) == 1):
        return [_json_type(args[0])]
    raise TypeError(f"no JSON type for the annotation {hint!r}")


@functools.cache
def json_types(cls, *skip: str) -> dict:
    """The type table of the dataclass ``cls``'s fields but ``skip``, built
    once and shared by every caller, which must not change it. The config
    modules do not postpone their annotations, so this reads annotation
    objects: a string annotation would be compiled here, at import, and in
    benchmark runs that churn made later paper-size checkpoint loads
    re-fault their word table far more often."""
    hints = get_type_hints(cls)
    return {f.name: _json_type(hints[f.name]) for f in fields(cls) if f.name not in skip}


def _nested(value, kind):
    return kind(_nested(v, kind) for v in value) if isinstance(value, (list, tuple)) else value


def to_json(config, *skip: str) -> dict:
    """The JSON object of a dataclass: its fields but ``skip``, tuples as lists."""
    return {k: _nested(getattr(config, k), list) for k in json_types(type(config), *skip)}


def from_json(cls, what: str, raw, error=ValueError, **given):
    """A ``cls`` from the JSON object ``raw``, checked against its table,
    lists made tuples; ``given`` sets the fields ``raw`` may not hold."""
    check_json_types(what, raw, json_types(cls, *given), error)
    given.update((k, _nested(v, tuple)) for k, v in raw.items())
    return cls(**given)
