"""The one reader of JSON object descriptors.

Every object of a config is a descriptor: its top level and budgets, the
problem, each spectrum, weight and smoothness family, and each bound
request.  A kinded descriptor names its kind in one field ("kind", or
"name" for a bound request), and the kind fixes its other fields.  The
reader rejects a non-object, an unknown kind, unknown or missing fields
and any value not of its field's type; a number must be a finite JSON
number, not a boolean or a numeric string.  Ranges are left to the
objects the fields build.  Errors are DomainError.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import DomainError


class FieldType(NamedTuple):
    """What a field's value must be: ``description`` names it in errors."""

    description: str
    test: Callable[[object], bool]


def is_number(x) -> bool:
    """A finite JSON number: an int or float, not a bool."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def integer(minimum: int) -> FieldType:
    return FieldType(
        f"an integer of at least {minimum}",
        lambda x: isinstance(x, int) and not isinstance(x, bool) and x >= minimum)


def list_of(item: FieldType, description: str) -> FieldType:
    return FieldType(f"a list of {description}",
                     lambda x: isinstance(x, list) and all(map(item.test, x)))


NUMBER = FieldType("a finite number", is_number)
OBJECT = FieldType("an object", lambda x: isinstance(x, dict))
BOOLEAN = FieldType("a boolean", lambda x: isinstance(x, bool))
LIST = FieldType("a list", lambda x: isinstance(x, list))
NUMBERS = list_of(NUMBER, "finite numbers")
OBJECTS = list_of(OBJECT, "objects")


def read(desc, what: str, fields: dict, defaults=None, where: str = "") -> dict:
    """{field: value} of the object ``desc``, absent optional fields set to
    their ``defaults``.  ``fields`` maps every field to its FieldType; a
    field without a default is required.  ``what`` names the descriptor in
    errors, ``where`` follows a field's name in a type error."""
    if not isinstance(desc, dict):
        raise DomainError(f"{what} must be an object, got {desc!r}")
    defaults = defaults or {}
    unknown = sorted(set(desc) - set(fields))
    if unknown:
        raise DomainError(f"unknown {what} fields: {unknown}")
    missing = [name for name in fields if name not in desc and name not in defaults]
    if missing:
        raise DomainError(f"missing {what} fields: {missing}")
    for name, value in desc.items():
        if not fields[name].test(value):
            raise DomainError(f"'{name}'{where} must be {fields[name].description}, "
                              f"got {value!r}")
    return {**defaults, **desc}


def read_kind(desc, what: str, kinds: dict, key: str = "kind"):
    """(kind, fields) of a kinded descriptor: ``kinds`` maps each kind to the
    (fields, defaults) that ``read`` checks the other fields against."""
    if not isinstance(desc, dict):
        raise DomainError(f"{what} must be an object, got {desc!r}")
    kind = desc.get(key)
    if not isinstance(kind, str) or kind not in kinds:
        raise DomainError(
            f"unknown {what} {key} {kind!r}; expected one of {sorted(kinds)}")
    fields, defaults = kinds[kind]
    rest = {name: value for name, value in desc.items() if name != key}
    what = f"{kind} {what}"
    return kind, read(rest, what, fields, defaults, f" of {what}")
