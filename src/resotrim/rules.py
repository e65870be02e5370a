"""Field rules: what each field of a record, and each key of a file, may hold.

A record lists one rule per field in ``RULES`` and calls :func:`check` from
``__post_init__``; a rule between fields raises through :func:`refuse`. The
loaders in :mod:`resotrim.registry` :func:`walk` their files through tables
of the same rules, so a constructor refuses a value exactly when a loader
refuses it in a file. Only the standard library is imported here.
"""

import math
import numbers
import sys
from dataclasses import dataclass, replace

REQUIRED = object()
_MAX = sys.float_info.max


@dataclass(frozen=True)
class Field:
    """How one value is read: ``test`` accepts it, ``expected`` names
    what it accepts (nothing is coerced), ``read`` converts an accepted
    value other than null and ``item`` is the rule of a list's entries, or
    a tuple of one rule per entry. An absent key reads as ``default``;
    without one, the key is required."""

    test: object
    expected: str
    default: object = REQUIRED
    read: object = None
    item: object = None


def is_real(v):
    """A real number within the float range, numpy scalars included; bools are not numbers."""
    return isinstance(v, float) or ((isinstance(v, int) or isinstance(v, numbers.Real))
                                    and not isinstance(v, bool) and -_MAX <= v <= _MAX)


def number(test, expected, read=float):
    """rule for a real number v for which test(v) holds; test must refuse nan and infinities."""
    return Field(lambda v: (isinstance(v, float) or is_real(v)) and test(v), expected, read=read)


def or_null(rule):
    """rule for a key that may also be null; null and absent read as None."""
    return replace(rule, test=lambda v: v is None or rule.test(v),
                   expected=f"{rule.expected} or null", default=None)


def list_of(item, default=REQUIRED):
    return Field(lambda v: isinstance(v, list), "a list", default, item=item)


def pair_of(first, second, expected):
    """rule for two entries, each with its own rule: a list, or a tuple or (2,) array."""
    return Field(lambda v: (isinstance(v, (list, tuple)) and len(v) == 2
                            or getattr(v, "shape", None) == (2,)), expected, item=(first, second))


def map_of(item):
    """rule for an object whose every value follows item."""
    return lambda v: dict.fromkeys(v, item) if isinstance(v, dict) else OBJECT


STR = Field(lambda v: isinstance(v, str), "a string")
COUNT = Field(lambda v: (isinstance(v, int) or isinstance(v, numbers.Integral))
              and not isinstance(v, bool) and v >= 0, "a non-negative integer")
BOOL = Field(lambda v: isinstance(v, bool), "true or false")
OBJECT = Field(lambda v: isinstance(v, dict), "an object")
FINITE = number(lambda v: -math.inf < v < math.inf, "a finite number")
POSITIVE = number(lambda v: 0 < v < math.inf, "a positive and finite number")
NON_NEGATIVE = number(lambda v: 0 <= v < math.inf, "a non-negative finite number")


def walk(path, value, rule, problems):
    """value as its rule reads it; each bad field goes to problems by path. A rule is
    a :class:`Field`, a table, which keeps the keys it does not name as they are, or a
    function of the value that returns its rule."""
    if callable(rule):
        rule = rule(value)
    table, rule = (rule, OBJECT) if isinstance(rule, dict) else (None, rule)
    if not rule.test(value):
        problems.append(f"{path}: expected {rule.expected}, got {value!r}")
    elif table is not None:
        value = dict(value)
        for key, sub in table.items():
            where = f"{path}.{key}" if path else key
            if key in value:
                value[key] = walk(where, value[key], sub, problems)
            elif getattr(sub, "default", REQUIRED) is REQUIRED:
                problems.append(f"{where}: missing")
            else:
                value[key] = sub.default
    elif rule.item is not None and value is not None:
        items = rule.item if isinstance(rule.item, tuple) else [rule.item] * len(value)
        value = [walk(f"{path}[{i}]", v, sub, problems)
                 for i, (v, sub) in enumerate(zip(value, items))]
    elif value is not None and rule.read is not None:
        value = rule.read(value)
    return value


def check(record, error):
    """Raise error unless every field of record follows its rule in ``RULES``;
    only a field that breaks its rule, or has entries, is walked."""
    faults = []
    for name, rule in record.RULES.items():
        value = getattr(record, name)
        if rule.item is not None or not rule.test(value):
            lines = []
            walk(name, value, rule, lines)
            faults += [(name, line[len(name):]) for line in lines]
    if faults:
        _raise(record, error, faults)


def refuse(record, error, name, problem):
    """Raise error for a rule between fields of record, at field ``name``."""
    _raise(record, error, [(name, f": {problem}")])


def _raise(record, error, faults):
    """error naming each fault; its ``fields`` keep them, for a loader to report by path."""
    exc = error("; ".join(f"{type(record).__name__}.{name}{rest}" for name, rest in faults))
    exc.fields = faults
    raise exc
