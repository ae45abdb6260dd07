"""Settings dataclasses that declare and check their own fields.

A settings class is a dataclass that subclasses ``Spec`` and makes its
fields with ``opt``. Each field's metadata is the one place its rules live:
help text, which makes it a command-line flag (``dasr.cli`` builds the
flags of ``train``, ``synth`` and ``degrade`` from it, named
``--name-with-dashes`` unless a ``flag`` entry says otherwise), ``choices``
and the bounds ``gt``, ``ge``, ``lt`` and ``le``. Construction checks every
field's type, its choices, that its numbers are finite, and its bounds, on
every entry of a list.
"""

from __future__ import annotations

import math
import operator
from dataclasses import field, fields
from typing import Optional

# the upscaling factors of the generator, the degradation and training
SCALES = (2, 4)


def opt(default, text: Optional[str] = None, **meta):
    """A settings field; ``text`` makes it a flag with that help."""
    return field(default=default, metadata={"help": text, **meta})


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# field annotation (a string: the settings modules postpone annotations)
# -> (what the error message says, check)
_TYPE_CHECKS = {
    "int": ("int", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("float", _is_number),
    "bool": ("bool", lambda v: isinstance(v, bool)),
    "str": ("str", lambda v: isinstance(v, str)),
    "Optional[list[float]]": (
        "None or a list of numbers",
        lambda v: v is None or (isinstance(v, list)
                                and all(_is_number(x) for x in v))),
}

# bound -> (interval bracket, comparison, test)
_BOUNDS = {"gt": ("(", ">", operator.gt), "ge": ("[", ">=", operator.ge),
           "lt": (")", "<", operator.lt), "le": ("]", "<=", operator.le)}


def _rule(bounds: list[tuple[str, float]]) -> str:
    """``> 0`` for one bound, ``in [0, 1)`` for a lower and an upper."""
    if len(bounds) == 1:
        (key, b), = bounds
        return f"{_BOUNDS[key][1]} {b}"
    (lo, a), (hi, b) = bounds
    return f"in {_BOUNDS[lo][0]}{a}, {b}{_BOUNDS[hi][0]}"


def json_object(doc, where: Optional[str] = None) -> dict:
    """``doc`` if it is a JSON object, else a ValueError naming ``where``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where or 'config'} must be a JSON object, "
                         f"got {type(doc).__name__}")
    return doc


class Spec:
    """Base of the settings dataclasses; see the module docstring."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, ok = _TYPE_CHECKS[f.type]
            if not ok(value):
                raise ValueError(f"{f.name} must be {kind}, "
                                 f"got {type(value).__name__}")
            choices = f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"{f.name} must be one of {choices}, "
                                 f"got {value!r}")
            entries = value if isinstance(value, list) else [value]
            if isinstance(value, (float, list)) \
                    and not all(abs(v) < math.inf for v in entries):
                raise ValueError(f"{f.name} must be finite, got {value}")
            bounds = [(k, f.metadata[k]) for k in _BOUNDS if k in f.metadata]
            if value is not None and not all(
                    _BOUNDS[k][2](v, b) for k, b in bounds for v in entries):
                every = " in every entry" if isinstance(value, list) else ""
                raise ValueError(f"{f.name} must be {_rule(bounds)}{every}, "
                                 f"got {value}")

    @classmethod
    def from_dict(cls, doc: dict, where: Optional[str] = None):
        """The settings a JSON object holds; a key that is not a field is
        refused, naming ``where`` the object came from."""
        place = f" in {where}" if where else ""
        unknown = set(json_object(doc, where)) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys{place}: "
                             f"{', '.join(sorted(unknown))}")
        return cls(**doc)
