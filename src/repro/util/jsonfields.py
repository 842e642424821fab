"""Field checks for dataclasses decoded from JSON.

Spec files (``run --spec``) and injection plans (``simulate
--inject``) are user input: a typo'd key or a wrong-typed value must
fail at the JSON boundary with the caller's typed error, not as a
``TypeError`` deep inside validation or as a run that silently
accepts ``"yes"`` for a bool.
"""

from __future__ import annotations

from dataclasses import fields

__all__ = ["check_json_fields"]

#: Annotation name -> the JSON-decoded Python types it admits.  A JSON
#: int is a valid ``float``; a JSON bool is only ever a ``bool``.
_JSON_TYPES = {
    "bool": (bool,),
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "None": (type(None),),
}


def check_json_fields(cls, data: dict, error: type[Exception], *, label: str) -> None:
    """Raise ``error`` on an unknown key or a wrong-typed value in ``data``.

    Types are read from ``cls``'s field annotations as written (e.g.
    ``"int | None"``, which ``from __future__ import annotations``
    keeps as strings).  Fields annotated with anything else (nested
    specs) are left to the caller.
    """
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise error(
            f"{label} does not accept field(s) {unknown}; "
            f"known fields: {sorted(known)}"
        )
    for name, value in data.items():
        names = [part.strip() for part in str(known[name].type).split("|")]
        if not all(part in _JSON_TYPES for part in names):
            continue
        allowed = tuple(t for part in names for t in _JSON_TYPES[part])
        if not isinstance(value, allowed) or (
            isinstance(value, bool) and "bool" not in names
        ):
            raise error(
                f"{label}.{name} must be {known[name].type}, got {value!r}"
            )
