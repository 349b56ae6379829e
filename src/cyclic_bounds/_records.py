"""CSV and JSON text for what the CLI prints, and the digit contract it follows.

Only `cli` (every subcommand's table and record) and `verification` (the
report that `verify` prints and the benchmark compares) use this module; the
numeric layers return plain records and know no output format.

Floats print with 17 significant digits, so every value round-trips, except
the field named gamma (the tangent intercept), which carries 12.  A field
named k holding a float is the family index: it prints as an integer when
integral and as inf for the limit family.  Integers print as integers,
booleans as true/false, strings bare in CSV and quoted in JSON, lists as JSON
arrays and dicts as JSON objects, in insertion order.  json.dumps is not used:
its shortest-repr floats would change the bytes.
"""

from __future__ import annotations

import math
from typing import Iterable


def _token(name: str, value, quote: bool) -> str:
    if name == "k" and isinstance(value, float):
        if math.isinf(value):
            value = "inf"
        elif value.is_integer():
            value = int(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return f'"{value}"' if quote else value
    if isinstance(value, dict):
        return "{" + ", ".join(f'"{key}": {_token(key, v, quote)}' for key, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_token(name, v, quote) for v in value) + "]"
    return format(value, ".12g" if name == "gamma" else ".17g")


def record(obj, names: str) -> dict:
    """The attributes of obj named in `names` (space-separated), as a record."""
    return {name: getattr(obj, name) for name in names.split()}


def cell(name: str, value) -> str:
    """One value of field `name` as CSV or plain text."""
    return _token(name, value, quote=False)


def json_text(value) -> str:
    """A record (dict) or a list of records as one line of JSON."""
    return _token("", value, quote=True)


def csv_table(columns: str, records: Iterable[dict]) -> str:
    """Header line, then one line per record, values in the order of `columns`."""
    names = columns.split()
    lines = [",".join(names)]
    lines += [",".join(cell(c, rec[c]) for c in names) for rec in records]
    return "\n".join(lines) + "\n"
