"""The one set of rules for writing a value into a CSV cell.

bool -> ``true``/``false``, missing (None) -> empty, float -> ``repr``
(shortest round-trip form, ``nan``/``inf`` included), tuple -> its items by
these same rules, comma-joined, anything else -> ``str``.  Every record row
and every provenance value goes through here, which keeps payloads
byte-reproducible.
"""


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return format_row(*value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_row(*values) -> str:
    return ",".join(format_cell(v) for v in values)
