"""The one set of rules for writing a value into a CSV cell, and the one
place a record type declares its columns.

bool -> ``true``/``false``, missing (None) -> empty, float -> ``repr``
(shortest round-trip form, ``nan``/``inf`` included), tuple -> its items by
these same rules, comma-joined, anything else -> ``str``.  Every record row
and every provenance value goes through here, which keeps payloads
byte-reproducible.

A record type whose columns are a fixed list of its attributes subclasses
``CsvRecord`` and names them, in order, in its ``CSV_HEADER``; its row is
read from those attributes.  A type whose columns depend on its values (a
per-layer or per-valley column) or that writes a computed column keeps its
own ``csv_row``.
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


class CsvRecord:
    """A record whose CSV row is the attributes its ``CSV_HEADER`` names."""

    CSV_HEADER: str

    def csv_row(self) -> str:
        return format_row(*(getattr(self, name) for name in self.CSV_HEADER.split(",")))
