"""Random overlap probability (ROP) tables for named population groups.

Answers "what are the odds that two people in this city share the same
value" for spaces so large that intuition fails, and renders the answers
the way a report table would: saturated probabilities collapse to
"~ 100%", everything else gets exactly two decimals.

Space sizes come either from an explicit number or from one of two
historical decompositions of a full fingerprint:

* ``GaltonModel``: Galton's 1892 argument scored 24 independent six-ridge
  squares plus allowances of 8 and 4 binary guesses for the ridge
  entry/exit counts and the adjacent ridge courses, for 2**36 patterns.
* ``RegionModel``: a coarser modern reading treats the print as 47
  independent two-way regions, for 2**47 patterns.

The two disagree by a factor of 2**11; both are provided and neither is
declared canonical.
"""

import csv
import io
import os
from dataclasses import dataclass, fields
from importlib import resources

from .collision import (
    DomainError,
    EvalResult,
    SpaceSize,
    _as_count,
    _frozen,
    _power,
    as_space_size,
    collision_probability,
)

__all__ = [
    "IngestError",
    "GaltonModel",
    "RegionModel",
    "PopulationRecord",
    "RopEntry",
    "SATURATION_THRESHOLD",
    "space_size",
    "rop_table",
    "format_percent",
    "parse_populations",
    "load_populations",
    "dump_populations",
    "load_bundled_cities",
    "BUNDLED_DATASETS",
]

# Probabilities above this render as "~ 100%" instead of a number that
# would misleadingly print as 99.96% or 100.00%.
SATURATION_THRESHOLD = 0.9995

BUNDLED_DATASETS = ("us_cities",)

_DELIMITERS = (",", "\t", ";")

# a grouped integer, quoted or not: an optional "+", a decimal digit (any script's, as int() reads
# them), then digits broken by commas, underscores or stray spaces ("8,419,600", "565, 239", "1_000")
_DROP_SEPARATORS = str.maketrans("", "", ",_ ")


class IngestError(DomainError):
    """A population table could not be parsed; message lists row numbers."""


def _read_counts(model):
    """A model's ``__post_init__``: each field is read by ``_as_count`` as an int of at least 1."""
    for field in fields(model):
        object.__setattr__(model, field.name, _as_count(getattr(model, field.name), field.name, 1))


@dataclass(frozen=True)
class GaltonModel:
    """Galton's three-part bit budget for a full fingerprint; each field a count >= 1, kept as an int."""

    unit_squares: int = 24
    ridge_entry_exit_bits: int = 8
    adjacent_course_bits: int = 4

    __post_init__ = _read_counts


@dataclass(frozen=True)
class RegionModel:
    """Independent regions with a fixed number of readings each; fields as in GaltonModel."""

    independent_regions: int = 47
    choices_per_region: int = 2

    __post_init__ = _read_counts


def space_size(model) -> SpaceSize:
    """Distinct-pattern count implied by a decomposition model.

    The power is computed in exact integer arithmetic, after the size check the
    CLI's power form gets; models whose pattern count exceeds the supported 1e30
    space maximum are rejected.
    """
    if isinstance(model, GaltonModel):
        exponent = (
            model.unit_squares + model.ridge_entry_exit_bits + model.adjacent_course_bits
        )
        exact = _power(2, exponent)
    elif isinstance(model, RegionModel):
        exact = _power(model.choices_per_region, model.independent_regions)
    else:
        raise DomainError(
            f"model must be GaltonModel or RegionModel, got {type(model).__name__}"
        )
    return as_space_size(exact)


@dataclass(frozen=True)
class PopulationRecord:
    """One named group and its head count, a count >= 0 kept as an int."""

    name: str
    population: int

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name.strip():
            raise DomainError("record name must be a non-empty string")
        object.__setattr__(self, "population", _as_count(self.population))


@dataclass(frozen=True)
class RopEntry:
    """A table row: the record, its evaluated overlap, and the display string."""

    record: PopulationRecord
    result: EvalResult
    display: str


def format_percent(probability: float) -> str:
    """Render a probability as a table percentage.

    Values above the saturation threshold become "~ 100%".  Everything
    else gets exactly two decimals; Python's float formatting rounds the
    true binary value half to even, identically on every platform.
    """
    if probability > SATURATION_THRESHOLD:
        return "≈ 100%"
    return f"{100.0 * probability:.2f}%"


def rop_table(records, space) -> "list[RopEntry]":
    """Evaluate the overlap probability for every record, preserving order."""
    records = list(records)
    if not records:
        raise DomainError("need at least one population record")
    space = as_space_size(space)
    out = []
    for rec in records:
        if not isinstance(rec, PopulationRecord):
            raise DomainError(f"expected PopulationRecord, got {type(rec).__name__}")
        try:
            # the module-level name, so a caller that rebinds it sees every row
            result = collision_probability(space, rec.population)
        except DomainError as err:
            raise type(err)(f"record '{rec.name}': {err}") from err
        out.append(_frozen(RopEntry, {"record": rec, "result": result,
                                      "display": format_percent(result.probability)}))
    return out


# --- tabular ingestion ------------------------------------------------------

def _parse_grouped_int(text: str) -> int:
    cleaned = text.strip().strip('"').strip().removeprefix("+")
    digits = cleaned.translate(_DROP_SEPARATORS)
    if not (cleaned[:1].isdecimal() and digits.isdecimal()):
        raise ValueError(f"not a whole number: {text!r}")
    return int(digits)


def _cells(line: str, delimiter: str) -> "list[str]":
    # as csv.reader reads this line alone (an unterminated quote ends with the
    # line), building the reader only where a quote can change the cells
    return next(csv.reader([line], delimiter=delimiter)) if '"' in line else line.split(delimiter)


def parse_populations(text: str, *, delimiter=None) -> "list[PopulationRecord]":
    """Parse a delimiter-separated population table from a string.

    The first non-comment line must be a header naming (at least) the
    columns ``name`` and ``population``, case-insensitively.  The
    delimiter is auto-detected among comma, tab, and semicolon unless
    given.  Lines starting with '#' and blank lines are skipped.  Repeated
    thousands separators inside quoted numbers are tolerated.  All row
    errors are reported together, with 1-based file line numbers.  A
    leading byte-order mark (spreadsheet "CSV UTF-8") is dropped.
    """
    numbered = [
        (i + 1, line)
        for i, line in enumerate(text.removeprefix("\ufeff").splitlines())
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not numbered:
        raise IngestError("empty table: no header row found")

    header_no, header_line = numbered[0]
    if delimiter is None:
        # ties go to the earlier delimiter, and a header without any gets ","
        delimiter = max(_DELIMITERS, key=header_line.count)
    elif delimiter not in _DELIMITERS:
        raise IngestError(f"unsupported delimiter {delimiter!r}; use one of , ; or tab")

    try:
        header = [cell.strip().lower() for cell in _cells(header_line, delimiter)]
    except csv.Error as err:  # a quoted cell longer than csv.field_size_limit()
        raise IngestError(f"line {header_no}: {err}") from None
    try:
        name_col, pop_col = header.index("name"), header.index("population")
    except ValueError:
        raise IngestError(f"line {header_no}: header must name both a 'name' and a 'population' "
                          f"column, got {header!r}") from None

    records = []
    errors = []
    seen = {}
    last_col = max(name_col, pop_col)
    for line_no, line in numbered[1:]:
        try:
            cells = _cells(line, delimiter)
        except csv.Error as err:
            errors.append(f"line {line_no}: {err}")
            continue
        if len(cells) <= last_col:
            errors.append(f"line {line_no}: expected {len(header)} columns, got {len(cells)}")
            continue
        name = cells[name_col].strip()
        if not name:
            errors.append(f"line {line_no}: empty name")
            continue
        try:
            population = _parse_grouped_int(cells[pop_col])
        except ValueError as err:
            errors.append(f"line {line_no}: {err}")
            continue
        if name in seen:
            errors.append(f"line {line_no}: duplicate name {name!r} (first seen on line {seen[name]})")
            continue
        seen[name] = line_no
        records.append(_frozen(PopulationRecord, {"name": name, "population": population}))

    if errors:
        raise IngestError("; ".join(errors))
    if not records:
        raise IngestError("table has a header but no data rows")
    return records


def load_populations(source, *, delimiter=None) -> "list[PopulationRecord]":
    """Read a population table from a path to UTF-8 text or an open text or binary stream."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(os.fspath(source), "rb") as fh:
            data = fh.read()
    if isinstance(data, str):  # a text stream, decoded by its opener
        return parse_populations(data, delimiter=delimiter)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # the bytes before the first bad one decode, and number the lines as the parser does
        line = len((data[:err.start].decode("utf-8") + "x").splitlines())
        raise IngestError(f"line {line}: byte {data[err.start]:#04x} is not UTF-8; "
                          "save the table as UTF-8 text") from None
    return parse_populations(text, delimiter=delimiter)


def dump_populations(records) -> str:
    """Serialize records to normalized CSV (plain digits, comma-separated) that
    ``parse_populations`` reads back: a name led by '#' is quoted, so its row is no comment;
    no records, a name holding a line boundary, a name that repeats an earlier one once the
    reader strips both, or an item that is no PopulationRecord, is a DomainError."""
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
    plain.writerow(["name", "population"])
    seen = set()
    for rec in records:
        if not isinstance(rec, PopulationRecord):
            raise DomainError(f"expected PopulationRecord, got {type(rec).__name__}")
        if rec.name.splitlines() != [rec.name]:
            raise DomainError(f"record {rec.name!r}: a name with a line break cannot be one table row")
        if (name := rec.name.strip()) in seen:
            raise DomainError(f"record {rec.name!r}: duplicate name {name!r} once read back")
        seen.add(name)
        (quoted if name[:1] == "#" else plain).writerow([rec.name, rec.population])
    if not seen:
        raise DomainError("need at least one population record")
    return buf.getvalue()


def load_bundled_cities() -> "list[PopulationRecord]":
    """The packaged us_cities demo table (22 large US cities)."""
    text = resources.files("ropcalc.data").joinpath("us_cities.csv").read_text("utf-8")
    return parse_populations(text)
