"""Time-series ingestion and renewable resource-to-power conversion.

Two profile flavours are supported: generation mode carries ready-made PV and
wind power columns; resource mode carries irradiance and wind speed, which
are converted through the configured component models. Files are plain CSV
with a mandatory header (see GENERATION_HEADER / RESOURCE_HEADER).

A file is read a block of lines at a time: orjson reads a block's cells as
one JSON array and numpy checks them. A block orjson cannot take as it is,
or that fails a check, is parsed again line by line, which accepts the same
lines and names the line and column of the first bad field.

A parsed horizon is held column by column: a Profile (dispatch inputs) or a
ResourceProfile (raw measurements) keeps one read-only array per field, so
scenario runs can share the columns they do not change. A horizon has a
length and slices into a shorter horizon that shares its columns; it is
the only input type the other modules take.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ProfileFormatError
from .model import MicrogridConfig, PvSpec, WindSpec

GENERATION_MODE = "generation"
RESOURCE_MODE = "resource"

GENERATION_HEADER = ("index", "demand_kw", "price", "grid_available", "pv_kw", "wind_kw")
RESOURCE_HEADER = ("index", "demand_kw", "price", "grid_available",
                   "irradiance_wm2", "wind_speed_ms")

PRICE_CURRENCY = "currency_per_kwh"
PRICE_CENTS = "cents_per_kwh"

# reference irradiance (W/m^2) at which a PV array delivers rated output
STANDARD_IRRADIANCE_WM2 = 1000.0


def _frozen_column(values, dtype) -> np.ndarray:
    """``values`` as a contiguous read-only 1-D array; writable input is copied."""
    array = np.asarray(values, dtype=dtype)
    if array.ndim != 1:
        raise ValueError(f"a profile column must be 1-D, got shape {array.shape}")
    if array.flags.writeable or not array.flags.c_contiguous:
        array = np.array(array, dtype=dtype, order="C")
        array.setflags(write=False)
    return array


class _Columns:
    """Column handling shared by Profile and ResourceProfile.

    Subclasses are frozen dataclasses with five per-step columns, all of
    one length. Slices share the parent's columns.
    """

    def __post_init__(self) -> None:
        length = None
        for field in fields(self):
            dtype = np.uint8 if field.name == "grid_available" else np.float64
            column = _frozen_column(getattr(self, field.name), dtype)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise ValueError(f"column {field.name} has {len(column)} steps, "
                                 f"expected {length}")
            object.__setattr__(self, field.name, column)

    def __len__(self) -> int:
        return len(self.demand_kw)

    def __getitem__(self, key: slice):
        """The steps in ``key`` as a horizon sharing these columns."""
        if not isinstance(key, slice):
            raise TypeError(f"a horizon is sliced, not indexed: got {key!r}")
        return replace(self, **{field.name: getattr(self, field.name)[key]
                                for field in fields(self)})

    def __eq__(self, other):
        """Equal to the same type with equal columns."""
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(np.array_equal(getattr(self, field.name),
                                  getattr(other, field.name))
                   for field in fields(self))


@dataclass(frozen=True, eq=False)
class Profile(_Columns):
    """A horizon of dispatch inputs, one read-only array per field.

    Float columns are float64; grid_available is uint8 (1 = available);
    price is in currency/kWh.
    """

    demand_kw: np.ndarray
    price: np.ndarray
    grid_available: np.ndarray
    pv_kw: np.ndarray
    wind_kw: np.ndarray


@dataclass(frozen=True, eq=False)
class ResourceProfile(_Columns):
    """A horizon of raw resource measurements, one read-only array per field."""

    demand_kw: np.ndarray
    price: np.ndarray
    grid_available: np.ndarray
    irradiance_wm2: np.ndarray
    wind_speed_ms: np.ndarray


# bytes of a profile orjson reads at a time, in whole lines
_BLOCK_BYTES = 1 << 19

# bytes at which str.splitlines breaks a line but a block's lines do not
_UNSPLIT_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")

# the bytes of a block orjson reads; it would also read true, null or "1"
_CELL_BYTES = b"0123456789.eE+-, \t\r\n"

# a "-0" cell, which orjson reads as the int 0; float("-0") is -0.0
_NEGATIVE_ZERO = re.compile(rb"-0(?![0-9.eE])")

# a line of only the whitespace str.strip() strips, in a file without the
# bytes of _UNSPLIT_BREAKS: spaces, tabs, "\x1f", and a CRLF line's "\r"
_BLANK_LINE = re.compile(rb"^[ \t\x1f]*\r?\n", re.MULTILINE)


def _layout(mode: str) -> tuple[tuple[str, ...], type]:
    """The header and the horizon class of a profile mode."""
    if mode == GENERATION_MODE:
        return GENERATION_HEADER, Profile
    if mode == RESOURCE_MODE:
        return RESOURCE_HEADER, ResourceProfile
    raise ValueError(f"unknown profile mode: {mode!r}")


def _blocks(data: bytes, start: int = 0):
    """(start, stop) of each block of ``data[start:]``: a block ends just after
    a b"\n" or at the end of ``data``."""
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK_BYTES)
        stop = len(data) if stop < 0 else stop + 1
        yield start, stop
        start = stop


def _parse_float(text: str, line_no: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ProfileFormatError(
            f"line {line_no}, column {column}: not a number: {text!r}") from None


def _parse_flag(text: str, line_no: int) -> bool:
    if text == "1":
        return True
    if text == "0":
        return False
    raise ProfileFormatError(
        f"line {line_no}, column grid_available: expected 1 or 0, got {text!r}")


def _require_finite(value: float, line_no: int, column: str) -> float:
    if not math.isfinite(value):
        raise ProfileFormatError(
            f"line {line_no}, column {column}: must be finite, got {value}")
    return value


def _require_finite_nonneg(value: float, line_no: int, column: str) -> float:
    _require_finite(value, line_no, column)
    if value < 0:
        raise ProfileFormatError(
            f"line {line_no}, column {column}: must be >= 0, got {value}")
    return value


def _split_lines(data: bytes, header: tuple[str, ...]) -> list[str]:
    """Decode a profile into lines; check the first is ``header``, return the rest."""
    lines = data.decode("utf-8").splitlines()
    if not lines:
        raise ProfileFormatError("empty file: expected a header row")
    got = tuple(name.strip() for name in lines[0].split(","))
    if got != header:
        raise ProfileFormatError(
            f"line 1: expected header {','.join(header)!r}, got {lines[0]!r}")
    return lines[1:]


def _parse_rows(lines: list[str], header: tuple[str, ...], first_line_no: int) -> list:
    """The five data columns of body ``lines``, parsed and checked one at a time.

    The reference parse: it raises ProfileFormatError naming the 1-based
    line (``lines[0]`` is line ``first_line_no``) and the column of the
    first bad field.
    """
    records: list[tuple] = []
    for line_no, line in enumerate(lines, start=first_line_no):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(header):
            raise ProfileFormatError(
                f"line {line_no}: expected {len(header)} fields, got {len(fields)}")
        # must be a finite number of any sign; file order wins over its value
        _require_finite(_parse_float(fields[0], line_no, "index"), line_no, "index")
        demand = _require_finite_nonneg(
            _parse_float(fields[1], line_no, "demand_kw"), line_no, "demand_kw")
        price = _require_finite_nonneg(
            _parse_float(fields[2], line_no, "price"), line_no, "price")
        grid_available = _parse_flag(fields[3], line_no)
        a = _require_finite_nonneg(_parse_float(fields[4], line_no, header[4]),
                                   line_no, header[4])
        b = _require_finite_nonneg(_parse_float(fields[5], line_no, header[5]),
                                   line_no, header[5])
        records.append((demand, price, grid_available, a, b))
    return list(zip(*records)) if records else [()] * 5


def _read_cells(block: bytes, out: np.ndarray) -> int | None:
    """Read a block of lines ending in b"\n" into ``out``, a line a row; the
    row count, or None where _parse_rows must judge the block. orjson rounds
    as float() does (a hypothesis test pins this); each check stops a block
    the two could read differently, or _parse_rows would reject."""
    import orjson   # not at module top: importing mgems.cli stays without it

    if block.translate(None, _CELL_BYTES) or _NEGATIVE_ZERO.search(block):
        return None
    raw = np.frombuffer(block, dtype=np.uint8)
    separators = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if raw[separators].tobytes() != b",,,,,\n" * (len(separators) // 6):
        return None
    separators = separators.reshape(-1, 6)
    # grid_available is one byte, "0" or "1": orjson would also take "1.0"
    if not ((separators[:, 3] - separators[:, 2] == 2).all()
            and np.isin(raw[separators[:, 2] + 1], tuple(b"01")).all()):
        return None
    try:
        cells = orjson.loads(b"[" + block[:-1].replace(b"\n", b",") + b"]")
    except orjson.JSONDecodeError:
        return None
    # the separator scan shows six cells a line, each one JSON number
    rows = out[:len(separators)]
    rows.reshape(-1)[:] = cells
    if not (np.isfinite(rows).all() and (rows[:, 1:] >= 0).all()):
        return None
    return len(rows)


def _parse_blocks(data: bytes, header: tuple[str, ...]) -> np.ndarray | None:
    """The body as a (6, n) float64 view, one row per field.

    A block _read_cells does not take is tried again without its blank
    lines, then parsed by _parse_rows. None where the blocks' line numbers
    could drift (a non-ASCII byte, a break other than "\n" or "\r\n") or
    the first line is not ``header``."""
    if (not data.isascii() or any(map(data.__contains__, _UNSPLIT_BREAKS))
            or b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    end = data.find(b"\n")
    if end < 0 or tuple(name.strip() for name in
                        data[:end].decode("ascii").split(",")) != header:
        return None
    values = np.empty((data.count(b"\n", end + 1) + 1, 6))
    rows = 0
    for start, stop in _blocks(data, end + 1):
        block = data[start:stop]
        if not block.endswith(b"\n"):
            block += b"\n"
        read = _read_cells(block, values[rows:])
        if read is None and _BLANK_LINE.search(block):
            read = _read_cells(_BLANK_LINE.sub(b"", block), values[rows:])
        if read is None:
            columns = _parse_rows(block.decode("ascii").splitlines(), header,
                                  data.count(b"\n", 0, start) + 1)
            read = len(columns[0])
            values[rows:rows + read, 1:] = np.transpose(columns)
        rows += read
    return values[:rows].T


def parse_profile(data: bytes, mode: str) -> Profile | ResourceProfile:
    """Parse a profile file into columns.

    Steps keep file order and are indexed 0..n-1 by position. Raises
    ProfileFormatError naming the 1-based line number and column for any
    malformed, negative or non-finite field. What orjson's block reads do
    not take (see ``_parse_blocks``) is parsed and judged line by line.
    """
    header, kind = _layout(mode)
    block = _parse_blocks(data, header)
    if block is None:
        return kind(*_parse_rows(_split_lines(data, header), header, 2))
    # the horizon copies each strided row into a contiguous column
    return kind(*block[1:])


def _pv_power_column(irradiance_wm2: np.ndarray, spec: PvSpec) -> np.ndarray:
    """PV output (kW) for an irradiance column, clamped at the reference.

    Bit-identical to the scalar pv_power in tests/resource_reference.py:
    the same operations in the same order.
    """
    if np.any(irradiance_wm2 < 0):
        raise ValueError("irradiance must be >= 0, got "
                         f"{irradiance_wm2[irradiance_wm2 < 0][0]}")
    ratio = np.minimum(irradiance_wm2 / STANDARD_IRRADIANCE_WM2, 1.0)
    return spec.capacity_kw * spec.derating_factor * ratio


def _wind_power_column(speed_ms: np.ndarray, spec: WindSpec) -> np.ndarray:
    """Wind fleet output (kW) for a measured-speed column.

    Shear-corrects to hub height, then maps through the piecewise curve.
    Bit-identical to the scalar wind_power in tests/resource_reference.py:
    the same operations in the same order.
    """
    if np.any(speed_ms < 0):
        raise ValueError(f"wind speed must be >= 0, got {speed_ms[speed_ms < 0][0]}")
    v = speed_ms * (spec.hub_height_m / spec.anemometer_height_m) ** spec.shear_exponent
    running = ~((v < spec.cut_in_ms) | (v >= spec.cut_out_ms))
    at_rated = v >= spec.rated_speed_ms
    ramp = running & ~at_rated
    power = np.zeros(len(v), dtype=np.float64)
    power[running & at_rated] = spec.capacity_kw
    ci3 = spec.cut_in_ms ** 3
    # Python's float power, as in the scalar reference: numpy's vectorised
    # pow may round differently from the C library on some CPUs
    cubes = np.array([x ** 3 for x in v[ramp].tolist()], dtype=np.float64)
    power[ramp] = spec.capacity_kw * (cubes - ci3) / (spec.rated_speed_ms ** 3 - ci3)
    return power


def resource_to_inputs(resource: ResourceProfile,
                       config: MicrogridConfig) -> Profile:
    """Convert resource measurements to dispatch inputs via the component models.

    Bit-identical to applying the scalar pv_power and wind_power of
    tests/resource_reference.py step by step; demand, price and availability
    columns pass through shared.
    """
    return Profile(demand_kw=resource.demand_kw, price=resource.price,
                   grid_available=resource.grid_available,
                   pv_kw=_pv_power_column(resource.irradiance_wm2, config.pv),
                   wind_kw=_wind_power_column(resource.wind_speed_ms, config.wind))


def convert_prices(profile: Profile, price_unit: str) -> Profile:
    """Normalize the price column to currency/kWh at ingestion."""
    if price_unit == PRICE_CURRENCY:
        return profile
    if price_unit == PRICE_CENTS:
        return replace(profile, price=profile.price / 100.0)
    raise ValueError(f"unknown price unit: {price_unit!r}")


def load_profile(path: str | Path, mode: str, config: MicrogridConfig,
                 price_unit: str = PRICE_CURRENCY) -> Profile:
    """Read a profile file and return normalized dispatch inputs."""
    data = Path(path).read_bytes()
    parsed = parse_profile(data, mode)
    if mode == RESOURCE_MODE:
        parsed = resource_to_inputs(parsed, config)
    return convert_prices(parsed, price_unit)
