"""Quote ingestion, validation, and CSV (de)serialization.

All maturities are ACT/365 year fractions fixed at ingestion, yields are
continuously compounded decimals (0.05 = 5%), and bond prices are per 1 of
par. Each CSV file (UTF-8, header row required) is written down once, as a
column table: ``_TREASURY``, ``_BONDS``, ``_OPTIONS`` and ``_HISTORY`` give
each column's header, parser and writer, and one ``_read`` / ``_write``
pair serves all four. History dates are ISO-8601.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from collections import namedtuple
from dataclasses import astuple, dataclass

from .errors import ValidationError

__all__ = [
    "TreasuryCurve",
    "BondQuote",
    "OptionQuote",
    "PriceHistory",
    "load_treasury_csv",
    "save_treasury_csv",
    "load_bonds_csv",
    "save_bonds_csv",
    "load_options_csv",
    "save_options_csv",
    "load_history_csv",
    "save_history_csv",
    "filter_options",
]


@dataclass(frozen=True)
class TreasuryCurve:
    """Zero-yield curve points (maturity years, cc yield), strictly increasing."""

    points: tuple

    def __post_init__(self):
        if len(self.points) < 3:
            raise ValidationError(
                f"treasury curve needs at least 3 points, got {len(self.points)}"
            )
        prev = 0.0
        for s, y in self.points:
            if not (s > prev and math.isfinite(s)):
                raise ValidationError(
                    f"maturities must be finite, strictly increasing and > 0 (at {s})"
                )
            if not math.isfinite(y):
                raise ValidationError(f"yield at maturity {s} is not finite")
            prev = s


@dataclass(frozen=True)
class BondQuote:
    maturity: float
    price: float

    def __post_init__(self):
        if not (self.maturity > 0 and math.isfinite(self.maturity)):
            raise ValidationError(f"bond maturity must be finite and > 0, got {self.maturity}")
        if not (0 < self.price <= 1.5):
            raise ValidationError(
                f"bond price must be in (0, 1.5] of par, got {self.price}"
            )


@dataclass(frozen=True)
class OptionQuote:
    maturity: float
    strike: float
    kind: str
    price: float
    volume: int

    def __post_init__(self):
        if self.kind not in ("call", "put"):
            raise ValidationError(f"option kind must be call or put, got {self.kind!r}")
        if not (self.maturity > 0 and math.isfinite(self.maturity)):
            raise ValidationError(f"option maturity must be finite and > 0, got {self.maturity}")
        if not (self.strike > 0 and math.isfinite(self.strike)):
            raise ValidationError(f"strike must be finite and > 0, got {self.strike}")
        if not (self.price >= 0 and math.isfinite(self.price)):
            raise ValidationError(f"option price must be finite and >= 0, got {self.price}")
        if self.volume < 0:
            raise ValidationError(f"volume must be >= 0, got {self.volume}")


@dataclass(frozen=True)
class PriceHistory:
    """Dated finite values (a rate may cross zero) with strictly increasing dates."""

    points: tuple  # of (date, value)

    def __post_init__(self):
        prev = None
        for d, v in self.points:
            if prev is not None and not d > prev:
                raise ValidationError(f"history dates must be strictly increasing at {d}")
            if not math.isfinite(v):
                raise ValidationError(f"history value at {d} must be finite, got {v}")
            prev = d


# ---------------------------------------------------------------------------
# CSV formats: one column table per file, read by _read and written by _write
# ---------------------------------------------------------------------------


# One CSV column: its header, its name in errors ("bad <name> '<cell>'"), a
# parser that raises ValueError on a bad cell, and the writer it inverts exactly.
_Column = namedtuple("_Column", "header name parse write")


def _num(x):
    return repr(float(x))


_MATURITY = _Column("maturity_years", "maturity", float, _num)
_PRICE = _Column("price", "price", float, _num)
_TREASURY = (_MATURITY, _Column("yield", "yield", float, _num))
_BONDS = (_MATURITY, _PRICE)
_OPTIONS = (_MATURITY, _Column("strike", "strike", float, _num), _Column("kind", "kind", str, str),
            _PRICE, _Column("volume", "volume", int, lambda v: str(int(v))))
_HISTORY = (_Column("date", "ISO date", dt.date.fromisoformat, dt.date.isoformat),
            _Column("value", "value", float, _num))


def _cell(column, text):
    try:
        return column.parse(text)
    except ValueError:
        raise ValidationError(f"bad {column.name} {text!r}") from None


def _read(path, columns, record=None) -> list:
    """The rows of ``path`` in ``columns``: each ``record(*cells)``, or the tuple of cells.

    Blank rows are skipped. A bad cell, or a ``ValidationError`` from
    ``record``, is prefixed with ``path:line:``.
    """
    header = [c.header for c in columns]
    out = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if [h.strip() for h in got] != header:
            raise ValidationError(
                f"{path}: expected header {','.join(header)!r}, got {','.join(got)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                cells = tuple(_cell(c, text.strip()) for c, text in zip(columns, row))
                out.append(record(*cells) if record else cells)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return out


def _write(path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.header for c in columns])
        writer.writerows([c.write(v) for c, v in zip(columns, row)] for row in rows)


def load_treasury_csv(path) -> TreasuryCurve:
    return TreasuryCurve(points=tuple(_read(path, _TREASURY)))


def save_treasury_csv(path, curve: TreasuryCurve) -> None:
    _write(path, _TREASURY, curve.points)


def load_bonds_csv(path) -> list[BondQuote]:
    return _read(path, _BONDS, BondQuote)


def save_bonds_csv(path, quotes) -> None:
    _write(path, _BONDS, map(astuple, quotes))


def load_options_csv(path) -> list[OptionQuote]:
    return _read(path, _OPTIONS, OptionQuote)


def save_options_csv(path, quotes) -> None:
    _write(path, _OPTIONS, map(astuple, quotes))


def load_history_csv(path) -> PriceHistory:
    return PriceHistory(points=tuple(_read(path, _HISTORY)))


def save_history_csv(path, history: PriceHistory) -> None:
    _write(path, _HISTORY, history.points)


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


DEFAULT_MIN_MATURITY = 9 / 365
DEFAULT_MIN_VOLUME = 0


def filter_options(quotes):
    """Drop quotes with volume <= DEFAULT_MIN_VOLUME or maturity < DEFAULT_MIN_MATURITY.

    Order is preserved; the result is a subset of the input and the filter
    is idempotent. It drops zero-volume quotes and maturities shorter than
    9 calendar days (ACT/365).
    """
    return [q for q in quotes
            if q.volume > DEFAULT_MIN_VOLUME and q.maturity >= DEFAULT_MIN_MATURITY]
