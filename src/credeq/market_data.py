"""Quote ingestion, validation, and CSV (de)serialization.

All maturities are ACT/365 year fractions fixed at ingestion, yields are
continuously compounded decimals (0.05 = 5%), and bond prices are per 1 of
par. File formats (UTF-8, header row required):

    treasury.csv  maturity_years,yield
    bonds.csv     maturity_years,price
    options.csv   maturity_years,strike,kind,price,volume
    history.csv   date,value            (ISO-8601 dates)
    cds.csv       date,maturity_years,spread_bps
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = [
    "TreasuryCurve",
    "BondQuote",
    "OptionQuote",
    "PriceHistory",
    "CdsQuote",
    "load_treasury_csv",
    "save_treasury_csv",
    "load_bonds_csv",
    "save_bonds_csv",
    "load_options_csv",
    "save_options_csv",
    "load_history_csv",
    "save_history_csv",
    "load_cds_csv",
    "save_cds_csv",
    "filter_options",
]


@dataclass(frozen=True)
class TreasuryCurve:
    """Zero-yield curve points (maturity years, cc yield), strictly increasing."""

    points: tuple
    asof: dt.date | None = None

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

    def check_against_spot(self, spot: float) -> None:
        """A call is never worth more than the underlying."""
        if self.kind == "call" and self.price > spot:
            raise ValidationError(
                f"call price {self.price} exceeds spot {spot} (arbitrage bound)"
            )


@dataclass(frozen=True)
class PriceHistory:
    """Dated positive values with strictly increasing dates."""

    points: tuple  # of (date, value)

    def __post_init__(self):
        prev = None
        for d, v in self.points:
            if prev is not None and not d > prev:
                raise ValidationError(f"history dates must be strictly increasing at {d}")
            if not (v > 0 and math.isfinite(v)):
                raise ValidationError(f"history value at {d} must be positive, got {v}")
            prev = d


@dataclass(frozen=True)
class CdsQuote:
    date: dt.date
    maturity: float
    spread_bps: float

    def __post_init__(self):
        if not (self.maturity > 0 and math.isfinite(self.maturity)):
            raise ValidationError(f"cds maturity must be finite and > 0, got {self.maturity}")
        if not math.isfinite(self.spread_bps):
            raise ValidationError("cds spread must be finite")


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def _read_rows(path, expected_header):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if [h.strip() for h in header] != expected_header:
            raise ValidationError(
                f"{path}: expected header {','.join(expected_header)!r}, "
                f"got {','.join(header)!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(expected_header):
                raise ValidationError(
                    f"{path}:{lineno}: expected {len(expected_header)} fields, got {len(row)}"
                )
            rows.append((lineno, [c.strip() for c in row]))
    return rows


def _parse_float(path, lineno, name, text):
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: bad {name} {text!r}") from None


def _parse_date(path, lineno, text):
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: bad ISO date {text!r}") from None


def load_treasury_csv(path, asof: dt.date | None = None) -> TreasuryCurve:
    rows = _read_rows(path, ["maturity_years", "yield"])
    points = []
    for lineno, (s, y) in rows:
        points.append(
            (_parse_float(path, lineno, "maturity", s), _parse_float(path, lineno, "yield", y))
        )
    return TreasuryCurve(points=tuple(points), asof=asof)


def save_treasury_csv(path, curve: TreasuryCurve) -> None:
    _write_csv(path, ["maturity_years", "yield"], [(_num(s), _num(y)) for s, y in curve.points])


def load_bonds_csv(path) -> list[BondQuote]:
    rows = _read_rows(path, ["maturity_years", "price"])
    out = []
    for lineno, (s, p) in rows:
        try:
            out.append(
                BondQuote(
                    maturity=_parse_float(path, lineno, "maturity", s),
                    price=_parse_float(path, lineno, "price", p),
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return out


def save_bonds_csv(path, quotes) -> None:
    _write_csv(
        path, ["maturity_years", "price"], [(_num(q.maturity), _num(q.price)) for q in quotes]
    )


def load_options_csv(path) -> list[OptionQuote]:
    rows = _read_rows(path, ["maturity_years", "strike", "kind", "price", "volume"])
    out = []
    for lineno, (s, k, kind, p, vol) in rows:
        try:
            volume = int(vol)
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: bad volume {vol!r}") from None
        try:
            out.append(
                OptionQuote(
                    maturity=_parse_float(path, lineno, "maturity", s),
                    strike=_parse_float(path, lineno, "strike", k),
                    kind=kind,
                    price=_parse_float(path, lineno, "price", p),
                    volume=volume,
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return out


def save_options_csv(path, quotes) -> None:
    _write_csv(
        path,
        ["maturity_years", "strike", "kind", "price", "volume"],
        [(_num(q.maturity), _num(q.strike), q.kind, _num(q.price), str(int(q.volume))) for q in quotes],
    )


def load_history_csv(path) -> PriceHistory:
    rows = _read_rows(path, ["date", "value"])
    points = []
    for lineno, (d, v) in rows:
        points.append((_parse_date(path, lineno, d), _parse_float(path, lineno, "value", v)))
    return PriceHistory(points=tuple(points))


def save_history_csv(path, history: PriceHistory) -> None:
    _write_csv(path, ["date", "value"], [(d.isoformat(), _num(v)) for d, v in history.points])


def load_cds_csv(path) -> list[CdsQuote]:
    rows = _read_rows(path, ["date", "maturity_years", "spread_bps"])
    out = []
    for lineno, (d, s, sp) in rows:
        out.append(
            CdsQuote(
                date=_parse_date(path, lineno, d),
                maturity=_parse_float(path, lineno, "maturity", s),
                spread_bps=_parse_float(path, lineno, "spread", sp),
            )
        )
    return out


def save_cds_csv(path, quotes) -> None:
    _write_csv(
        path,
        ["date", "maturity_years", "spread_bps"],
        [(q.date.isoformat(), _num(q.maturity), _num(q.spread_bps)) for q in quotes],
    )


def _num(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


def filter_options(quotes, min_maturity: float = 9 / 365, min_volume: int = 0):
    """Drop quotes with volume <= min_volume or maturity < min_maturity.

    Order is preserved; the result is a subset of the input and the filter
    is idempotent. Defaults drop zero-volume quotes and maturities shorter
    than 9 calendar days (ACT/365).
    """
    if min_maturity < 0:
        raise ValidationError("min_maturity must be >= 0")
    return [q for q in quotes if q.volume > min_volume and q.maturity >= min_maturity]
