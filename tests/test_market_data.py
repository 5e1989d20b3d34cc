import datetime as dt
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credeq import market_data as md
from credeq.errors import ValidationError
from credeq.market_data import (
    BondQuote,
    OptionQuote,
    PriceHistory,
    TreasuryCurve,
    filter_options,
    load_bonds_csv,
    load_history_csv,
    load_options_csv,
    load_treasury_csv,
    save_bonds_csv,
    save_history_csv,
    save_options_csv,
    save_treasury_csv,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestTreasuryLoading:
    def test_three_point_curve(self, tmp_path):
        p = write(tmp_path / "t.csv", "maturity_years,yield\n0.0833,0.05\n1,0.051\n5,0.052\n")
        curve = load_treasury_csv(p)
        assert len(curve.points) == 3
        assert curve.points[0] == (0.0833, 0.05)

    def test_ten_point_standard_curve(self, tmp_path):
        # 1m, 3m, 6m, 1y, 2y, 3y, 5y, 7y, 10y, 20y
        mats = [1 / 12, 0.25, 0.5, 1, 2, 3, 5, 7, 10, 20]
        body = "\n".join(f"{m},{0.04 + 0.001 * i}" for i, m in enumerate(mats))
        p = write(tmp_path / "t.csv", "maturity_years,yield\n" + body + "\n")
        assert len(load_treasury_csv(p).points) == 10

    def test_duplicate_maturity_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "maturity_years,yield\n1,0.05\n1,0.051\n2,0.052\n")
        with pytest.raises(ValidationError):
            load_treasury_csv(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = write(tmp_path / "t.csv", "maturity_years,yield\n1,0.05\nbogus,0.05\n2,0.05\n")
        with pytest.raises(ValidationError, match=":3"):
            load_treasury_csv(p)

    def test_wrong_header(self, tmp_path):
        p = write(tmp_path / "t.csv", "tenor,rate\n1,0.05\n")
        with pytest.raises(ValidationError, match="header"):
            load_treasury_csv(p)

    def test_too_few_points(self, tmp_path):
        p = write(tmp_path / "t.csv", "maturity_years,yield\n1,0.05\n2,0.05\n")
        with pytest.raises(ValidationError):
            load_treasury_csv(p)


class TestRoundTrips:
    @given(
        pts=st.lists(
            st.tuples(
                st.floats(0.01, 30, allow_nan=False),
                st.floats(-0.02, 0.2, allow_nan=False),
            ),
            min_size=3,
            max_size=12,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=25)
    def test_treasury_round_trip(self, tmp_path_factory, pts):
        pts = sorted(pts)
        curve = TreasuryCurve(points=tuple(pts))
        path = tmp_path_factory.mktemp("rt") / "c.csv"
        save_treasury_csv(path, curve)
        assert load_treasury_csv(path).points == curve.points

    def test_bond_round_trip(self, tmp_path):
        quotes = [BondQuote(0.60278, 0.97123456789), BondQuote(9.5194, 0.7133)]
        path = tmp_path / "b.csv"
        save_bonds_csv(path, quotes)
        assert load_bonds_csv(path) == quotes

    def test_option_round_trip(self, tmp_path):
        quotes = [
            OptionQuote(0.5, 7.5, "call", 1.2345, 10),
            OptionQuote(1.0, 8.0, "put", 0.9876, 0),
        ]
        path = tmp_path / "o.csv"
        save_options_csv(path, quotes)
        assert load_options_csv(path) == quotes

    def test_history_round_trip(self, tmp_path):
        hist = PriceHistory(
            points=(
                (dt.date(2006, 9, 18), 8.04),
                (dt.date(2006, 9, 19), 8.11),
                (dt.date(2006, 9, 20), 7.98),
            )
        )
        path = tmp_path / "h.csv"
        save_history_csv(path, hist)
        assert load_history_csv(path).points == hist.points


class TestEveryFormat:
    """The four CSV formats, each read and written through its column table."""

    # One valid data row per format, in the order of its header.
    GOOD_ROWS = {
        load_treasury_csv: ("maturity_years,yield", "1.0,0.05"),
        load_bonds_csv: ("maturity_years,price", "1.0,0.9"),
        load_options_csv: ("maturity_years,strike,kind,price,volume", "0.5,8.0,call,1.0,10"),
        load_history_csv: ("date,value", "2006-09-18,8.04"),
    }
    CELLS = [(load, column) for load, (header, _) in GOOD_ROWS.items()
             for column in header.split(",")]

    @pytest.mark.parametrize("load, column", CELLS,
                             ids=[f"{load.__name__}-{column}" for load, column in CELLS])
    def test_bad_cell_names_path_and_line_once(self, tmp_path, load, column):
        header, good = self.GOOD_ROWS[load]
        cells = dict(zip(header.split(","), good.split(",")), **{column: "abc"})
        path = write(tmp_path / "f.csv", f"{header}\n{good}\n{','.join(cells.values())}\n")
        with pytest.raises(ValidationError) as info:
            load(path)
        message = str(info.value)
        assert message.startswith(f"{path}:3: ")
        assert message.count(path) == 1

    RECORDS = {
        "treasury": (save_treasury_csv, load_treasury_csv, TreasuryCurve(
            points=((1 / 12, -0.001), (0.25, 0.0412345678901234), (30.0, 1e-300)))),
        "bonds": (save_bonds_csv, load_bonds_csv, [
            BondQuote(0.1, 1.5), BondQuote(1 / 3, 1e-300), BondQuote(29.999999999999996, 0.7)]),
        "options": (save_options_csv, load_options_csv, [
            OptionQuote(5 / 365, 1 / 3, "put", 0.0, 0), OptionQuote(2.0, 8.04, "call", 1e-12, 10**9)]),
        "history": (save_history_csv, load_history_csv, PriceHistory(
            points=((dt.date(1999, 12, 31), 1e-300), (dt.date(2000, 2, 29), 8.123456789012345)))),
    }

    @pytest.mark.parametrize("fmt", sorted(RECORDS))
    def test_save_load_save(self, tmp_path, fmt):
        """Saving, loading and saving again gives equal records and the same bytes."""
        save, load, records = self.RECORDS[fmt]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save(first, records)
        loaded = load(first)
        assert loaded == records
        save(second, loaded)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("fmt", sorted(RECORDS))
    def test_byte_order_mark_is_skipped(self, tmp_path, fmt):
        """A file that starts with a UTF-8 byte-order mark, as Excel writes, loads the same records."""
        save, load, records = self.RECORDS[fmt]
        path = tmp_path / "f.csv"
        save(path, records)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load(path) == records

    def test_readme_headers_are_the_column_tables(self):
        """The README's format table states the headers that the column tables define."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## CLI workflow", 1)[1].split("\n## ", 1)[0]
        documented = dict(re.findall(r"^\| (\w+\.csv) \| `([^`]+)`", section, re.MULTILINE))
        tables = {"treasury.csv": md._TREASURY, "bonds.csv": md._BONDS,
                  "options.csv": md._OPTIONS, "history.csv": md._HISTORY}
        assert documented == {name: ",".join(c.header for c in columns)
                              for name, columns in tables.items()}


class TestQuoteValidation:
    def test_bond_price_bounds(self):
        with pytest.raises(ValidationError):
            BondQuote(maturity=1.0, price=0.0)
        with pytest.raises(ValidationError):
            BondQuote(maturity=1.0, price=1.6)
        BondQuote(maturity=1.0, price=1.4)  # premium bonds allowed

    def test_option_kind_checked(self):
        with pytest.raises(ValidationError):
            OptionQuote(1.0, 8.0, "straddle", 1.0, 1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda v: OptionQuote(1.0, 8.0, "call", v, 1),
            lambda v: OptionQuote(v, 8.0, "put", 1.0, 1),
            lambda v: OptionQuote(1.0, v, "call", 1.0, 1),
            lambda v: BondQuote(maturity=v, price=0.9),
            lambda v: BondQuote(maturity=1.0, price=v),
            lambda v: TreasuryCurve(points=((1.0, 0.05), (2.0, 0.05), (v, 0.05))),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, make, value):
        with pytest.raises(ValidationError):
            make(value)

    def test_history_dates_increase(self):
        with pytest.raises(ValidationError):
            PriceHistory(points=((dt.date(2006, 1, 3), 8.0), (dt.date(2006, 1, 3), 8.1)))


class TestFilterOptions:
    def quotes(self):
        return [
            OptionQuote(8 / 365, 8.0, "call", 0.2, 50),
            OptionQuote(9 / 365, 8.0, "call", 0.2, 50),
            OptionQuote(0.5, 8.0, "call", 0.9, 0),
            OptionQuote(0.5, 8.0, "put", 0.7, 3),
            OptionQuote(2.0, 9.0, "put", 1.7, 120),
        ]

    def test_zero_volume_excluded(self):
        kept = filter_options(self.quotes())
        assert all(q.volume > 0 for q in kept)

    def test_short_maturity_excluded(self):
        kept = filter_options(self.quotes())
        assert all(q.maturity >= 9 / 365 for q in kept)
        # the 9-day quote sits exactly on the threshold and stays
        assert any(q.maturity == 9 / 365 for q in kept)
        assert not any(q.maturity == 8 / 365 for q in kept)

    def test_empty_input(self):
        assert filter_options([]) == []

    def test_subset_order_and_idempotence(self):
        src = self.quotes()
        once = filter_options(src)
        assert [src.index(q) for q in once] == sorted(src.index(q) for q in once)
        assert filter_options(once) == once
