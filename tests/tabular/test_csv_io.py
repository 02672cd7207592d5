"""Tests for repro.tabular.csv_io."""

import pytest

from repro.tabular import Table, read_csv, write_csv


@pytest.fixture
def table():
    return Table.from_dict({"x": [1.5, 2.5], "name": ["a", "b"]})


class TestRoundTrip:
    def test_write_then_read(self, table, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        back = read_csv(path)
        assert back.to_dict() == table.to_dict()

    def test_numeric_inference(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,x\n2,y\n")
        t = read_csv(path)
        assert t.is_numeric("a")
        assert t.is_categorical("b")

    def test_forced_numeric_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1\n2\n")
        t = read_csv(path, numeric_columns={"a"})
        assert t.is_numeric("a")

    def test_mixed_column_stays_categorical(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1\nx\n")
        t = read_csv(path)
        assert t.is_categorical("a")


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_numeric_cell(self, tmp_path, cell):
        path = tmp_path / "n.csv"
        path.write_text(f"age,job\n30,a\n{cell},b\n41,c\n")
        message = rf"n\.csv: numeric column 'age' row 2 holds '{cell}', which is not a finite"
        with pytest.raises(ValueError, match=message):
            read_csv(path)

    def test_forced_numeric_unparsable_cell(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n1,x\n2,y\nthree,z\n")
        message = r"f\.csv: numeric column 'a' row 3 holds 'three'"
        with pytest.raises(ValueError, match=message):
            read_csv(path, numeric_columns={"a"})
