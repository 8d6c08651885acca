import numpy as np
import pytest

from lqmle.dataio import read_series, write_series
from lqmle.errors import DataFormatError


def test_write_read_round_trip(tmp_path):
    p = tmp_path / "series.csv"
    vals = np.array([1.0, -2.5, 3.25, 0.0, 1e-8])
    write_series(p, vals)
    np.testing.assert_array_equal(read_series(p), vals)


def test_column_by_name_and_index(tmp_path):
    p = tmp_path / "named.csv"
    p.write_text("date,ret,vol\n2020-01-01,0.5,1.2\n2020-01-02,-0.3,1.1\n")
    by_name = read_series(p, column="ret", header=True)
    by_index = read_series(p, column=1, header=True)
    np.testing.assert_array_equal(by_name, [0.5, -0.3])
    np.testing.assert_array_equal(by_index, by_name)


def test_unknown_column_name(tmp_path):
    p = tmp_path / "named.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataFormatError):
        read_series(p, column="c", header=True)


def test_header_skip_without_column(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("value\n1.0\n2.0\n")
    np.testing.assert_array_equal(read_series(p, header=True), [1.0, 2.0])


def test_diff_transforms_to_increments(tmp_path):
    p = tmp_path / "level.csv"
    write_series(p, np.array([10.0, 12.0, 11.5, 14.0]))
    np.testing.assert_allclose(read_series(p, diff=True), [2.0, -0.5, 2.5])


def test_alternate_delimiter(tmp_path):
    p = tmp_path / "semi.csv"
    p.write_text("1.0;2.0\n3.0;4.0\n")
    np.testing.assert_array_equal(
        read_series(p, column=1, delimiter=";"), [2.0, 4.0]
    )


def test_bad_value_reports_file_and_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\n2.0\nnot_a_number\n4.0\n")
    with pytest.raises(DataFormatError, match=r"bad\.csv:3"):
        read_series(p)


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DataFormatError):
        read_series(p)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_series(tmp_path / "nope.csv")


def test_blank_lines_ignored(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("1.0\n\n2.0\n\n")
    np.testing.assert_array_equal(read_series(p), [1.0, 2.0])


@pytest.mark.parametrize("header", [False, True])
def test_negative_column_index_rejected(tmp_path, header):
    # -1 would silently read the last column, -5 would index past the row
    p = tmp_path / "two.csv"
    p.write_text("a,b\n1.0,2.0\n3.0,4.0\n" if header else "1.0,2.0\n3.0,4.0\n")
    for column in (-1, -5):
        with pytest.raises(DataFormatError, match=f"column index must be zero or more, got {column}"):
            read_series(p, column=column, header=header)


def test_byte_order_mark_is_skipped(tmp_path):
    # spreadsheet tools, Excel among them, may start a UTF-8 file with one
    plain = tmp_path / "bom.csv"
    plain.write_text("1.52\n-0.3\n", encoding="utf-8-sig")
    np.testing.assert_array_equal(read_series(plain), [1.52, -0.3])
    named = tmp_path / "bom-named.csv"
    named.write_text("ret,vol\n0.5,1.2\n", encoding="utf-8-sig")
    np.testing.assert_array_equal(read_series(named, column="ret", header=True), [0.5])


@pytest.mark.parametrize(
    "text,header,want",
    [
        ("1.5,2\n3,4\n", False, [2.0, 4.0]),
        ('"1.5","2"\n3,"4"\n', False, [2.0, 4.0]),
        ("1.5,2\n,,\n   \n3,4\n", False, [2.0, 4.0]),
        ("a,b\r\n1.5,2\r\n3,4\r\n", True, [2.0, 4.0]),
        ("a,b\r1.5,2\r3,4\r", True, [2.0, 4.0]),
        ('"a\nb",c\n1.5,2\n', True, [2.0]),
    ],
    ids=["plain", "quoted", "blank-cells", "crlf", "cr", "quoted-newline-header"],
)
def test_csv_files_read_in_one_pass_or_row_by_row_alike(tmp_path, text, header, want):
    # the one-pass read refuses quotes, blank cells and bare CR line ends;
    # those files are read as csv rows and must give the same column
    p = tmp_path / "s.csv"
    with p.open("w", newline="") as fh:
        fh.write(text)
    np.testing.assert_array_equal(read_series(p, column=1, header=header), want)


def test_bad_value_after_a_header_keeps_its_line_number(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("value\n1.0\n\n2.0,x\nbad\n")
    with pytest.raises(DataFormatError, match=r"h\.csv:5: non-numeric value 'bad'"):
        read_series(p, header=True)
