"""load_population_csv against the row-by-row loop it replaced
(helpers.loop_load_population_csv): bit-identical arrays on valid files,
and the same offending line on corrupted ones."""

import re

import numpy as np
import pytest

from chargesim.cli import main
from chargesim.errors import DataError
from chargesim.geo import GeoPoint
from chargesim.population import load_population_csv
from helpers import loop_load_population_csv

SPECIAL_LONS = (-540.0, -180.0, 180.0, 190.0, 540.0)
BLANKS = ("", "   ", "\t", " \t ", '""', '"  "')


def _spell(x: float, rng: np.random.Generator) -> str:
    """x in one of the forms a CSV may hold it: shortest repr, exponent or
    fixed forms, an explicit sign, quotes, spaces around the field."""
    forms = [
        repr(x), f"{x:.17e}", f"{x:.3E}", f"{x:+.5f}", f"{x:.0f}", f"{x:g}", f"{x:12.4f}",
    ]
    s = forms[int(rng.integers(len(forms)))]
    u = rng.random()
    if u < 0.15:
        return f'"{s}"'
    if u < 0.25:
        return f'" {s} "'
    if u < 0.4:
        return f" {s}\t"
    return s


def _random_cell(rng: np.random.Generator) -> tuple[float, float, float]:
    u = rng.random()
    lat = float(rng.choice([-90.0, 90.0, -0.0, 0.0])) if u < 0.1 else float(rng.uniform(-90, 90))
    u = rng.random()
    if u < 0.2:
        lon = float(rng.choice(SPECIAL_LONS))
    elif u < 0.25:
        lon = float(rng.choice([-0.0, 0.0, np.nextafter(180.0, 0.0), np.nextafter(-180.0, -181.0)]))
    else:
        lon = float(rng.uniform(-720, 720))
    u = rng.random()
    if u < 0.1:
        pop = float(rng.choice([0.0, -0.0, 1e-300, 1e300, 7.0]))
    else:
        pop = float(rng.exponential(100.0))
    return lat, lon, pop


def _random_rows(rng: np.random.Generator, n: int) -> list[list[str]]:
    return [[_spell(v, rng) for v in _random_cell(rng)] for _ in range(n)]


def _text(rows: list[list[str]], rng: np.random.Generator) -> str:
    """The rows under a header, with blank and whitespace-only lines among
    them and LF, CRLF or mixed line ends."""
    ends = [["\n"], ["\r\n"], ["\n", "\r\n"]][int(rng.integers(3))]
    lines = [str(rng.choice(["lat,lon,population", " LAT , Lon,population "]))]
    for row in rows:
        while rng.random() < 0.1:
            lines.append(str(rng.choice(BLANKS)))
        lines.append(",".join(row))
    if rng.random() < 0.5:
        lines.append(str(rng.choice(BLANKS)))
    return "".join(line + str(rng.choice(ends)) for line in lines)


def _write(tmp_path, text: str):
    path = tmp_path / "pop.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def _assert_same_arrays(got, want):
    for name in ("lat_deg", "lon_deg", "population"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.float64, name
        # the bytes compare the sign of zero too
        assert a.tobytes() == b.tobytes(), name


def _error(load, path) -> str:
    with pytest.raises(DataError) as info:
        load(path)
    return str(info.value)


def _line(message: str) -> int:
    return int(re.search(r": line (\d+): ", message).group(1))


@pytest.mark.parametrize("seed", range(40))
def test_valid_files_load_bit_identical_to_the_loop(seed, tmp_path):
    rng = np.random.default_rng(seed)
    rows = _random_rows(rng, int(rng.integers(1, 80)))
    path = _write(tmp_path, _text(rows, rng))
    got = load_population_csv(path)
    _assert_same_arrays(got, loop_load_population_csv(path))
    assert got.lat_deg.flags.c_contiguous and got.lon_deg.flags.c_contiguous
    assert got.population.flags.c_contiguous


def test_special_longitudes_and_spellings(tmp_path):
    text = "lat,lon,population\r\n" + "".join(
        f"{lat},{lon},{pop}\r\n"
        for lat, lon, pop in [
            ("-0", "-540", "-0"),
            ("+90", "-180", "1E+2"),
            ("-90.0", "180", '"5"'),
            ('"1e-3"', "190", " 2.5e-1 "),
            (" 0 ", "540", "3"),
        ]
    )
    path = _write(tmp_path, text)
    got = load_population_csv(path)
    _assert_same_arrays(got, loop_load_population_csv(path))
    assert got.lon_deg.tolist() == [-180.0, -180.0, -180.0, -170.0, -180.0]
    assert np.signbit(got.population[0]) and np.signbit(got.lat_deg[0])


# each fault kind: "fields" adds or drops a field, "number" puts text that
# is no number in a random field, and the rest put one of the spellings
# in the column given
FAULTS = {
    "fields": None,
    "number": None,
    "pop_nan": (2, ("nan", "NaN", "-nan", '"+NAN"')),
    "pop_inf": (2, ("inf", "Infinity", "-inf", " +INF ")),
    "pop_negative": (2, ("-4", "-1e-300", "-2.5E2")),
    "lat_range": (0, ("90.5", "-91", "1e3", "-inf", "inf")),
    "lat_nan": (0, ("nan", "-NaN")),
    "lon_not_finite": (1, ("inf", "-Infinity", "nan")),
}


def _inject(rows: list[list[str]], r: int, kind: str, rng: np.random.Generator) -> None:
    if kind == "fields":
        rows[r] = rows[r][:2] if rng.random() < 0.5 else rows[r] + ["1"]
    elif kind == "number":
        col = int(rng.integers(3))
        rows[r][col] = str(rng.choice(["abc", "", "1..2", "0x10", "1e", "--1", "# 1"]))
    else:
        col, spellings = FAULTS[kind]
        rows[r][col] = str(rng.choice(spellings))


def _assert_same_error(path, kinds):
    want = _error(loop_load_population_csv, path)
    got = _error(load_population_csv, path)
    assert _line(got) == _line(want), (got, want)
    if "number" not in kinds:
        # apart from numpy's conversion text, the message is the loop's
        assert got == want


@pytest.mark.parametrize("kind", sorted(FAULTS))
@pytest.mark.parametrize("seed", range(6))
def test_a_fault_names_the_loops_line(kind, seed, tmp_path):
    rng = np.random.default_rng([seed, len(kind)])
    rows = _random_rows(rng, int(rng.integers(1, 60)))
    _inject(rows, int(rng.integers(len(rows))), kind, rng)
    _assert_same_error(_write(tmp_path, _text(rows, rng)), {kind})


@pytest.mark.parametrize("seed", range(30))
def test_two_faults_name_the_first_line(seed, tmp_path):
    rng = np.random.default_rng(seed)
    rows = _random_rows(rng, int(rng.integers(2, 60)))
    kinds = rng.choice(sorted(FAULTS), size=2, replace=False)
    for r, kind in zip(rng.choice(len(rows), size=2, replace=False), kinds):
        _inject(rows, int(r), str(kind), rng)
    _assert_same_error(_write(tmp_path, _text(rows, rng)), set(kinds))


def test_conversion_error_quotes_the_field(tmp_path):
    path = _write(tmp_path, "lat,lon,population\n0,12,1\n\n0,12,abc\n")
    assert re.fullmatch(r".*: line 4: could not convert string 'abc' .*", _error(load_population_csv, path))


@pytest.mark.parametrize("field", ["1_000", "١"])
def test_numbers_float_takes_and_the_loader_rejects(field, tmp_path):
    # numpy's parser takes no digit-group underscores and no non-ASCII digits
    path = _write(tmp_path, f"lat,lon,population\n0,12,1\n0,12,{field}\n")
    assert len(loop_load_population_csv(path)) == 2
    assert _line(_error(load_population_csv, path)) == 3


def test_lon_normalisation_matches_geopoint(tmp_path):
    rng = np.random.default_rng(18)
    n = 100_000
    lon = np.concatenate(
        [
            rng.uniform(-1e4, 1e4, n // 4),
            rng.uniform(-540, 540, n // 4),
            # next to the odd multiples of 180, where the wrap rounds
            180.0 * (2 * rng.integers(-5, 6, n // 4) + 1) + rng.normal(0, 1e-12, n // 4),
            np.ldexp(rng.uniform(-1, 1, n // 4), rng.integers(-60, 1000, n // 4)),
        ]
    )
    path = tmp_path / "lon.csv"
    path.write_text("lat,lon,population\n" + "".join(f"0,{v!r},1\n" for v in lon.tolist()))
    want = np.array([GeoPoint(0.0, v).lon_deg for v in lon.tolist()])
    assert load_population_csv(path).lon_deg.tobytes() == want.tobytes()


def test_paper_scale_grid_loads_bit_identical_to_the_loop(tmp_path):
    # the 60,734-cell grid of the sim-blind-widegrid benchmark fixture
    argv = [
        "gen-fixtures", "--out", str(tmp_path), "--seed", "1", "--width-km", "300",
        "--height-km", "250", "--n-dc", "10", "--n-ac", "40", "--blobs", "2",
        "--population", "2e5",
    ]
    assert main(argv) == 0
    path = tmp_path / "population.csv"
    got = load_population_csv(path)
    assert len(got) == 60_734
    _assert_same_arrays(got, loop_load_population_csv(path))



def test_an_open_quote_names_the_line_it_opens_on(tmp_path):
    # loadtxt carries the quoted field over the line end, so the fault is
    # the record that starts on line 2, though line 2 alone would parse
    path = _write(tmp_path, 'lat,lon,population\n0,12,"50\n0,12,1\n')
    assert _error(load_population_csv, path) == f"{path}: line 2: unexpected end of data"


def test_an_escaped_quote_on_a_line_of_its_own_stays_in_its_field(tmp_path):
    # csv reads the line "" alone as blank, but here it is an escaped quote
    # inside the population field that opens on line 2, which so holds no
    # number: the loader names line 2, as the loop does
    path = _write(tmp_path, 'lat,lon,population\n0,12,"50\n""\n"\n1,13,2\n')
    _assert_same_error(path, {"number"})
    assert _line(_error(load_population_csv, path)) == 2


def _spanning_text(rows: list[list[str]], blanks: list[list[str]]) -> tuple[str, list[int]]:
    """The rows under a header, blanks[r] before row r, LF line ends; and
    the line each row starts on."""
    lines, starts = ["lat,lon,population"], []
    for row, before in zip(rows, blanks):
        lines += before
        starts.append(1 + sum(line.count("\n") + 1 for line in lines))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n", starts


@pytest.mark.parametrize("kind", sorted(FAULTS))
@pytest.mark.parametrize("seed", range(3))
def test_records_split_where_loadtxt_splits_them(kind, seed, tmp_path):
    # quoted latitudes and longitudes that run over a line end; the line
    # they end on holds a comma, so it is never taken for a blank line. The
    # file loads as the loop loads it, and a fault names the line its
    # record starts on, which neither a line count nor a record count gives
    rng = np.random.default_rng([seed, len(kind), 21])
    rows = _random_rows(rng, int(rng.integers(2, 40)))
    for r, row in enumerate(rows):
        if r == 0 or rng.random() < 0.3:
            col = int(rng.integers(2))
            row[col] = '"' + row[col].strip('"') + '\n"'
    blanks = [[str(rng.choice(BLANKS)) for _ in range(int(rng.geometric(0.7)) - 1)] for _ in rows]
    path = _write(tmp_path, _spanning_text(rows, blanks)[0])
    _assert_same_arrays(load_population_csv(path), loop_load_population_csv(path))
    r = int(rng.integers(1, len(rows)))
    _inject(rows, r, kind, rng)
    text, starts = _spanning_text(rows, blanks)
    assert _line(_error(load_population_csv, _write(tmp_path, text))) == starts[r]


@pytest.mark.parametrize("kind", sorted(FAULTS))
@pytest.mark.parametrize("seed", range(2))
def test_a_quoted_population_may_close_on_a_line_of_its_own(kind, seed, tmp_path):
    # the line that holds only a quoted field's closing quote is part of
    # the field's record, though csv reads that line alone as blank: such
    # files load as the loop loads them, and a fault names the line its
    # record starts on
    path = _write(tmp_path, 'lat,lon,population\n0,12,"50\n"\n1,13,2\n')
    _assert_same_arrays(load_population_csv(path), loop_load_population_csv(path))
    rng = np.random.default_rng([seed, len(kind), 22])
    rows = _random_rows(rng, int(rng.integers(2, 40)))
    for r, row in enumerate(rows):
        if r == 0 or rng.random() < 0.3:
            closing = str(rng.choice(['\n"', '\n \t "', '\n\n"', '\n\n\n  "']))
            row[2] = '"' + row[2].strip().strip('"') + closing
    blanks = [[str(rng.choice(BLANKS)) for _ in range(int(rng.geometric(0.7)) - 1)] for _ in rows]
    path = _write(tmp_path, _spanning_text(rows, blanks)[0])
    _assert_same_arrays(load_population_csv(path), loop_load_population_csv(path))
    r = int(rng.integers(1, len(rows)))
    _inject(rows, r, kind, rng)
    text, starts = _spanning_text(rows, blanks)
    assert _line(_error(load_population_csv, _write(tmp_path, text))) == starts[r]


@pytest.mark.parametrize("seed", range(6))
def test_quoted_blank_lines_outside_fields_keep_the_fast_path(seed, tmp_path, monkeypatch):
    # lines of "" or "  " between rows, and between rows whose quoted field
    # runs over a line end, are blank records: the file loads as the loop
    # loads it, in one parse, without the record splitter
    import chargesim.population as population

    rng = np.random.default_rng([seed, 29])
    rows = _random_rows(rng, int(rng.integers(2, 40)))
    for row in rows:
        if rng.random() < 0.3:
            row[2] = '"' + row[2].strip().strip('"') + '\n"'
    blanks = [[str(rng.choice(['""', '"  "', "   "])) for _ in range(int(rng.integers(0, 3)))]
              for _ in rows]
    blanks[int(rng.integers(len(rows)))].append('""')
    path = _write(tmp_path, _spanning_text(rows, blanks)[0])
    want = loop_load_population_csv(path)

    def split(*args):
        raise AssertionError("the fast path failed")

    monkeypatch.setattr(population, "_records_to_cells", split)
    _assert_same_arrays(load_population_csv(path), want)
