"""Point-process sampling, perturbations and CSV interchange."""

import contextlib
import csv
import math
import os
import threading
import tracemalloc
import warnings
from array import array
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mmwshare as mw
from mmwshare import ConfigError, DataError, geometry
from mmwshare.geometry import near_pairs

KM2 = 1e6
WIN = mw.Window(0.0, 5000.0, 0.0, 5000.0)


def _block_model(densities_km2):
    return mw.BlockModel(WIN, {
        mw.OperatorSet.parse(k): v / KM2 for k, v in densities_km2.items()
    })


def test_sample_block_model_is_deterministic():
    model = _block_model({"1": 10.0, "2": 5.0, "1;2": 3.0})
    d1 = mw.sample_block_model(model, seed=42)
    d2 = mw.sample_block_model(model, seed=42)
    assert np.array_equal(d1.xy, d2.xy)
    assert np.array_equal(d1.occupants, d2.occupants)
    d3 = mw.sample_block_model(model, seed=43)
    assert d3.n_sites != d1.n_sites or not np.array_equal(d3.xy, d1.xy)


def test_sample_block_model_counts_and_occupants():
    model = _block_model({"1": 10.0, "2": 5.0, "1;2": 3.0})
    dep = mw.sample_block_model(model, seed=0)
    occs = set(int(v) for v in np.unique(dep.occupants))
    assert occs <= {0b01, 0b10, 0b11}
    # n ~ Poisson(mean); stay 5 sigma inside for a deterministic test
    mean = 18.0 / KM2 * WIN.area()
    assert abs(dep.n_sites - mean) < 5.0 * np.sqrt(mean)
    assert bool(np.all(WIN.contains(dep.xy[:, 0], dep.xy[:, 1])))


def test_block_streams_do_not_interact():
    # the {1} block realization must not depend on other blocks' densities
    lone = mw.sample_block_model(_block_model({"1": 10.0, "2": 0.0}), seed=7)
    joint = mw.sample_block_model(_block_model({"1": 10.0, "2": 8.0}), seed=7)
    only1 = lone.keep(lone.occupants == 1)
    also1 = joint.keep(joint.occupants == 1)
    assert np.array_equal(only1.xy, also1.xy)


def test_coupling_marks_drive_occupancy():
    spec = mw.TwoOpSpec(40.0 / KM2, 0.7, 0.2)
    dep = mw.couple_two_operators(spec, WIN, seed=5)
    # the marks, re-drawn from a clone of the seed's generator: the count,
    # the x and y coordinates, then one uniform mark per site
    clone = np.random.default_rng(5)
    n = clone.poisson(spec.lambda_total * WIN.area())
    x, y = clone.uniform(WIN.x_min, WIN.x_max, n), clone.uniform(WIN.y_min, WIN.y_max, n)
    marks = clone.random(n)
    assert np.array_equal(dep.xy, np.column_stack([x, y]))
    m1 = dep.operator_mask(1)
    m2 = dep.operator_mask(2)
    # retention rule: operator 1 keeps mark <= a, operator 2 keeps mark > b
    assert np.array_equal(m1, marks <= spec.retain_a)
    assert np.array_equal(m2, marks > spec.retain_b)
    # with b <= a nobody is unclaimed
    assert bool(np.all(m1 | m2))


def test_coupling_is_deterministic():
    spec = mw.fid_scenario(30.0 / KM2, 0.4)
    d1 = mw.couple_two_operators(spec, WIN, seed=11)
    d2 = mw.couple_two_operators(spec, WIN, seed=11)
    assert np.array_equal(d1.xy, d2.xy)
    assert np.array_equal(d1.occupants, d2.occupants)


def test_point_budget_guard_catches_unit_mistakes():
    # 30.0 reads as 30 sites per m^2: refuse instead of exhausting memory
    with pytest.raises(ConfigError, match="per square meter"):
        mw.couple_two_operators(mw.TwoOpSpec(30.0, 0.7, 0.2), WIN, seed=0)
    with pytest.raises(ConfigError, match="per square meter"):
        mw.sample_block_model(mw.BlockModel(WIN, {mw.OperatorSet.of(1): 30.0}), seed=0)


def test_deployment_validation():
    with pytest.raises(DataError):
        mw.Deployment(WIN, np.array([[1.0, 1.0]]), np.array([0], dtype=np.uint16))
    with pytest.raises(DataError):
        mw.Deployment(WIN, np.array([[-10.0, 1.0]]), np.array([1], dtype=np.uint16))
    with pytest.raises(DataError):
        mw.Deployment(WIN, np.array([[1.0, 1.0]]), np.array([1, 2], dtype=np.uint16))


def test_thin_blockage_labels():
    dep = mw.couple_two_operators(mw.fid_scenario(30.0 / KM2, 0.5), WIN, seed=3)
    labeled = mw.thin_blockage(dep, WIN.center(), beta=0.007, seed=9)
    assert labeled.link_los is not None
    assert labeled.link_los.shape == (dep.n_sites,)
    assert labeled.n_sites == dep.n_sites
    # a site at distance d is LOS when its uniform falls below exp(-beta*d)
    d = np.hypot(*(dep.xy - WIN.center()).T)
    u = np.random.default_rng(9).random(dep.n_sites)
    assert np.array_equal(labeled.link_los, u < np.exp(-0.007 * d))
    # same seed, same labels
    again = mw.thin_blockage(dep, WIN.center(), beta=0.007, seed=9)
    assert np.array_equal(labeled.link_los, again.link_los)
    with pytest.raises(ConfigError):
        mw.thin_blockage(dep, WIN.center(), beta=0.0, seed=9)


def test_press_hits_target_density_exactly():
    dep = mw.couple_two_operators(mw.fid_scenario(30.0 / KM2, 0.5), WIN, seed=2)
    target = 10.0 / KM2
    pressed = mw.press(dep, target)
    assert mw.estimate_density(pressed) == pytest.approx(target, rel=1e-12)
    # occupancy structure untouched: counts and overlap identical
    assert np.array_equal(pressed.occupants, dep.occupants)
    assert mw.estimate_overlap_indirect(pressed) == mw.estimate_overlap_indirect(dep)


def test_press_can_match_one_operator():
    dep = mw.couple_two_operators(mw.fid_scenario(30.0 / KM2, 0.5), WIN, seed=2)
    target = 12.0 / KM2
    pressed = mw.press(dep, target, operator=2)
    assert mw.estimate_density(pressed, 2) == pytest.approx(target, rel=1e-12)


def test_press_rejects_bad_input():
    dep = mw.couple_two_operators(mw.fid_scenario(30.0 / KM2, 0.5), WIN, seed=2)
    with pytest.raises(ConfigError):
        mw.press(dep, 0.0)
    with pytest.raises(DataError):
        mw.press(dep, 10.0 / KM2, operator=5)


def test_clustered_thinning_survivors():
    dep = mw.couple_two_operators(mw.fid_scenario(30.0 / KM2, 0.5), WIN, seed=2)
    thinned = mw.clustered_thinning(dep, 2.0 / KM2, 300.0, seed=8)
    assert 0 < thinned.n_sites < dep.n_sites
    # survivors are a subset of the original pattern, occupants intact
    orig = {(x, y): o for (x, y), o in zip(map(tuple, dep.xy), dep.occupants)}
    assert all(orig[(x, y)] == o for (x, y), o in
               zip(map(tuple, thinned.xy), thinned.occupants))
    with pytest.raises(ConfigError):
        mw.clustered_thinning(dep, 0.0, 300.0, seed=8)
    with pytest.raises(ConfigError):
        mw.clustered_thinning(dep, 2.0 / KM2, -1.0, seed=8)


def test_deployment_csv_round_trip(tmp_path):
    dep = mw.couple_two_operators(mw.TwoOpSpec(20.0 / KM2, 0.8, 0.3), WIN, seed=6)
    path = tmp_path / "sites.csv"
    mw.write_deployment_csv(dep, path)
    back = mw.read_deployment_csv(path)
    assert back.window == dep.window  # window comment survives
    assert np.array_equal(back.occupants, dep.occupants)
    assert np.allclose(back.xy, dep.xy, rtol=0, atol=0)


def test_read_csv_without_window_uses_bounding_box(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text(
        "site_id,x_m,y_m,operators\n"
        "0,100.0,200.0,1\n"
        "1,300.0,250.0,1;2\n"
    )
    dep = mw.read_deployment_csv(path)
    assert dep.n_sites == 2
    assert dep.window.contains(100.0, 200.0) and dep.window.contains(300.0, 250.0)
    assert dep.occupants.tolist() == [1, 3]


def test_read_csv_rejects_garbage(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("x,y\n1,2\n")
    with pytest.raises(DataError):
        mw.read_deployment_csv(bad_header)
    bad_ops = tmp_path / "o.csv"
    bad_ops.write_text("site_id,x_m,y_m,operators\n0,1.0,2.0,zero\n")
    with pytest.raises(DataError):
        mw.read_deployment_csv(bad_ops)
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        mw.read_deployment_csv(empty)


def test_read_csv_skips_blank_rows_and_keeps_row_numbers(tmp_path):
    body = (
        "# window_m,0.0,1000.0,0.0,1000.0\n"
        "\n"
        "site_id,x_m,y_m,operators\n"
        "   \n"
        "0,1.0,2.0,1\n"
        ",,,\n"
        "\n"
        "1,3.0,4.0,2\n"
    )
    path = tmp_path / "blanks.csv"
    path.write_text(body)
    dep = mw.read_deployment_csv(path)
    assert dep.xy.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert dep.occupants.tolist() == [1, 2]
    # row numbers count the header and the non-blank rows after the window line
    path.write_text(body + " , \n1,5.0,bad,2\n")
    with pytest.raises(DataError, match=r"blanks\.csv:4: bad coordinate"):
        mw.read_deployment_csv(path)
    path.write_text(body + "\t\n2,5.0,6.0\n")
    with pytest.raises(DataError, match=r"blanks\.csv:4: expected 4 columns, got 3"):
        mw.read_deployment_csv(path)


def test_read_csv_with_crlf_line_endings(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(
        b"# window_m,0.0,1000.0,0.0,500.0\r\n"
        b"site_id,x_m,y_m,operators\r\n"
        b"0,100.5,200.25,1;2\r\n"
        b"\r\n"
        b"1,300.0,250.0,2\r\n"
    )
    dep = mw.read_deployment_csv(path)
    assert dep.window == mw.Window(0.0, 1000.0, 0.0, 500.0)
    assert dep.xy.tolist() == [[100.5, 200.25], [300.0, 250.0]]
    assert dep.occupants.tolist() == [3, 2]


def test_read_csv_operator_texts_with_spaces_and_order(tmp_path):
    path = tmp_path / "ops.csv"
    path.write_text(
        "site_id,x_m,y_m,operators\n"
        "0,1.0,1.0, 1;2 \n"
        "1,2.0,2.0,2;1\n"
        "2,3.0,3.0,1;2\n"
    )
    assert mw.read_deployment_csv(path).occupants.tolist() == [3, 3, 3]


def test_read_csv_reports_late_bad_operator_with_its_row(tmp_path):
    path = tmp_path / "late.csv"
    good = "".join(f"{i},{i % 97}.5,{i % 89}.25,{1 + i % 2}\n" for i in range(5000))
    path.write_text("site_id,x_m,y_m,operators\n" + good + "5000,1.0,1.0,1;x\n")
    with pytest.raises(DataError, match=r"late\.csv:5002: bad operator list '1;x'"):
        mw.read_deployment_csv(path)


def test_read_csv_rejects_non_finite_values(tmp_path):
    path = tmp_path / "nf.csv"
    for value in ("inf", "-inf", "nan"):
        path.write_text(f"site_id,x_m,y_m,operators\n0,1.0,2.0,1\n1,3.0,{value},2\n")
        with pytest.raises(DataError, match=r"nf\.csv:3: bad coordinate: .* is not finite"):
            mw.read_deployment_csv(path)
        path.write_text(f"# window_m,0.0,{value},0.0,10.0\nsite_id,x_m,y_m,operators\n")
        with pytest.raises(DataError, match="bad window comment: bounds must be finite"):
            mw.read_deployment_csv(path)


def test_csv_write_read_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    xy = rng.uniform(0.0, 5000.0, size=(30, 2))
    xy[0] = (0.1 + 0.2, 1000.0 / 3.0)  # repr needs 17 significant digits
    occ = np.array([1, 2, 3] * 10, dtype=np.uint16)
    dep = mw.Deployment(WIN, xy, occ)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    mw.write_deployment_csv(dep, first)
    back = mw.read_deployment_csv(first)
    assert np.array_equal(back.xy, xy) and np.array_equal(back.occupants, occ)
    mw.write_deployment_csv(back, second)
    assert first.read_bytes() == second.read_bytes()
    assert "0.30000000000000004,333.3333333333333,1\n" in first.read_text()


def test_csv_writer_blocks_match_a_row_by_row_reference(tmp_path):
    # The reader ignores site_id, so only a byte comparison sees an id that
    # slips at a block boundary.
    n = 2 * geometry._WRITE_BLOCK_ROWS + 37
    rng = np.random.default_rng(8)
    xy = rng.uniform(0.0, 5000.0, size=(n, 2))
    occ = rng.integers(1, 8, size=n).astype(np.uint16)
    path = tmp_path / "sites.csv"
    mw.write_deployment_csv(mw.Deployment(WIN, xy, occ), path)
    texts = {1: "1", 2: "2", 3: "1;2", 4: "3", 5: "1;3", 6: "2;3", 7: "1;2;3"}
    want = ["# window_m,0.0,5000.0,0.0,5000.0", "site_id,x_m,y_m,operators"]
    for i in range(n):
        want.append(f"{i},{float(xy[i, 0])!r},{float(xy[i, 1])!r},{texts[int(occ[i])]}")
    assert path.read_text().split("\n") == want + [""]


# ---------------------------------------------------------------------------
# The block reader against the row-by-row reader as it was before it


def _oracle_read_rows(path, _fh):
    """The reader as it was before the block reader: a strict UTF-8 open, the row
    loop alone, and a scan of the raw lines to name one that is not UTF-8."""
    with path.open(newline="", encoding="utf-8") as fh:  # in place of the reader's open
        try:
            return _oracle_row_loop(path, fh)
        except UnicodeDecodeError as exc:
            with path.open("rb") as raw:
                n = next(n for n, line in enumerate(raw, 1) if not _is_utf8(line))
            raise DataError(f"{path}: line {n}: not UTF-8 text ({exc.reason})") from exc


def _is_utf8(line):
    try:
        line.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _oracle_row_loop(path, fh):
    xy = array("d")
    occ = array("H")
    bits_of: dict[str, int] = {}
    first = fh.readline()
    file_window = None
    if first.startswith(geometry._WINDOW_COMMENT):
        file_window = geometry._read_window_comment(path, first)
        first = ""
    rows = csv.reader(chain((first,), fh))
    header = next((r for r in rows if "".join(r).strip()), None)
    if header is None:
        raise DataError(f"{path}: empty file (missing header)")
    if tuple(f.strip() for f in header) != geometry.CSV_HEADER:
        raise DataError(
            f"{path}: expected header {','.join(geometry.CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    lineno = 1
    for row in rows:
        if not "".join(row).strip():
            continue
        lineno += 1
        if len(row) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
        try:
            x = float(row[1])
            y = float(row[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad coordinate: {exc}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DataError(f"{path}:{lineno}: bad coordinate: ({x}, {y}) is not finite")
        text = row[3]
        bits = bits_of.get(text)
        if bits is None:
            try:
                bits = bits_of[text] = mw.OperatorSet.parse(text).bits
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
        xy.append(x)
        xy.append(y)
        occ.append(bits)
    return xy, occ, file_window


def _outcome(path):
    try:
        dep = mw.read_deployment_csv(path)
    except (ValueError, csv.Error) as exc:  # DataError is a ValueError
        return type(exc), str(exc)
    return dep.window, dep.xy.tobytes(), dep.occupants.tobytes()


def _outcome_and_hand_off(path):
    """The reader's outcome on ``path``, and whether a block handed it to the row loop."""
    refused = []
    read_blocks = geometry._read_blocks

    def spy(fh, xy, occ):
        done, lines = read_blocks(fh, xy, occ)
        refused.append(bool(lines))
        return done, lines

    with mock.patch.object(geometry, "_read_blocks", spy):
        return _outcome(path), any(refused)


def _read_as_oracle(path):
    """Assert the reader matches the oracle on ``path``; True if the row loop ran."""
    with mock.patch.object(geometry, "_read_rows", _oracle_read_rows):
        want = _outcome(path)
    got, loop = _outcome_and_hand_off(path)
    assert got == want
    return loop


def _good(i):
    return f"{i},{i % 97}.5,{i % 89}.25,{(1, 2, '1;2')[i % 3]}\n"


def _site_file(tmp_path, rows, window=True, name="sites.csv"):
    path = tmp_path / name
    head = "# window_m,-10.0,1000.0,-10.0,1000.0\n" if window else ""
    path.write_bytes((head + "site_id,x_m,y_m,operators\n" + "".join(rows)).encode())
    return path


B = geometry._READ_BLOCK_ROWS
_GOOD = [_good(i) for i in range(3 * B)]


def _in_block(k, *rows, at=5):
    """Three blocks of good rows with ``rows`` put in block k (0-based) from line ``at``."""
    return _GOOD[:k * B + at] + list(rows) + _GOOD[k * B + at + len(rows):]


@pytest.mark.parametrize("rows, loop", [
    (_GOOD, False),
    (_in_block(0, '"7","1.5","2.5","1;2"\n', '8,3.0,4.0," 2 "\n'), False),
    # a quoted field whose line break ends block 0; block 1 would take the
    # rest of the field for a good row
    (_in_block(0, '9,1.0,2.0,"1\n', 'a",3.0,4.0,2\n', at=B - 1), True),
    (_in_block(1, '9,1.0,2.0,"1\r\n', ';2"\r\n'), True),
    (_in_block(1, "\n", "\r\n", "\n"), False),
    (_GOOD[:B] + ["\n"] * B, False),
    (_in_block(1, "   \n"), True),
    (_in_block(1, ",,,\n"), True),
    (_in_block(1, "\t\n"), True),
    ([r.replace("\n", "\r\n") for r in _GOOD], False),
    ([r.replace("\n", "\r") for r in _GOOD], False),
    (_in_block(1, "9,1.0,2.0\n"), True),
    (_in_block(1, "9,1.0,2.0,1,5\n"), True),
    (_in_block(1, "9,1_0,2.0,1\n"), True),
    (_in_block(1, "9,١٢,2.0,1\n"), True),
    (_in_block(2, "9,inf,2.0,1\n"), True),
    (_in_block(2, "9,1.0,nan,1\n"), True),
    (_in_block(2, "9,1.0,2.0,1;x\n"), True),
    (_in_block(2, "9,1.0,2.0,0\n"), True),
    ([], False),
], ids=["good", "quoted", "newline-at-block-end", "crlf-newline-in-quotes",
        "empty-lines", "empty-last-block", "spaces-row", "commas-row", "tab-row", "crlf",
        "cr", "3-columns", "5-columns", "underscore", "arabic-digits", "inf", "nan",
        "bad-operator", "operator-0", "header-only"])
def test_block_reader_reads_as_the_row_loop(tmp_path, rows, loop):
    for window in (True, False):
        assert _read_as_oracle(_site_file(tmp_path, rows, window)) == loop


def test_block_reader_leaves_long_fields_and_late_bad_bytes_to_the_row_loop(tmp_path):
    # a field over csv's size limit is a data error that names its row
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(64)
        path = _site_file(tmp_path, _in_block(2, f"{'9' * 80},1.0,2.0,1\n"))
        got, loop = _outcome_and_hand_off(path)
    finally:
        csv.field_size_limit(limit)
    assert loop and got == (DataError, f"{path}:{2 * B + 7}: field larger than field limit (64)")
    # a bad row before bytes that are not UTF-8 in the same block is reported
    # as the row, although the block cannot be read whole
    rows = _in_block(0, "9,x,2.0,1\n")
    rows[B - 10] = "9,1.0,2.0,@\n"
    path = _site_file(tmp_path, rows)
    path.write_bytes(path.read_bytes().replace(b"@", b"\xff1"))
    assert _read_as_oracle(path)
    assert _outcome(path)[1].endswith(":7: bad coordinate: could not convert string to float: 'x'")
    path = _site_file(tmp_path, _GOOD)
    path.write_bytes(path.read_bytes() + b"9,1.0,2.0,\xff1\n")
    assert _read_as_oracle(path)
    assert _outcome(path)[1].endswith(f"line {3 * B + 3}: not UTF-8 text (invalid start byte)")


def test_bytes_that_are_not_utf8_in_a_site_id_hand_the_block_to_the_row_loop(tmp_path):
    # loadtxt keeps one character of a site_id, so only the UTF-8 check refuses it
    path = _site_file(tmp_path, _in_block(1, "@,1.0,2.0,1\n"))
    path.write_bytes(path.read_bytes().replace(b"@", b"\xe2\x82"))
    assert _read_as_oracle(path)
    assert _outcome(path)[1].endswith(f"line {B + 8}: not UTF-8 text (invalid continuation byte)")


_ROW_KINDS = st.one_of(
    st.builds(lambda i, x, y, ops: f"{i},{x!r},{y!r},{ops}",
              st.integers(0, 99), st.floats(-10.0, 1000.0), st.floats(-10.0, 1000.0),
              st.sampled_from(["1", "2", "1;2", " 2;1 ", '"1;2"', "3"])),
    st.sampled_from([
        "", "   ", ",,,", "\t", '"0","1.5","2.5","1;2"', '1,2.0,3.0,"1\n;2"', '1,2.0,3.0,"2',
        '1,"2"0,3.0,1', "1,2.0,3.0", "1,2.0,3.0,1,5", "1,1_0,3.0,1", "1,١,3.0,1",
        "1,inf,3.0,1", "1,2.0,nan,1", "1,2.0,3.0,1;x", "1,2.0,3.0,", '1,2.0,3.0,1"2',
        "1,2e3,-3.0E-1,2", "1,2.0\xa0,3.0,1", 'a",3.0,4.0,2',
    ]),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(_ROW_KINDS, st.sampled_from(["\n", "\r\n", "\r"])),
                     max_size=12),
       window=st.booleans(), block=st.integers(1, 4))
def test_block_reader_reads_any_mix_of_rows_as_the_row_loop(tmp_path, rows, window, block):
    path = _site_file(tmp_path, [row + end for row, end in rows], window)
    with mock.patch.object(geometry, "_READ_BLOCK_ROWS", block):
        _read_as_oracle(path)


def test_block_reader_runs_no_row_loop_on_a_written_file(tmp_path):
    rng = np.random.default_rng(5)
    n = 2 * B + 3
    dep = mw.Deployment(WIN, rng.uniform(0.0, 5000.0, (n, 2)),
                        rng.integers(1, 8, n).astype(np.uint16))
    path = tmp_path / "sites.csv"
    mw.write_deployment_csv(dep, path)
    assert not _read_as_oracle(path)
    back = mw.read_deployment_csv(path)
    assert np.array_equal(back.xy, dep.xy) and np.array_equal(back.occupants, dep.occupants)


def _read_through_a_pipe(tmp_path, path):
    """``_outcome_and_hand_off`` of ``path`` fed through a named pipe.

    The writer and the reader run in daemon threads joined with a timeout,
    so a reader that blocks fails the test instead of hanging the suite.
    """
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    got = []

    def feed():
        with contextlib.suppress(BrokenPipeError):  # the reader may stop at a bad row
            pipe.write_bytes(path.read_bytes())

    threads = [threading.Thread(target=feed, daemon=True),
               threading.Thread(target=lambda: got.append(_outcome_and_hand_off(pipe)),
                                daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert got and not any(thread.is_alive() for thread in threads)
    return got[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("rows, loop", [
    (_GOOD[:B + 5], False),
    (_in_block(0, '9,1.0,2.0,"1\n', 'a",3.0,4.0,2\n', at=B - 1), True),
    (_in_block(1, "   \n"), True),
    (_in_block(1, "9,1.0,2.0,1;x\n"), True),
], ids=["good", "newline-at-block-end", "spaces-row", "bad-operator"])
def test_a_pipe_reads_as_its_file(tmp_path, rows, loop):
    path = _site_file(tmp_path, rows)
    got = _read_through_a_pipe(tmp_path, path)
    want = tuple(v.replace("sites.csv", "pipe.csv") if isinstance(v, str) else v
                 for v in _outcome(path))
    assert got == (want, loop)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_with_bytes_that_are_not_utf8_names_the_line(tmp_path):
    path = _site_file(tmp_path, ["0,1.0,2.0,1\n", "1,3.0,4.0,@1\n", "2,5.0,6.0,2\n"])
    path.write_bytes(path.read_bytes().replace(b"@", b"\xff"))
    (error, message), loop = _read_through_a_pipe(tmp_path, path)
    assert loop and error is DataError
    assert message == f"{tmp_path / 'pipe.csv'}: line 4: not UTF-8 text (invalid start byte)"


def _traced_peak(path):
    mw.read_deployment_csv(path)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        dep = mw.read_deployment_csv(path)
        return tracemalloc.get_traced_memory()[1], dep.xy.nbytes + dep.occupants.nbytes
    finally:
        tracemalloc.stop()


def test_block_reader_memory_is_bounded_by_one_block(tmp_path):
    rng = np.random.default_rng(8)
    peaks = []
    for n in (B, 3 * B + 17):
        dep = mw.Deployment(WIN, rng.uniform(0.0, 5000.0, (n, 2)),
                            rng.integers(1, 8, n).astype(np.uint16))
        mw.write_deployment_csv(dep, tmp_path / f"{n}.csv")
        peaks.append(_traced_peak(tmp_path / f"{n}.csv"))
    (one_block, _), (peak, out_bytes) = peaks
    # the output arrays grow with the file; what parses a block must not
    assert peak < one_block + out_bytes


def test_block_reader_reports_a_bad_row_in_the_last_block_by_its_line(tmp_path):
    path = _site_file(tmp_path, _GOOD + ["\n", "9,1.0,2.0,1;0\n"], name="late.csv")
    with pytest.raises(DataError, match=rf"late\.csv:{3 * B + 2}: bad operator list '1;0'"):
        mw.read_deployment_csv(path)


def test_blank_bodies_read_without_warnings(tmp_path):
    # loadtxt warns of "no data" on a block of empty lines
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in ([], ["\n", "\r\n"], _GOOD[:B] + ["\n"]):
            dep = mw.read_deployment_csv(_site_file(tmp_path, rows))
            assert dep.n_sites == len(rows) - rows.count("\n") - rows.count("\r\n")
        with pytest.raises(DataError, match="empty deployment with no window metadata"):
            mw.read_deployment_csv(_site_file(tmp_path, ["\n"], window=False))


# ---------------------------------------------------------------------------
# The grid search against SciPy's KD-tree (SciPy is a test oracle only)

def _pair_set(i, j, keep):
    return {(min(a, b), max(a, b)) for a, b in zip(i[keep].tolist(), j[keep].tolist())}


@pytest.mark.parametrize("seed", range(3))
def test_near_pairs_equal_kdtree_pairs(seed):
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    # clumps give dense cells, the sparse rest empty ones; coordinates far
    # from the origin make every difference round
    clumps = rng.uniform(-2e5, -1.99e5, size=(30, 2))
    xy = np.concatenate((clumps[rng.integers(0, 30, 1500)] + rng.normal(0, 4, (1500, 2)),
                         rng.uniform(-2e5, -1.95e5, size=(1500, 2))))
    other = rng.uniform(-2e5, -1.95e5, size=(200, 2))
    for r in (0.5, 6.0, np.nextafter(25.0, 0.0), 140.0):
        i, j, d2 = near_pairs(xy, r)
        ref = cKDTree(xy).query_pairs(r, output_type="ndarray").reshape(-1, 2)
        assert _pair_set(i, j, d2 <= r * r) == _pair_set(ref[:, 0], ref[:, 1], slice(None))
        i, j, d2 = near_pairs(xy, r, other)
        got = set(zip(i[d2 <= r * r].tolist(), j[d2 <= r * r].tolist()))
        balls = cKDTree(other).query_ball_point(xy, r)
        assert got == {(a, b) for a, ball in enumerate(balls) for b in ball}


def test_near_pairs_refuses_oversized_searches_before_building_them():
    # 3,000 points in one cell: 4.5e6 candidates, counted but never built
    xy = np.random.default_rng(1).uniform(0.0, 100.0, size=(3000, 2))
    assert 3000 * 2999 // 2 > geometry.MAX_NEAR_PAIRS
    with pytest.raises(ConfigError, match="radius of 1000.0 m gives 4498500 candidate pairs"):
        near_pairs(xy, 1000.0)
    with pytest.raises(ConfigError, match="merge radius"):
        mw.merge_colocated(mw.Deployment(WIN, xy, np.ones(3000, dtype=np.uint16)), -1.0)
    for r in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            near_pairs(xy, r)
    i, j, d2 = near_pairs(xy[:0], 5.0)
    assert i.size == j.size == d2.size == 0


def _centers(window, parent_density, seed):
    """The cluster centres clustered_thinning draws for this seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_centers = int(rng.poisson(parent_density * window.area()))
    centers = np.empty((n_centers, 2))
    centers[:, 0] = rng.uniform(window.x_min, window.x_max, n_centers)
    centers[:, 1] = rng.uniform(window.y_min, window.y_max, n_centers)
    return centers


def _kdtree_thinning(dep, parent_density, keep_radius, seed):
    """clustered_thinning as a KD-tree nearest-centre query computes it."""
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(_centers(dep.window, parent_density, seed)).query(dep.xy, k=1)
    return dep.xy[dist <= keep_radius]


@pytest.mark.parametrize("seed", [8, 9, 10, 11])
def test_clustered_thinning_keeps_the_kdtree_sites(seed):
    dep = mw.couple_two_operators(mw.fid_scenario(30.0 / KM2, 0.5), WIN, seed=2)
    for parent, radius in ((2.0 / KM2, 300.0), (40.0 / KM2, 60.0), (0.3 / KM2, 900.0)):
        thinned = mw.clustered_thinning(dep, parent, radius, seed=seed)
        assert np.array_equal(thinned.xy, _kdtree_thinning(dep, parent, radius, seed))
    # sites on circles of the keep radius around the centres: their
    # distances round to either side of it
    parent, radius = 2.0 / KM2, 300.0
    angle = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    ring = (_centers(WIN, parent, seed)[:, None, :]
            + radius * np.stack((np.cos(angle), np.sin(angle)), axis=-1)).reshape(-1, 2)
    ring = ring[WIN.contains(ring[:, 0], ring[:, 1])]
    dep = mw.Deployment(WIN, ring, np.ones(ring.shape[0], dtype=np.uint16))
    thinned = mw.clustered_thinning(dep, parent, radius, seed=seed)
    assert 0 < thinned.n_sites < dep.n_sites
    assert np.array_equal(thinned.xy, _kdtree_thinning(dep, parent, radius, seed))
