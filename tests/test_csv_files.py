"""The CSV run files: exact bytes of each writer, and the epochs.csv round trip.

The pinned bytes are what the writers produced before the columns were
derived from the record dataclasses; a change to the cell format shows here
as a byte difference.
"""

import dataclasses

import pytest

from wtalab import InputError
from wtalab._files import csv_field, csv_header, parse_csv_row
from wtalab.harness import (
    EpochRecord,
    SweepCell,
    read_epoch_csv,
    write_epoch_csv,
    write_sweep_csv,
)
from wtalab.metrics import REPORT_COLUMNS, MetricsReport, write_report_csv

RECORDS = [
    # A 17-digit float, a float repr writes with an exponent, and wall_s
    # rounded down.
    EpochRecord(0, 10.0, 0.1 + 0.2, 1 / 3, 2 / 3, 0.25, 1e-300, 3, 0.12344999),
    # No schedule value, and wall_s rounded up to the next unit.
    EpochRecord(1, None, 1.5, 0.5, 0.6, 0.0, 0.8, 2, 1.99996),
]

EPOCHS_CSV = (
    b"epoch,schedule_value,train_loss,val_min_ade,val_min_fde,val_miss_rate,"
    b"val_brier_fde,effective_hypotheses,wall_s\n"
    b"0,10.0,0.30000000000000004,0.3333333333333333,0.6666666666666666,0.25,"
    b"1e-300,3,0.1234\n"
    b"1,,1.5,0.5,0.6,0.0,0.8,2,2.0000\n"
)

REPORT = MetricsReport(100, 0.123456789012345, 1 / 3, 0.25, 0.7071067811865476, 2, [60, 40, 0])

METRICS_CSV = (
    b"n_scenes,min_ade,min_fde,miss_rate,brier_fde,effective_hypotheses,"
    b"winner_histogram\n"
    b"100,0.123456789012345,0.3333333333333333,0.25,0.7071067811865476,2,60;40;0\n"
)

CELLS = [
    SweepCell(t0=40.0, rho=0.78, seed=4, status="ok", report=REPORT),
    SweepCell(
        t0=0.1 + 0.2,
        rho=1.0,
        seed=5,
        status="failed",
        error='ValueError: bad, "quoted"\nsecond line',
    ),
]

SWEEP_CSV = (
    b"t0,rho,seed,status,error,min_ade,min_fde,miss_rate,brier_fde,"
    b"effective_hypotheses\n"
    b"40.0,0.78,4,ok,,0.123456789012345,0.3333333333333333,0.25,"
    b"0.7071067811865476,2\n"
    b'0.30000000000000004,1.0,5,failed,"ValueError: bad, ""quoted""\n'
    b'second line",,,,,\n'
)


def test_epoch_csv_bytes_and_round_trip(tmp_path):
    path = tmp_path / "epochs.csv"
    write_epoch_csv(RECORDS, path)
    assert path.read_bytes() == EPOCHS_CSV
    rounded = [dataclasses.replace(r, wall_s=float(f"{r.wall_s:.4f}")) for r in RECORDS]
    assert read_epoch_csv(path) == rounded


def test_report_csv_bytes(tmp_path):
    path = tmp_path / "metrics.csv"
    write_report_csv(REPORT, path)
    assert path.read_bytes() == METRICS_CSV
    assert REPORT_COLUMNS == tuple(f.name for f in dataclasses.fields(MetricsReport))


def test_sweep_csv_bytes(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(CELLS, path)
    assert path.read_bytes() == SWEEP_CSV


@pytest.mark.parametrize(
    "value, cell",
    [(None, ""), (0.1 + 0.2, "0.30000000000000004"), (-0.0, "-0.0"), (7, "7"),
     ([3, 0, 12], "3;0;12"), ("ok", "ok")],
)
def test_csv_field(value, cell):
    assert csv_field(value) == cell


def test_parse_csv_row_reads_each_cell_by_its_annotation():
    for record in RECORDS:
        row = ",".join(csv_field(getattr(record, name)) for name in csv_header(EpochRecord))
        assert parse_csv_row(EpochRecord, row, "here", InputError) == record


@pytest.mark.parametrize(
    "line, message",
    [
        ("1,2", "here: expected 9 fields, got 2"),
        ("1,,1.5,0.5,0.6,0.0,0.8,x,2.0", "here: invalid literal for int() with base 10: 'x'"),
        ("1,,,0.5,0.6,0.0,0.8,2,2.0", "here: could not convert string to float: ''"),
        ("abc", "here: expected 9 fields, got 1"),
        ("1,,1.5,0.5,0.6,0.0,0.8,2,2.0,7", "here: expected 9 fields, got 10"),
        ("1.5,,1.5,0.5,0.6,0.0,0.8,2,2.0", "here: invalid literal for int() with base 10: '1.5'"),
        ("1,,1.5,x,0.6,0.0,0.8,2,2.0", "here: could not convert string to float: 'x'"),
    ],
)
def test_parse_csv_row_raises_the_given_error(line, message):
    with pytest.raises(InputError) as excinfo:
        parse_csv_row(EpochRecord, line, "here", InputError)
    assert str(excinfo.value) == message
