import dataclasses

import pytest

from levylab.convergence import ConvergenceRow
from levylab.csvfmt import CsvRecord
from levylab.sde import ExitTimeRecord, TransitionRecord
from levylab.stability import StabilityReport
from levylab.studies import ExitTimeStudy, TransitionStudy
from levylab.tail_index import TailEstimate
from levylab.training import SweepCell, SweepGroup

RECORD_TYPES = (ExitTimeRecord, TransitionRecord, TailEstimate, ExitTimeStudy,
                TransitionStudy, ConvergenceRow, SweepCell, SweepGroup)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_type_is_checked():
    assert set(RECORD_TYPES) <= set(_subclasses(CsvRecord))


@pytest.mark.parametrize("record_type", list(_subclasses(CsvRecord)), ids=lambda c: c.__name__)
def test_header_names_only_fields(record_type):
    # a misspelled or stale column name would only fail when a row is written
    names = record_type.CSV_HEADER.split(",")
    fields = {f.name for f in dataclasses.fields(record_type)}
    assert len(set(names)) == len(names)
    assert set(names) <= fields


def test_row_follows_header_order():
    group = SweepGroup(ratio=0.5, n_cells=2, n_diverged=1, mean_test_error=0.25,
                       mean_alpha_hat=float("nan"))
    assert group.csv_row() == "0.5,2,1,0.25,nan"
    est = TailEstimate(alpha_hat=1.5, k1=10, k2=20, n_used=200, n_dropped=3, unreliable=True)
    assert est.csv_row() == "1.5,10,20,200,3"


@pytest.mark.parametrize("c_st, verdict", [(0.05, "true"), (0.0625, "false")])
def test_stability_row_matches_header(c_st, verdict):
    report = StabilityReport(alpha_x=1.5, alpha_12=1.25, alpha_xp=1.5, alpha_123=1.5,
                             c_st=c_st, threshold=0.05)
    cells = report.csv_row().split(",")
    assert len(cells) == len(StabilityReport.CSV_HEADER.split(","))
    assert cells[-1] == verdict
