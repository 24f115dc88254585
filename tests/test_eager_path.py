"""Every benchmark job, with each complex checked against its eagerly
assembled form.

``homology_dims`` builds the blocks of a complex on their uncleared rows
and numbers the top total degree's columns by the packed codes its rows
reach.  A read of ``.boundaries`` lists the top total degree, pulls every
block onto all its rows, with the listed columns encoded, and totalizes the
grid's two axes; ranked apart from ``homology_dims``, with no clearing
(``plain_rank_dims``), it must give the same homology, and the job its
frozen exit code and report.  The grid job's blocks, the top total
degree's included, must also equal those that ``_push_labeling``
assembles from its listed terms.
"""

import importlib.util
import io
import sys
from pathlib import Path

import pytest

from lodayhom import cli, loday, oracle, stability
from test_loday import plain_rank_dims
from test_pushforward import assert_grid_equals_reference

_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
_workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)

JOBS = [job for jobs in _workloads.WORKLOADS.values() for job in jobs]


def _run(job):
    out = io.StringIO()
    code = cli.run(cli.parse_args(list(job.argv)), out, io.StringIO())
    return code, out.getvalue()


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job.name)
def test_deferred_equals_eager(job, monkeypatch):
    checked = []

    def homology_both_ways(complex_):
        table = loday.homology_dims(complex_)
        assert plain_rank_dims(complex_) == table.dims
        checked.append(complex_)
        return table

    grids = []

    def kept_grid(*args, **kwargs):
        grids.append((oracle.torus_bicomplex(*args, **kwargs), args[1]))
        return grids[-1][0]

    for module in (cli, stability, oracle):
        monkeypatch.setattr(module, "homology_dims", homology_both_ways)
    monkeypatch.setattr(cli, "torus_bicomplex", kept_grid)
    assert _run(job) == (job.exit_code, job.report)
    assert checked
    assert bool(grids) == (job.argv[0] == "oracle-bicomplex")
    for grid, coefficients in grids:
        assert_grid_equals_reference(grid, coefficients)
