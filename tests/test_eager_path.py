"""Every benchmark job, with each deferred complex checked against its
eagerly assembled form.

``homology_dims`` builds the blocks of a deferred complex on their uncleared
rows and numbers the top total degree's columns by the packed codes its rows
reach.  A read of ``.boundaries`` lists the top total degree, pulls every
block onto all its rows, with the listed columns encoded, and totalizes the
grid's two axes.  For each job of ``bench/workloads.py`` both must give the
same homology, and the job its frozen exit code and report.  The grid job
must also give it with every block pushed by terms from its listed columns,
the top total degree's included.
"""

import importlib.util
import io
import sys
from pathlib import Path

import pytest

from lodayhom import cli, loday, oracle, stability

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
        if complex_._labelings is not None:
            complex_.boundaries
            assert loday.homology_dims(complex_).dims == table.dims
            checked.append(complex_)
        return table

    for module in (cli, stability, oracle):
        monkeypatch.setattr(module, "homology_dims", homology_both_ways)
    assert _run(job) == (job.exit_code, job.report)
    assert checked
    if job.argv[0] == "oracle-bicomplex":
        monkeypatch.setattr(loday, "_index_tables", lambda *args: None)
        assert _run(job) == (job.exit_code, job.report)
