"""Checks of the benchmark itself.

The frozen reports are compared with the closed forms their `source` notes
quote, and two traced passes in different job orders must give identical
counts that reproduce the recorded baseline basis sizes.  The reference
probe must sample during a job and leave the alarm as it found it.
"""

import json
import signal
import statistics
import time
from itertools import product

import pytest

import run as bench
import spans
from spans import Tracer, layer_metrics
from workloads import WORKLOADS


def _jobs(workload):
    return {job.name: job for job in WORKLOADS[workload]}


def _dims(job):
    return json.loads(job.report)["dims"]


def _flag(job, name):
    return job.argv[job.argv.index(name) + 1]


def _free_graded_commutative(generators, max_degree, max_weight):
    """Dimensions per (degree, weight) of the free graded-commutative algebra
    on generators given as (degree, weight): polynomial on even degrees,
    exterior on odd ones."""
    exponents = [range(2) if d % 2 else range(max_degree // d + 1)
                 for d, _ in generators]
    dims = {}
    for powers in product(*exponents):
        degree = sum(e * d for e, (d, _) in zip(powers, generators))
        weight = sum(e * w for e, (_, w) in zip(powers, generators))
        if degree <= max_degree and weight <= max_weight:
            dims[(degree, weight)] = dims.get((degree, weight), 0) + 1
    return dims


def test_torus_against_wedge_reports():
    jobs = _jobs("headline")
    for name, torus_two in (("compare-F3", 3), ("compare-F2", 4),
                            ("compare-Q", 3)):
        assert _dims(jobs[name]) == {"0": [1, 1], "1": [2, 2],
                                     "2": [torus_two, 4]}
        assert jobs[name].exit_code == (0 if torus_two == 4 else 10)
    assert list(_dims(jobs["grid-F3"]).values()) == [1, 2, 3, 6, 8]


def test_weighted_reports_follow_free_algebras():
    jobs = _jobs("weighted")
    for name in ("circle-poly-F3", "circle-poly-Q"):
        # L_S1(k[t]; k) is the exterior algebra on dt, of degree 1, weight 1
        free = _free_graded_commutative([(1, 1)], 8, 12)
        assert _dims(jobs[name]) == {
            str(n): {str(w): d for (m, w), d in free.items() if m == n}
            for n in range(9)}
    # reduced homology of S1 x S1, placed in weight 1
    free = _free_graded_commutative([(1, 1), (1, 1), (2, 1)], 2, 5)
    expected = {str(n): {str(w): [d, d] for (m, w), d in sorted(free.items())
                         if m == n} for n in range(3)}
    assert _dims(jobs["product-poly-F3"]) == expected


def test_hochschild_reports_follow_closed_form():
    for job in WORKLOADS["hochschild"]:
        m = int(_flag(job, "--algebra")[len("truncpoly("):-1])
        field = _flag(job, "--field")
        divides = field != "Q" and m % int(field[1:]) == 0
        degree = int(_flag(job, "--max-degree"))
        expected = {"0": m}
        expected.update({str(n): m if divides else m - 1
                         for n in range(1, degree + 1)})
        assert _dims(job) == expected


def _traced_pass(cli, jobs, seed):
    tracer = Tracer()
    order = next(bench.pass_orders(jobs, seed))
    with tracer.installed():
        for job in order:
            tracer.job = job.name
            ok, _, problem = bench.run_job(cli, job)
            assert ok, problem
    return tracer, [job.name for job in order]


def _counts(tracer):
    return {name: value for name, (value, unit)
            in layer_metrics(tracer.spans, tracer, None, 0.0).items()
            if unit == "count"}


def test_traced_counts_repeat_and_match_baseline():
    cli = bench.import_cli()
    original = cli.run
    jobs = [job for job in WORKLOADS["headline"]
            if job.name in ("compare-F3", "grid-F3")]
    (first, order1), (second, order2) = (_traced_pass(cli, jobs, seed)
                                         for seed in (0, 1))
    assert order1 != order2
    assert cli.run is original
    assert _counts(first) == _counts(second)
    for tracer in (first, second):
        # the degree-2 diagonal torus and wedge, and the degree-4 grid
        bases = [s.counts["basis"] for s in tracer.spans
                 if s.name == "loday.build_complex"]
        assert bases == [32272, 32272]
        assert _counts(tracer)["oracle.terms"] == 5829
        assert tracer.absent == []


def test_missing_hook_is_recorded_as_absent(monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (
        ("oracle", "no_such_helper", None),
        ("algebra", "NoSuchAlgebra.mul_lincomb", None)))
    bench.import_cli()
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["oracle.no_such_helper",
                             "algebra.NoSuchAlgebra.mul_lincomb"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_job_orders_are_permutations(workload):
    jobs = WORKLOADS[workload]
    orders = bench.pass_orders(jobs, 7)
    for _ in range(3):
        assert sorted(job.name for job in next(orders)) == sorted(
            job.name for job in jobs)


def test_speed_probe_samples_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    probe = bench.SpeedProbe()
    with probe.sampling():
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= bench.REF_MIN_SAMPLES
    assert 0 < probe.typical() <= statistics.fmean(probe.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
