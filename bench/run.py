"""Benchmark of the `loday` command: closed loop, one client, one job at a time.

    python3 bench/run.py --workload headline --seed 1 --seconds 30 --trace 0

Each job goes in-process through `lodayhom.cli.parse_args` and
`lodayhom.cli.run` with stdout and stderr captured, and its exit code and
report bytes are checked against the frozen values in `workloads.py`.  Jobs
repeat, in an order the seed permutes afresh for every pass, until
`--seconds` have passed.

With `--trace 0` the last stdout line reports `wall_ref` (one median pass,
in units of a fixed reference kernel timed during the same jobs, see
`SpeedProbe`), `setup_s` (median over fresh processes, spread over the run,
of the time from process start until the first job can be issued) and
`peak_rss_mb`; the plain `wall_s` is printed above it.  With `--trace 1`
untraced and traced passes alternate; it reports per-layer self times and
exact counts (see `spans.py`), and writes every span to `bench/out/`.  See
`bench/README.md`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, job_seconds, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REF_PERIOD_S = 0.005
REF_KEYS = tuple((i % 31, i % 7) for i in range(600))
REF_MIN_SAMPLES = 8


class SourceMissing(RuntimeError):
    """The checkout holds no `lodayhom` sources to benchmark."""


def import_cli():
    """Import `lodayhom.cli` from this checkout's `src/`, never elsewhere."""
    if not (SRC / "lodayhom" / "cli.py").is_file():
        raise SourceMissing(f"no lodayhom sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from lodayhom import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SourceMissing(f"lodayhom was imported from {cli.__file__}")
    return cli


def pass_orders(jobs, seed):
    """Endless job orders, one seed-determined permutation per pass."""
    rng = random.Random(seed)
    while True:
        order = list(jobs)
        rng.shuffle(order)
        yield order


def _busy_loop_seconds():
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - t0


def pin_quietest_cpu(cpus):
    """Pin this process to the allowed CPU that runs a short busy loop
    fastest right now.

    On a shared host a CPU can be slowed by half, independently of the
    others, in phases of seconds to minutes.  Starting each job on the CPU
    that is quiet at that moment keeps some of that noise out of the job's
    wall time without correcting the time itself.
    """
    def loop_seconds(cpu):
        os.sched_setaffinity(0, {cpu})
        return min(_busy_loop_seconds() for _ in range(3))

    if len(cpus) > 1:
        os.sched_setaffinity(0, {min(sorted(cpus), key=loop_seconds)})


def run_job(cli, job):
    """Run one job in-process; returns (ok, seconds, problem or None)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(cli.parse_args(list(job.argv)), out=out, err=err)
    except (Exception, SystemExit) as exc:  # a failed job must not end the run
        return False, time.perf_counter() - t0, f"{job.name}: raised {exc!r}"
    seconds = time.perf_counter() - t0
    if code != job.exit_code:
        return False, seconds, (f"{job.name}: exit {code}, expected "
                                f"{job.exit_code}; stderr {err.getvalue()!r}")
    if out.getvalue() != job.report:
        return False, seconds, f"{job.name}: report {out.getvalue()!r}"
    return True, seconds, None


def reference_kernel():
    """A fixed piece of interpreter work, dict updates under prebuilt tuple
    keys and modular integer arithmetic, that uses nothing of `lodayhom` and
    allocates no tracked containers but one dict."""
    table = {}
    for i, key in enumerate(REF_KEYS):
        table[key] = (table.get(key, 0) + i * i) % 1_000_003
    return table


class SpeedProbe:
    """Times `reference_kernel` every `REF_PERIOD_S` while a job runs.

    On a shared host the speed of a CPU swings by up to 2x in phases of
    seconds, so a job's wall time says as much about the neighbours as about
    the program.  A SIGALRM handler runs the kernel between the job's own
    bytecodes, in the same thread and on the same CPU, which samples the
    machine's speed during the job.  `typical()` is the mean of the fastest
    three quarters of the samples (a sample hit by a preemption says little
    about the speed); the job's time in reference units is its wall time,
    minus the time spent in the handler, over `typical()`.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        while len(self.samples) < REF_MIN_SAMPLES:  # a job shorter than that
            self._tick()

    def spent(self):
        return sum(self.samples)

    def typical(self):
        fastest = sorted(self.samples)[:max(1, len(self.samples) * 3 // 4)]
        return statistics.fmean(fastest)


def setup_seconds(workload, cpus):
    """Seconds from spawning a fresh interpreter until it has imported
    `lodayhom.cli` and built the job list."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload]
    pin_quietest_cpu(cpus)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return elapsed


def untraced(cli, jobs, workload, seed, seconds, cpus):
    """Closed loop until `seconds` pass, the last pass possibly partial.

    After every job one set-up probe runs, so that the set-up times sample
    the whole run; a first probe before the loop only warms the bytecode
    cache.  Returns per-job wall seconds and reference units, the set-up
    times, the problems and the number of complete passes.
    """
    probe = SpeedProbe()
    walls = {job.name: [] for job in jobs}
    refs = {job.name: [] for job in jobs}
    setups = []
    problems = []
    passes = 0
    probed = 0.0
    setup_seconds(workload, cpus)
    start = time.perf_counter()
    for order in pass_orders(jobs, seed):
        for job in order:
            if passes and time.perf_counter() - start >= seconds:
                print(f"bench: the reference probe took {probed:.2f} s of "
                      "the jobs' wall time")
                return walls, refs, setups, problems, passes
            pin_quietest_cpu(cpus)
            with probe.sampling():
                ok, sec, problem = run_job(cli, job)
            probed += probe.spent()
            wall = sec - probe.spent()
            walls[job.name].append(wall)
            refs[job.name].append(wall / probe.typical())
            if not ok:
                problems.append(problem)
            setups.append(setup_seconds(workload, cpus))
        passes += 1


def traced(cli, jobs, seed, seconds, cpus):
    """Alternate untraced and traced complete passes until `seconds` pass
    and at least one of each has run."""
    tracer = Tracer()
    walls = {False: [], True: []}
    per_pass = []
    problems = []
    orders = []
    start = time.perf_counter()
    for k, order in enumerate(pass_orders(jobs, seed)):
        if k >= 2 and time.perf_counter() - start >= seconds:
            break
        is_traced = k % 2 == 1
        orders.append([job.name for job in order])
        first = len(tracer.spans)
        ids = set()
        with tracer.installed() if is_traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            for job in order:
                tracer.job = f"p{k}.{job.name}"
                ids.add(tracer.job)
                pin_quietest_cpu(cpus)
                ok, _, problem = run_job(cli, job)
                if not ok:
                    problems.append(problem)
            wall = time.perf_counter() - t0
        tracer.job = ""
        walls[is_traced].append(wall)
        if is_traced:
            per_pass.append(layer_metrics(tracer.spans[first:], tracer, ids,
                                          wall))
    return tracer, walls, per_pass, problems, orders


def combine_traced(walls, per_pass):
    """Median self times over traced passes; counts must repeat exactly."""
    metrics = {}
    repeat = True
    for name, (value, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit == "count":
            repeat = repeat and len(set(values)) == 1
            metrics[name] = {"value": value, "unit": unit}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(walls[True]) - statistics.median(walls[False]),
        "unit": "s"}
    return metrics, repeat


def write_trace(workload, seed, tracer, orders):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    jobs = {}
    for job, sec in job_seconds(tracer.spans).items():
        jobs.setdefault(job.split(".", 1)[1], []).append(sec)
    document = {
        "workload": workload,
        "seed": seed,
        "orders": orders,
        "absent_hooks": tracer.absent,
        "job_s": jobs,
        "calls": [[job, name, n] for (job, name), n in tracer.calls.items()],
        "span_fields": ["id", "name", "layer", "job", "parent", "start",
                        "end", "counts"],
        "spans": [[s.sid, s.name, s.layer, s.job, s.parent, s.start, s.end,
                   s.counts] for s in tracer.spans],
    }
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")
    return path, {job: statistics.median(v) for job, v in sorted(jobs.items())}


def measure(args, cpus) -> int:
    """Run one workload and print its report; returns the exit code."""
    name = args.workload
    jobs = WORKLOADS[name]
    try:
        cli = import_cli()
    except SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    repeat = True
    print(f"bench: workload={name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} jobs={len(jobs)}")
    if args.trace:
        tracer, walls, per_pass, problems, orders = traced(
            cli, jobs, args.seed, args.seconds, cpus)
        metrics, repeat = combine_traced(walls, per_pass)
        attempted = len(jobs) * sum(len(w) for w in walls.values())
        path, job_medians = write_trace(name, args.seed, tracer, orders)
        print(f"bench: {len(walls[True])} traced and {len(walls[False])} "
              f"untraced passes; spans written to {path.relative_to(HERE.parent)}")
        for job, sec in job_medians.items():
            print(f"bench: cli.job_s.{job} = {sec:.4f} s")
        if tracer.absent:
            print(f"bench: absent hooks: {', '.join(tracer.absent)}")
        if not repeat:
            print("bench: FAILED counts differ between traced passes")
    else:
        try:
            walls, refs, setups, problems, passes = untraced(
                cli, jobs, name, args.seed, args.seconds, cpus)
        except RuntimeError as exc:  # a failed setup probe
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        attempted = sum(len(v) for v in walls.values())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_ref": {"value": sum(statistics.median(v)
                                      for v in refs.values()), "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
        for job, v in walls.items():
            print(f"bench: {job}: median {statistics.median(v):.4f} s, "
                  f"{statistics.median(refs[job]):.0f} ref over {len(v)} "
                  f"runs: {' '.join(f'{x:.4f}' for x in v)}")
        wall = sum(statistics.median(v) for v in walls.values())
        print(f"bench: wall_s = {wall:.6g} s over {passes} complete passes")
        print(f"bench: setup_s over {len(setups)} probes")
    for problem in problems:
        print(f"bench: FAILED {problem}")
    print(f"bench: error_rate = {len(problems) / attempted:g} fraction "
          f"({len(problems)} of {attempted} jobs)")
    for metric, entry in metrics.items():
        print(f"bench: {metric} = {entry['value']:.6g} {entry['unit']}")
    correct = not problems and repeat
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        try:
            import_cli()
        except SourceMissing as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        next(pass_orders(WORKLOADS[args.workload], args.seed))
        print("ready", flush=True)
        return 0
    cpus = os.sched_getaffinity(0)
    try:
        return measure(args, cpus)
    finally:
        os.sched_setaffinity(0, cpus)


if __name__ == "__main__":
    sys.exit(main())
