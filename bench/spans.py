"""Spans around the public calls into each `lodayhom` module.

Nothing in the library is edited: `Tracer.installed()` replaces the hooked
functions, in every `lodayhom` module namespace that holds them, by wrappers
that record a span (name, layer, start, end, parent, job) and a few exact
counts taken from the arguments and results.  Spans stay in memory; the
caller writes them out when the run ends.  A hooked name that the library no
longer has is recorded as absent instead of failing, so a refactor cannot
crash the benchmark.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _simplices(args, result):
    return {"simplices": sum(result.size(p)
                             for p in range(result.top_level + 1))}


def _complex_counts(args, result):
    blocks = [len(labs) for labs in result.bases.values()]
    return {
        "basis": sum(blocks),
        "max_block": max(blocks, default=0),
        # one pushforward per basis labeling and face, in degrees >= 1
        "pushforwards": sum(len(labs) * (p + 1)
                            for (p, _), labs in result.bases.items() if p),
        "nnz": sum(mat.nnz for mat in result.boundaries.values()),
    }


def _predicted(args, result):
    return {"predicted": sum(result)}


def _enumerated(args, result):
    return {"labelings": sum(len(labs) for labs in result.values())}


def _rank(args, result):
    return {"input_nnz": args[0].nnz, "rank": result}


def _terms(args, result):
    return {"terms": sum(len(labs) for labs in result.terms.values())}


# (module, attribute, counts taken from (args, result) or None).  A dotted
# attribute names a method; methods are counted per call, not spanned, since
# they run millions of times per job.
HOOKS = (
    ("simplicial", "parse_space_expr", None),
    ("simplicial", "build_space", _simplices),
    ("simplicial", "product", _simplices),
    ("simplicial", "wedge", _simplices),
    ("simplicial", "smash", _simplices),
    ("simplicial", "suspension", _simplices),
    ("simplicial", "is_connected", None),
    ("algebra", "parse_algebra_expr", None),
    ("algebra", "GradedAlgebra.mul_lincomb", None),
    ("algebra", "PolynomialAlgebra.mul_lincomb", None),
    ("loday", "build_complex", _complex_counts),
    ("loday", "_block_counts", _predicted),
    ("loday", "_enumerate_block_bases", _enumerated),
    ("loday", "homology_dims", None),
    ("exactlinalg", "rank", _rank),
    ("oracle", "torus_bicomplex", _terms),
    ("oracle", "total_homology", None),
    ("oracle", "wedge_kunneth_dims", None),
    ("stability", "compare_spaces", None),
    ("stability", "product_decomposition_check", None),
    ("stability", "compare_tables", None),
    ("cli", "parse_args", None),
    ("cli", "run", None),
)


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and call-count recorder for one benchmark run."""

    def __init__(self):
        self.spans = []
        self.calls = {}      # (job, hook name) -> number of calls
        self.absent = []     # hook names the library does not have
        self.job = ""
        self._stack = []

    def _open(self, name, layer):
        span = Span(len(self.spans), name, layer, self.job,
                    self._stack[-1].sid if self._stack else None,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name, layer, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if measure is not None:
                span.counts.update(measure(args, result))
            return result
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (self.job, name)
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Hook every function of HOOKS for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lodayhom" or n.startswith("lodayhom.")]
        undo = []
        try:
            for layer, attr, measure in HOOKS:
                name = f"{layer}.{attr}"
                owner = sys.modules.get(f"lodayhom.{layer}")
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, last, None)
                if not callable(original):
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                if path:
                    undo.append((owner, last, original))
                    setattr(owner, last, self._counted(name, original))
                    continue
                wrapper = self._spanned(name, layer, original, measure)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def calls_of(self, name, jobs=None) -> int:
        return sum(n for (job, hook), n in self.calls.items()
                   if hook == name and (jobs is None or job in jobs))


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    own = {s.sid: s.seconds for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans, tracer: Tracer, jobs, wall: float) -> dict:
    """Per-layer (value, unit) metrics of one traced pass, from its spans,
    the job ids whose method calls count (None: all) and the pass wall time."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}

    def self_s(pred):
        return sum(own[s.sid] for s in spans if pred(s))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def under_build_complex(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "loday.build_complex":
                return True
        return False

    simplicial_roots = [s for s in spans if s.layer == "simplicial"
                        and (s.parent is None
                             or by_id[s.parent].layer != "simplicial")]
    predicted = sum(s.counts.get("predicted", 0) for s in spans
                    if s.name == "loday._block_counts"
                    and under_build_complex(s))
    basis = total("loday.build_complex", "basis")
    enumerate_s = self_s(lambda s: s.name == "loday._enumerate_block_bases")
    labelings = total("loday._enumerate_block_bases", "labelings")
    covered = sum(s.seconds for s in spans if s.parent is None)
    return {
        "simplicial.build_space_s": (self_s(lambda s: s.layer == "simplicial"), "s"),
        "simplicial.simplices": (sum(s.counts.get("simplices", 0)
                                     for s in simplicial_roots), "count"),
        "algebra.self_s": (self_s(lambda s: s.layer == "algebra"), "s"),
        "algebra.mul_lincomb_calls": (
            tracer.calls_of("algebra.GradedAlgebra.mul_lincomb", jobs)
            + tracer.calls_of("algebra.PolynomialAlgebra.mul_lincomb", jobs),
            "count"),
        "loday.count_s": (self_s(lambda s: s.name == "loday._block_counts"), "s"),
        "loday.enumerate_s": (enumerate_s, "s"),
        "loday.assemble_s": (self_s(lambda s: s.name == "loday.build_complex"), "s"),
        "loday.homology_s": (self_s(lambda s: s.name == "loday.homology_dims"), "s"),
        "loday.predicted_labelings": (predicted, "count"),
        "loday.basis": (basis, "count"),
        "loday.kept_ratio": (basis / predicted if predicted else 0.0, "ratio"),
        "loday.max_block": (max((s.counts.get("max_block", 0) for s in spans),
                                default=0), "count"),
        "loday.pushforwards": (total("loday.build_complex", "pushforwards"), "count"),
        "loday.nnz": (total("loday.build_complex", "nnz"), "count"),
        "loday.labelings_per_s": (labelings / enumerate_s if enumerate_s else 0.0,
                                  "1/s"),
        "exactlinalg.rank_s": (self_s(lambda s: s.name == "exactlinalg.rank"), "s"),
        "exactlinalg.rank_calls": (sum(1 for s in spans
                                       if s.name == "exactlinalg.rank"), "count"),
        "exactlinalg.rank_input_nnz": (total("exactlinalg.rank", "input_nnz"), "count"),
        "exactlinalg.rank_total": (total("exactlinalg.rank", "rank"), "count"),
        "oracle.bicomplex_s": (self_s(lambda s: s.name == "oracle.torus_bicomplex"), "s"),
        "oracle.total_homology_s": (self_s(lambda s: s.name == "oracle.total_homology"), "s"),
        "oracle.kunneth_s": (self_s(lambda s: s.name == "oracle.wedge_kunneth_dims"), "s"),
        "oracle.terms": (total("oracle.torus_bicomplex", "terms"), "count"),
        "stability.compare_s": (self_s(lambda s: s.layer == "stability"), "s"),
        "cli.self_s": (self_s(lambda s: s.layer == "cli"), "s"),
        "trace.uncovered_s": (wall - covered, "s"),
        "trace.spans": (len(spans), "count"),
        "trace.absent_hooks": (len(tracer.absent), "count"),
    }


def job_seconds(spans) -> dict:
    """Job name -> summed duration of the job's root spans."""
    out = {}
    for s in spans:
        if s.parent is None:
            out[s.job] = out.get(s.job, 0.0) + s.seconds
    return out
