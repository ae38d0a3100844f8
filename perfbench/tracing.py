"""Spans and counters recorded around calls into the cfree modules.

The wrappers live here, in the benchmark, not in the package: a Tracer
patches the functions and methods named in SPANS and COUNTS, records one
span per call (name, start, end, parent span, query id) or, for scalar
arithmetic, one count per call, and puts every original back on exit.

A function bound by name into several modules (``from .engine import
poly_distribution``) is patched wherever it is bound, so calls through
any module are seen.  Spans are kept in memory and summarised by
``layer_metrics`` once the traced pass ends.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute path, span name).  A dotted path names a method.
SPANS = (
    ("cfree.series", "TruncSeries.__mul__", "series.trunc_mul"),
    ("cfree.series", "TruncSeries.inverse", "series.trunc_inverse"),
    ("cfree.series", "TruncSeries.compose_shifted", "series.compose_shifted"),
    ("cfree.series", "TruncSeries.revert", "series.revert"),
    ("cfree.series", "SquareMatrix.__mul__", "series.matrix_mul"),
    ("cfree.series", "SquareMatrix.inverse", "series.matrix_inverse"),
    ("cfree.ncpoly", "NCPolynomial.__mul__", "ncpoly.poly_mul"),
    ("cfree.ncpoly", "parse_poly", "ncpoly.parse"),
    ("cfree.partitions", "enumerate_nc", "partitions.enumerate"),
    ("cfree.partitions", "enumerate_interval", "partitions.enumerate"),
    ("cfree.partitions", "enumerate_irreducible", "partitions.enumerate"),
    ("cfree.partitions", "enumerate_nc_colored", "partitions.enumerate"),
    ("cfree.cumulants", "boolean_from_moments", "cumulants.transform"),
    ("cfree.cumulants", "moments_from_boolean", "cumulants.transform"),
    ("cfree.cumulants", "free_from_moments", "cumulants.transform"),
    ("cfree.cumulants", "moments_from_free", "cumulants.transform"),
    ("cfree.cumulants", "cfree_from_two_moments", "cumulants.transform"),
    ("cfree.cumulants", "phi_moments_from_cfree", "cumulants.transform"),
    ("cfree.twostate", "TwoStateSpec.__init__", "twostate.spec_build"),
    ("cfree.twostate", "TwoStateSpec.moment", "twostate.oracle"),
    ("cfree.twostate", "TwoStateSpec.poly_moment", "twostate.oracle"),
    ("cfree.linearize", "linearize", "linearize"),
    ("cfree.engine", "solve_fixed_point", "engine.solve"),
    ("cfree.condexp", "efree_rec", "condexp.word"),
    ("cfree.condexp", "efree_full", "condexp.word"),
    ("cfree.condexp", "rqce", "condexp.word"),
    ("cfree.condexp", "efree_resolvent", "condexp.resolvent"),
    ("cfree.condexp", "rqce_resolvent", "condexp.resolvent"),
    ("cfree.multiplicative", "subordination_pair", "multiplicative.subordination"),
    ("cfree.multiplicative", "mgf_product_phi", "multiplicative.subordination"),
    ("cfree.multiplicative", "sigma_transform", "multiplicative.sigma"),
    ("cfree.denoise", "weighted_state", "denoise.weighted"),
    ("cfree.denoise", "distributions_of_poly", "denoise.weighted"),
    ("cfree.denoise", "l2_project", "denoise.project"),
    ("cfree.denoise", "condexp_verify", "denoise.verify"),
    ("cfree.cli", "_load_spec", "cli.load_spec"),
    ("cfree.cli", "main", "cli.main"),
)

# Scalar arithmetic is counted, never timed: a span per operation would
# cost more than the operation.
COUNTS = (
    ("cfree.scalars", "GaussianRational.__mul__", "scalars.mul"),
    ("cfree.scalars", "GaussianRational.__rmul__", "scalars.mul"),
    ("cfree.scalars", "GaussianRational.__add__", "scalars.add"),
    ("cfree.scalars", "GaussianRational.__radd__", "scalars.add"),
    ("cfree.scalars", "GaussianRational.__sub__", "scalars.add"),
    ("cfree.scalars", "GaussianRational.__rsub__", "scalars.add"),
    ("cfree.scalars", "GaussianRational.inverse", "scalars.inverse"),
)

# Benchmark modules that call into cfree through names they imported.
BENCH_MODULES = ("workloads",)

# Fields of a span record.
NAME, START, END, PARENT, QUERY = range(5)


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Patch the cfree layers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.pencil_n_max = 0
        self.specs = []
        self.absorbed_memo = 0
        self.query = None
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, fn, name):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.query]
            spans.append(record)
            stack.append(index)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args, result):
        if name == "linearize":
            self.pencil_n_max = max(self.pencil_n_max, result.n)
        elif name == "partitions.enumerate":
            self.counts["partitions.listed"] = self.counts.get("partitions.listed", 0) + len(result)
        elif name == "twostate.spec_build":
            self.specs.append(args[0])

    # -- patching ----------------------------------------------------------

    def _patch(self, module_name, path, make):
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        replacement = make(original)
        targets = [owner]
        if not isinstance(owner, type):
            # Every module that imported the function by name, the
            # benchmark's own included.
            targets = [
                mod
                for key, mod in list(sys.modules.items())
                if (key.partition(".")[0] == "cfree" or key in BENCH_MODULES)
                and getattr(mod, attr, None) is original
            ]
        for target in targets:
            self._saved.append((target, attr, original))
            setattr(target, attr, replacement)

    def install(self):
        # Import every traced module first: a module imported halfway
        # through would bind the wrappers by name and keep them.
        for module_name, _, _ in SPANS + COUNTS:
            importlib.import_module(module_name)
        for module_name, path, name in SPANS:
            self._patch(module_name, path, lambda fn, n=name: self._span_wrapper(fn, n))
        for module_name, path, name in COUNTS:
            self._patch(module_name, path, lambda fn, n=name: self._count_wrapper(fn, n))

    def restore(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- export ------------------------------------------------------------

    def dump(self):
        return {
            "spans": self.spans,
            "counts": self.counts,
            "pencil_n_max": self.pencil_n_max,
            "memo_entries": self.memo_entries(),
        }

    def memo_entries(self):
        """Largest total memo size of one spec built under the tracer."""
        own = max((memo_entries(s) for s in self.specs), default=0)
        return max(own, self.absorbed_memo)

    def absorb(self, dump, started):
        """Add the dump of a traced CLI subprocess started at ``started``.

        Its startup (spawn until ``cfree.cli`` was imported) becomes a
        ``cli.startup`` span; the monotonic clock is shared by processes.
        """
        self.spans.append(["cli.startup", started, dump["imported"], -1, self.query])
        offset = len(self.spans)
        for name, start, end, parent, _ in dump["spans"]:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, self.query]
            )
        for key, value in dump["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.pencil_n_max = max(self.pencil_n_max, dump["pencil_n_max"])
        self.absorbed_memo = max(self.absorbed_memo, dump["memo_entries"])


def memo_entries(spec):
    """Total size of the word-moment memos a spec has filled so far."""
    return len(spec._psi_memo) + len(spec._phi_memo) + len(spec._chain_memo)


def span_stats(spans):
    """Per span name: calls, busy seconds and self seconds.

    Busy time counts a span only when no ancestor has the same name, so
    recursion and nested calls of one layer are not counted twice.  Self
    time is a span's duration minus the durations of its direct children;
    spans of one process are strictly nested, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    stats = {}
    for index, span in enumerate(spans):
        name = span[NAME]
        entry = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
        entry["calls"] += 1
        duration = span[END] - span[START]
        entry["self"] += duration - child_time[index]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["busy"] += duration
    return stats


def under_count(spans, name, ancestor):
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    total = 0
    for span in spans:
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != ancestor:
            parent = spans[parent][PARENT]
        total += parent >= 0
    return total


def check_nesting(spans):
    """Every span lies inside its parent's interval and starts after it."""
    for span in spans:
        if span[END] < span[START]:
            return False
        parent = span[PARENT]
        if parent >= 0:
            outer = spans[parent]
            if span[START] < outer[START] or span[END] > outer[END]:
                return False
    return True


def _busy(stats, name):
    return stats.get(name, {}).get("busy", 0.0)


def _self(stats, name):
    return stats.get(name, {}).get("self", 0.0)


def _calls(stats, name):
    return stats.get(name, {}).get("calls", 0)


def layer_metrics(dump, reference_s, overhead_frac, max_bits):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}.

    ``*_s`` values are seconds summed over the pass, ``*_calls`` and the
    other counts are totals over the pass.
    """
    spans = dump["spans"]
    stats = span_stats(spans)
    counts = dump["counts"]
    solves = _calls(stats, "engine.solve")
    composes = under_count(spans, "series.compose_shifted", "engine.solve")
    out = {
        "scalars.mul_calls": (counts.get("scalars.mul", 0), "count"),
        "scalars.add_calls": (counts.get("scalars.add", 0), "count"),
        "scalars.inverse_calls": (counts.get("scalars.inverse", 0), "count"),
        "scalars.max_bits": (max_bits, "bits"),
        "series.trunc_mul_calls": (_calls(stats, "series.trunc_mul"), "count"),
        "series.trunc_mul_s": (_busy(stats, "series.trunc_mul"), "s"),
        "series.trunc_inverse_s": (_busy(stats, "series.trunc_inverse"), "s"),
        "series.compose_shifted_calls": (_calls(stats, "series.compose_shifted"), "count"),
        "series.compose_shifted_s": (_busy(stats, "series.compose_shifted"), "s"),
        "series.matrix_mul_calls": (_calls(stats, "series.matrix_mul"), "count"),
        "series.matrix_mul_s": (_busy(stats, "series.matrix_mul"), "s"),
        "series.matrix_inverse_calls": (_calls(stats, "series.matrix_inverse"), "count"),
        "series.revert_s": (_busy(stats, "series.revert"), "s"),
        "engine.solves": (solves, "count"),
        "engine.solve_s": (_busy(stats, "engine.solve"), "s"),
        "engine.self_s": (_self(stats, "engine.solve"), "s"),
        "engine.compose_per_solve": (composes / solves if solves else 0, "count"),
        "linearize.s": (_busy(stats, "linearize"), "s"),
        "linearize.pencil_n_max": (dump["pencil_n_max"], "count"),
        "denoise.weighted_s": (_busy(stats, "denoise.weighted"), "s"),
        "denoise.project_s": (_busy(stats, "denoise.project"), "s"),
        "denoise.verify_s": (_busy(stats, "denoise.verify"), "s"),
        "twostate.oracle_calls": (_calls(stats, "twostate.oracle"), "count"),
        "twostate.oracle_s": (_busy(stats, "twostate.oracle"), "s"),
        "twostate.memo_entries": (dump["memo_entries"], "count"),
        "twostate.spec_build_s": (_busy(stats, "twostate.spec_build"), "s"),
        "twostate.spec_build_self_s": (_self(stats, "twostate.spec_build"), "s"),
        "twostate.reference_s": (reference_s, "s"),
        "cumulants.transform_calls": (_calls(stats, "cumulants.transform"), "count"),
        "cumulants.transform_s": (_busy(stats, "cumulants.transform"), "s"),
        "ncpoly.poly_mul_calls": (_calls(stats, "ncpoly.poly_mul"), "count"),
        "ncpoly.poly_mul_s": (_busy(stats, "ncpoly.poly_mul"), "s"),
        "ncpoly.parse_s": (_busy(stats, "ncpoly.parse"), "s"),
        "condexp.word_calls": (_calls(stats, "condexp.word"), "count"),
        "condexp.word_s": (_busy(stats, "condexp.word"), "s"),
        "condexp.resolvent_s": (_busy(stats, "condexp.resolvent"), "s"),
        "multiplicative.subordination_s": (_busy(stats, "multiplicative.subordination"), "s"),
        "multiplicative.sigma_s": (_busy(stats, "multiplicative.sigma"), "s"),
        "partitions.enumerate_s": (_busy(stats, "partitions.enumerate"), "s"),
        "partitions.listed": (counts.get("partitions.listed", 0), "count"),
        "cli.startup_s": (_busy(stats, "cli.startup"), "s"),
        "cli.main_s": (_busy(stats, "cli.main"), "s"),
        "cli.self_s": (_self(stats, "cli.main"), "s"),
        "cli.load_spec_s": (_busy(stats, "cli.load_spec"), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return out
