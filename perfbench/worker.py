"""One benchmark run in its own process: set-up, measured loop, checks.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

run.py starts this with ``src`` on PYTHONPATH and reads the peak memory
of the process when it ends.  The last line of stdout is one JSON
object: the run record and the result (without ``peak_rss_mb``).

TRACE 0 runs whole cycles of the workload closed-loop until SECONDS
have passed and reports the end-to-end metrics.  TRACE 1 runs the
workload's fixed traced queries once untraced and once traced, and
reports the per-layer metrics; the queries do not depend on timing, so
the counts of two traced runs of one seed repeat exactly.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

SETUP_REPS = 7
TAIL_BEYOND = 10


def _purge():
    for key in list(sys.modules):
        if key == "cfree" or key.startswith("cfree.") or key in ("workloads", "tracing"):
            del sys.modules[key]


def setup(name, seed):
    """Import cfree, build the seeded inputs and warm up, SETUP_REPS times.

    Every repetition starts from a fresh import.  Returns the workload of
    the last repetition, the median set-up time and every time.
    """
    times = []
    workload = None
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.cleanup()
        _purge()
        start = time.perf_counter()
        module = importlib.import_module("workloads")
        workload = module.build(name, seed)
        workload.warm_up()
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times), times


def _describe(exc):
    return "%s: %s" % (type(exc).__name__, str(exc)[:200])


def _run_one(query, tracer=None):
    try:
        if tracer is not None and query.run_traced is not None:
            return query.run_traced(tracer), None
        return query.run(), None
    except Exception as exc:  # counted as a failed query, never hidden
        return None, exc


def check_all(records):
    """Check every answer outside the timed region.

    A query that raised (or, for the CLI, crashed) is failed; one that
    returned a different answer is wrong.  Returns the counts and up to
    ten notes.
    """
    failed = wrong = 0
    notes = []
    for query, _, answer, error in records:
        if error is not None:
            failed += 1
            note = "failed %s: %s" % (query.label, _describe(error))
        else:
            try:
                ok = query.check(answer)
            except Exception:  # a check that cannot run is a wrong answer
                ok = False
            if ok:
                continue
            wrong += 1
            note = "wrong answer %s" % query.label
        if len(notes) < 10:
            notes.append(note[:300])
    return failed, wrong, notes


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timed(workload, seconds):
    """Run whole cycles, closed-loop, until ``seconds`` have passed.

    Ending on a cycle boundary makes every run answer the same query
    shapes, whatever the speed, so runs with different seeds compare.
    """
    cycle = workload.cycle
    records = []
    start = time.perf_counter()
    t1 = start
    while t1 - start < seconds:
        for query in cycle:
            t0 = time.perf_counter()
            answer, error = _run_one(query)
            t1 = time.perf_counter()
            records.append((query, t1 - t0, answer, error))
    elapsed = t1 - start
    failed, wrong, notes = check_all(records)
    latencies = [r[1] for r in records]
    n = len(records)
    tail_s, percentile = tail(latencies)
    metrics = {
        "throughput_qps": ((n - failed - wrong) / elapsed, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "error_rate": ((failed + wrong) / n, "ratio"),
    }
    extra = {
        "queries": n,
        "cycles": n / len(cycle),
        "measured_s": elapsed,
        "latency_samples": n,
        "tail_percentile": percentile,
        "failed_queries": failed,
        "wrong_answers": wrong,
        "notes": notes,
    }
    return metrics, n, failed, wrong, extra


_NUMBER = re.compile(r"\d+")


def answer_bits(obj):
    """Largest numerator or denominator bit length inside an answer."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, int):
        return obj.bit_length()
    if isinstance(obj, str):
        return max((int(m).bit_length() for m in _NUMBER.findall(obj)), default=0)
    if isinstance(obj, (tuple, list)):
        return max((answer_bits(x) for x in obj), default=0)
    if hasattr(obj, "re"):  # GaussianRational
        return max(answer_bits(obj.re), answer_bits(obj.im))
    if hasattr(obj, "terms"):  # NCPolynomial
        return answer_bits(list(obj.terms.values()))
    if hasattr(obj, "coeffs"):  # TruncSeries
        return answer_bits(obj.coeffs)
    return 0


def _same(a, b):
    """Answers of the two passes agree; failures agree on their type."""
    (ans_a, err_a), (ans_b, err_b) = a, b
    if err_a is not None or err_b is not None:
        return type(err_a) is type(err_b)
    return ans_a == ans_b


def traced(workload, name, seed):
    tracing = importlib.import_module("tracing")
    queries = workload.traced
    start = time.perf_counter()
    plain = [_run_one(q) for q in queries]
    plain_s = time.perf_counter() - start

    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracer:
        seen = []
        for index, query in enumerate(queries):
            tracer.query = index
            seen.append(_run_one(query, tracer))
    traced_s = time.perf_counter() - start

    records = [(q, 0.0, ans, err) for q, (ans, err) in zip(queries, seen)]
    start = time.perf_counter()
    failed, wrong, notes = check_all(records)
    reference_s = time.perf_counter() - start
    mismatched = [q.label for q, a, b in zip(queries, plain, seen) if not _same(a, b)]
    if mismatched:
        wrong += len(mismatched)
        notes.append("traced answers differ: %s" % ", ".join(mismatched[:5]))
    if not tracing.check_nesting(tracer.spans):
        wrong += 1
        notes.append("spans do not nest")

    dump = tracer.dump()
    max_bits = answer_bits([ans for ans, err in seen if err is None])
    metrics = tracing.layer_metrics(dump, reference_s, traced_s / plain_s - 1.0, max_bits)
    os.makedirs(".perfbench_work", exist_ok=True)
    spans_path = os.path.join(".perfbench_work", "spans-%s-seed%d.json" % (name, seed))
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(dump["spans"], fh)
    extra = {
        "queries": len(queries),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": len(dump["spans"]),
        "spans_file": spans_path,
        "failed_queries": failed,
        "wrong_answers": wrong,
        "notes": notes,
    }
    return metrics, len(queries), failed, wrong, extra


def _commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    workload, setup_s, setup_times = setup(name, seed)
    try:
        if trace:
            metrics, attempted, failed, wrong, extra = traced(workload, name, seed)
        else:
            metrics, attempted, failed, wrong, extra = timed(workload, seconds)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        workload.cleanup()
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "cycle_queries": len(workload.cycle),
        "cycle": [q.label for q in workload.cycle],
        "setup_runs_s": setup_times,
        "not_measured": (
            "no hardware counters are read; memory is only the peak resident set "
            "size from getrusage, of the worker and the children it waited for"
        ),
    }
    record.update(extra)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
    }
    print(json.dumps({"record": record, "result": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
