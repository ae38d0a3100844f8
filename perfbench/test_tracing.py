"""Tests of the traced run: same answers, nested spans, repeatable counts.

Run from the repository root with ``src`` on the path:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracing.py

The queries are small versions of the workloads' own, so the suite takes
seconds.
"""

import random
import sys

import pytest

import tracing
import workloads


def small_queries():
    rng = random.Random(5)
    queries = [
        workloads._engine_query(rng, 4, "x*y + y*x", "single", "phi"),
        workloads._engine_query(rng, 4, "x + y", "weighted", "1 + x^2"),
        workloads._transforms_query(rng, 6),
    ]
    # A projection, an efree_rec, then a group of two that shares a spec.
    queries += workloads.build_words(5).cycle[1:5]
    cli = workloads.build_cli(5)
    queries += [q for q in cli.cycle if q.label in ("cli cumulants-csv", "cli malformed-poly")]
    return queries, cli.cleanup


def run_pass(queries, tracer=None):
    answers = []
    for index, query in enumerate(queries):
        if tracer is None:
            answers.append(query.run())
        else:
            tracer.query = index
            run = query.run_traced
            answers.append(run(tracer) if run is not None else query.run())
    return answers


def traced_pass():
    queries, cleanup = small_queries()
    try:
        plain = run_pass(queries)
        tracer = tracing.Tracer()
        with tracer:
            traced = run_pass(queries, tracer)
        wrong = [q.label for q, answer in zip(queries, traced) if not q.check(answer)]
    finally:
        cleanup()
    return plain, traced, wrong, tracer


@pytest.fixture(scope="module")
def first_pass():
    return traced_pass()


def test_traced_answers_equal_untraced_and_are_right(first_pass):
    plain, traced, wrong, _ = first_pass
    assert traced == plain
    assert wrong == []


def test_spans_nest_inside_their_parents(first_pass):
    tracer = first_pass[3]
    spans = tracer.spans
    assert spans
    assert tracing.check_nesting(spans)
    for index, span in enumerate(spans):
        assert span[tracing.PARENT] < index
    names = {span[tracing.NAME] for span in spans}
    for layer in ("engine.solve", "series.compose_shifted", "twostate.spec_build",
                  "cli.main", "cli.startup", "denoise.project", "condexp.word"):
        assert layer in names


def test_wrappers_are_removed_after_the_pass():
    import cfree.engine
    import cfree.scalars

    solve = cfree.engine.solve_fixed_point
    mul = cfree.scalars.GaussianRational.__mul__
    with tracing.Tracer():
        assert cfree.engine.solve_fixed_point is not solve
    assert cfree.engine.solve_fixed_point is solve
    assert cfree.scalars.GaussianRational.__mul__ is mul


def test_a_module_first_imported_by_the_tracer_keeps_no_wrapper():
    import cfree
    import cfree.cumulants

    saved = sys.modules.pop("cfree.cli")
    try:
        with tracing.Tracer():
            pass
        fresh = sys.modules["cfree.cli"]
        assert fresh is not saved
        assert fresh.free_from_moments is cfree.cumulants.free_from_moments
    finally:
        sys.modules["cfree.cli"] = saved
        cfree.cli = saved


def exact_counts(tracer):
    stats = tracing.span_stats(tracer.spans)
    return (
        dict(tracer.counts),
        {name: entry["calls"] for name, entry in stats.items()},
        tracer.pencil_n_max,
        tracer.memo_entries(),
    )


def test_two_traced_runs_of_one_seed_count_the_same(first_pass):
    first = exact_counts(first_pass[3])
    second = exact_counts(traced_pass()[3])
    assert first == second
    counts = first[0]
    assert counts["scalars.mul"] > 0
    assert first[2] >= 3
    assert first[3] > 0


def test_layer_metrics_match_the_declared_names_and_units(first_pass):
    import json
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    reported = tracing.layer_metrics(first_pass[3].dump(), 0.0, 0.0, 0)
    assert {name: unit for name, (_, unit) in reported.items()} == declared
