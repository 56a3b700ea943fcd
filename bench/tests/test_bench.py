"""Tests of the benchmark itself: python -m pytest bench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_lists_every_metric_the_runner_emits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_each_workload_emits_every_named_metric_at_tiny_size(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                      "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = run.per_layer_units() if trace == "1" else dict(run.END_TO_END)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if workload != "query-mix":
        assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "query-mix", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# Self time and binding sites
# ---------------------------------------------------------------------------


def test_self_time_is_exact_on_a_nested_span_tree():
    # root [0, 16) > a [1, 9) > (a1 [2, 3), a2 [4, 8) > a21 [5, 6)), b [10, 12)
    # plus an overlapping child pair under b2 [12, 16): [12.5, 14), [13, 15.5).
    spans = [
        ("root", -1, 0.0, 16.0),
        ("a", 0, 1.0, 9.0),
        ("a1", 1, 2.0, 3.0),
        ("a2", 1, 4.0, 8.0),
        ("a21", 3, 5.0, 6.0),
        ("b", 0, 10.0, 12.0),
        ("b2", 0, 12.0, 16.0),
        ("c1", 6, 12.5, 14.0),
        ("c2", 6, 13.0, 15.5),
    ]
    parent = [s[1] for s in spans]
    start = [s[2] for s in spans]
    end = [s[3] for s in spans]
    got = dict(zip((s[0] for s in spans), tracer.self_times(parent, start, end)))
    assert got == {
        "root": 16.0 - 8.0 - 2.0 - 4.0,
        "a": 8.0 - 1.0 - 4.0,
        "a1": 1.0,
        "a2": 4.0 - 1.0,
        "a21": 1.0,
        "b": 2.0,
        "b2": 4.0 - 3.0,  # the children cover [12.5, 15.5) once
        "c1": 1.5,
        "c2": 2.5,
    }


@pytest.fixture
def fake_package():
    """fakepkg.a defines f and g; fakepkg.b imports f by name and keeps a table."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec("def g(x):\n    return [x] * x\n\ndef f(x):\n    return len(g(x)) + 1\n", a.__dict__)
    b.f = a.f
    b.TABLE = {"f": a.f}
    exec("def h(x):\n    return f(x) + TABLE['f'](x)\n", b.__dict__)
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b
    for name in mods:
        del sys.modules[name]


def test_tracer_wraps_every_binding_site_and_names_missing_functions(fake_package):
    a, b = fake_package
    original = a.f
    t = tracer.Tracer(("a.f", "a.g", "a.gone", "c.f"), package="fakepkg")
    t.install()
    try:
        assert b.h(3) == 8
    finally:
        t.uninstall()
    assert a.f is original and b.f is original and b.TABLE["f"] is original
    summary = t.summary()
    assert t.missing == ["a.gone", "c.f"]
    assert set(summary) == {"a.f", "a.g"}
    assert summary["a.f"]["calls"] == 2  # once through b.f, once through b.TABLE
    assert summary["a.g"]["calls"] == 2


def test_sample_points_counts_the_points_it_returns():
    import spectop
    from random import Random

    t = tracer.Tracer()
    t.install()
    try:
        spectop.spectrum.sample_points(spectop.ZZ, Random(0), 5)
    finally:
        t.uninstall()
    assert t.summary()["spectrum.sample_points"]["items"] == 5


# ---------------------------------------------------------------------------
# The correctness gate
# ---------------------------------------------------------------------------


def _checked(workload: str, expected: dict, seed: int = 2):
    w = wl.WORKLOADS[workload]
    inputs = w.inputs(seed, 0, tiny=True)
    return w.check(inputs, wl.run_ops(w.ops(inputs)), expected)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_gate_passes_on_the_recorded_answers(workload):
    v = _checked(workload, wl.load_expected(workload))
    assert v.attempted > 0 and v.regressions == []


def test_gate_trips_on_a_wrong_supplement_report():
    expected = wl.load_expected("axes-supplement")
    expected["F3/3"] = "0" * 16
    v = _checked("axes-supplement", expected, seed=0)
    assert v.failed == 1 and v.regressions == ["F3/3"]


def test_gate_trips_on_a_changed_suite_report():
    expected = wl.load_expected("suites-symbolic")
    total, _ = expected["pz/2"].split(":")
    expected["pz/2"] = f"{total}:{'0' * 16}"
    v = _checked("suites-symbolic", expected)
    assert v.failed == int(total) and v.regressions == ["pz/2"]


def test_gate_trips_on_a_wrong_known_answer_and_on_changed_bytes():
    expected = wl.load_expected("query-mix")
    batch = queries.batch(2, 0, tiny=True)
    out = wl.run_ops(wl.WORKLOADS["query-mix"].ops(batch))
    zmod = next(i for i, q in enumerate(batch) if q.cls == "spec-zmod-small")
    changed = next(i for i, q in enumerate(batch) if q.cls == "lyover")
    batch[zmod] = queries.Query(batch[zmod].id, batch[zmod].cls, batch[zmod].argv, ("spectrum", (2, 3, 5, 7, 11)))
    expected["outcomes"][batch[changed].id] = "0:" + "0" * 16
    v = wl.WORKLOADS["query-mix"].check(batch, out, expected)
    assert sorted(v.regressions) == sorted([batch[zmod].id, batch[changed].id])


def test_known_defects_fail_but_are_not_regressions():
    expected = wl.load_expected("query-mix")
    batch = [queries.entry("refuse", 0), queries.entry("refuse", 4), queries.entry("refuse", 6)]
    w = wl.WORKLOADS["query-mix"]
    v = w.check(batch, wl.run_ops(w.ops(batch)), expected)
    assert (v.attempted, v.failed, v.regressions) == (3, 2, [])


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_whole_cycles_draw_every_known_defect_equally_often(seed):
    known = wl.load_expected("query-mix")["known_failures"]
    cycle = run.cycle("query-mix")
    assert cycle == 10  # the refuse class draws 8 of its 80 entries a batch
    for cycles in (1, 3):
        drawn = [q.id for i in range(cycles * cycle) for q in queries.batch(seed, i)]
        assert len(drawn) == cycles * cycle * queries.BATCH
        assert [drawn.count(qid) for qid in known] == [cycles] * len(known)


def test_iteration_counts_are_whole_cycles_and_depend_only_on_seconds():
    assert run.iteration_count("query-mix", 30, run.MIN_ITERATIONS, False) == 40
    assert run.iteration_count("query-mix", 1, run.MIN_ITERATIONS, False) == 10
    assert run.iteration_count("axes-supplement", 30, run.MIN_ITERATIONS, False) == 5
    assert run.iteration_count("axes-supplement", 1, run.MIN_ITERATIONS, False) == run.MIN_ITERATIONS
    assert run.iteration_count("suites-symbolic", 30 / 2, run.MIN_PAIRS, False) == 5
    assert run.iteration_count("query-mix", 30, run.MIN_ITERATIONS, True) == run.MIN_ITERATIONS


def test_reference_seconds_drop_the_handler_time_and_use_the_samples_around_each_operation():
    r, w = hostspeed.REFERENCE_S, hostspeed.WINDOW_S
    sampler = hostspeed.Sampler()
    # (start, loop seconds, end): two handlers inside [10, 12), one just
    # outside on either side, one far away.
    sampler.samples = [(0.0, 9.0, 0.5), (10 - w, 2 * r, 10 - w + 0.01), (10.5, r, 10.51),
                       (11.0, r, 11.03), (12 + w, 4 * r, 12 + w + 0.01)]
    own, ref = sampler.reference(10.0, 12.0)
    assert own == pytest.approx(2.0 - 0.01 - 0.03)
    assert ref == pytest.approx(own * r / ((2 * r + r + r + 4 * r) / 4))
    # No sample within the window: the nearest one sets the scale.
    assert sampler.reference(5.0, 5.5) == pytest.approx((0.5, 0.5 * r / (2 * r)))


def test_operations_are_timed_while_the_host_loop_is_sampled():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    out = wl.run_ops([("x", lambda: 1), ("y", lambda: time.sleep(0.1) or 2)])
    assert out.answers == [1, 2]
    assert [label for label, _, _ in out.latencies] == ["x", "y"]
    assert out.samples >= 4  # on entry, on exit, and every PERIOD_S of the sleep
    assert 0.05 < out.latencies[1][1] < out.wall_s  # the handlers' time is not the operation's
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_generated_irreducibles_have_no_root_and_stay_under_the_degree_cap():
    for p in queries.FIELD_PRIMES:
        for f in queries.irreducibles(p):
            assert f[-1] == 1 and len(f) - 1 <= queries.DEGREE_CAP
            assert len(f) == 2 or all(queries._eval(f, x, p) for x in range(p))
