"""Tests of the benchmark's own code: the percentile rule, span self time,
removal of every tracing wrapper, and how a wrong output is reported."""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import summary  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert summary.tail_percentile(n) == expected


def test_percentile_interpolates_between_order_statistics():
    assert summary.percentile([5, 1, 3, 2, 4], 50) == 3
    assert summary.percentile(range(11), 90) == 9
    assert summary.percentile([0, 10], 25) == 2.5


def test_self_time_from_nested_spans():
    # a [0, 10] holds b [1, 3] and b [4, 6]; the second b holds c [4.5, 5.5]
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 5.5, 6.0, 10.0])
    spans = tracer.Tracer(clock=lambda: next(ticks))
    spans.begin("a")
    spans.begin("b")
    spans.end()
    spans.begin("b")
    spans.begin("c")
    spans.end()
    spans.end()
    spans.end()
    assert dict(spans.self_s) == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert dict(spans.calls) == {"a": 1, "b": 2, "c": 1}
    assert spans.share("c", "a") == 0.1
    assert spans.share("c", "never-ran") == 0.0


def test_recursive_span_counts_inclusive_time_once():
    ticks = iter([0.0, 1.0, 2.0, 3.0])
    spans = tracer.Tracer(clock=lambda: next(ticks))
    spans.begin("r")
    spans.begin("r")
    spans.end()
    spans.end()
    assert spans.self_s["r"] == 3.0
    assert spans.inclusive_s["r"] == 3.0
    assert spans.calls["r"] == 2


def test_normalise_rescales_by_the_nearest_probe_samples():
    gauge = speed.SpeedGauge()
    # the probe ran at nominal speed until t=10, then twice as slow
    gauge.times = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    gauge.probes = [speed.NOMINAL_S] * 3 + [2 * speed.NOMINAL_S] * 3
    assert gauge.normalise(0.5, 1.5) == 1.0
    assert gauge.normalise(10.5, 11.5) == 0.5
    # one slow sample among the three nearest is outvoted
    gauge.probes[1] = 3 * speed.NOMINAL_S
    assert gauge.normalise(0.5, 1.5) == 1.0


def _bindings():
    out = {}
    for name, mod in tracer.latslice_modules().items():
        for attr, obj in vars(mod).items():
            out[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for member, value in vars(obj).items():
                    out[(name, attr, member)] = value
    return out


def test_tracing_patches_every_binding_and_leaves_none(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from latslice import countlab, fields, lattice, polymatrix, slicecorr

    before = _bindings()
    det = polymatrix.det
    query = countlab.FiberQuery(2, 1, (1, 1), (0, 1), fields.GF(3), "trivial")
    spans, probes = tracer.Tracer(), tracer.CountProbes()
    with tracer.Instrumentation(spans, probes) as inst:
        assert lattice.det is not det
        assert lattice.det is polymatrix.det
        assert countlab.chain_to_slice is slicecorr.chain_to_slice
        assert countlab.count_chain_fiber(query).count == 12
        assert countlab.count_slice_fiber(query).count == 12
    assert lattice.det is polymatrix.det is det
    assert countlab.chain_to_slice is slicecorr.chain_to_slice
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    assert tracer.leftover_wrappers() == []
    assert spans.calls["countlab.count_chain_fiber"] == 1
    assert spans.calls["lattice.quotient_basis_trivial"] == probes.leaf_tests > 0
    assert probes.leaves_accepted == 12
    assert probes.charpoly_hits == 12  # one compatible flag per matching matrix
    assert inst.arith["fields"] > 0 and inst.arith["poly.mul"] > 0


def _bench_main(counts, seconds="0.5"):
    """run.main on central-count in a fresh interpreter, with the frozen
    counts replaced; returns (exit code, info, result)."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r})\n"
        "import run, workloads\n"
        f"workloads.CENTRAL_COUNTS = {counts!r}\n"
        "sys.exit(run.main(['--workload', 'central-count', '--seed', '1',"
        f" '--seconds', {seconds!r}, '--trace', '0']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    lines = proc.stdout.splitlines()
    info = json.loads(lines[-2][len("info ") :])
    return proc.returncode, info, json.loads(lines[-1])


def test_wrong_expected_value_fails_the_run():
    right = {(2, (1, 1, 1, 1), 2): 15, (2, (1, 1, 1, 1), 3): 28}
    code, info, result = _bench_main(right)
    assert (code, result["correct"], result["failed"], info["failed_share"]) == (0, True, 0, 0.0)
    wrong = dict(right)
    wrong[(2, (1, 1, 1, 1), 2)] = 16
    code, info, result = _bench_main(wrong)
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert info["failed_share"] == result["failed"] / result["attempted"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == tracer.LAYER_METRICS
