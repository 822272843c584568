"""Fast self-test of the benchmark harness: every workload at tiny sizes."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ first on sys.path)
import workloads  # noqa: E402

import divgraph  # noqa: E402
from divgraph import invariants, sequences  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(capsys, workload: str, trace: int) -> tuple[int, dict]:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)]
    rc = run.main(argv, tiny=True)
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_passes_its_checks_and_reports_every_metric(capsys, workload, trace):
    rc, result = run_tiny(capsys, workload, trace)
    assert rc == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # the tracer put every function back where it found it
    assert sequences.INVARIANT_FUNCS["PT"] is invariants.closure_paths
    assert divgraph.conjectures.build_graph is divgraph.graphs.build_graph
    assert divgraph.kernels.closure_arcs is divgraph._kernels_py.closure_arcs


def test_traced_self_times_account_for_the_traced_wall(capsys):
    _, result = run_tiny(capsys, "oracle-corpus", 1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(values["trace.wall_s"])
    assert values["kernels.closure_arcs.calls"] > 0 and values["kernels.closure_arcs.arcs"] > 0


def _off_by_one(original):
    def measure(g, gT):
        record = original(g, gT)
        return type(record)(**{**record.as_dict(), "closure_size": record.closure_size + 1})

    return measure


def _raising(original):
    def broken(*args):
        raise RuntimeError("injected")

    return broken


@pytest.mark.parametrize(
    "workload, module, name, breaker",
    [
        ("oracle-corpus", "oracle", "measure", _off_by_one),
        ("cli-queries", "graphs", "to_dot", lambda original: lambda g: "digraph x {\n}\n"),
        ("sequence-tables", "sequences", "compare_bfile", _raising),
    ],
)
def test_a_wrong_or_failing_output_counts_and_exits_nonzero(capsys, monkeypatch, workload, module, name, breaker):
    target = getattr(divgraph, module)
    monkeypatch.setattr(target, name, breaker(getattr(target, name)))
    rc, result = run_tiny(capsys, workload, 0)
    assert rc == 1 and not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
