"""Tests of the benchmark harness: span self time, failure counting, seeding."""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ops  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, covered, layer_metrics, self_times  # noqa: E402


def test_covered_merges_overlaps():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered([]) == 0.0


def test_self_time_on_nested_spans():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, None),
        Span("experiments.reproduce_fig2", 1.0, 4.0, 0, None),
        Span("dynamics.coarse_reset", 2.0, 3.0, 1, None),
        Span("analytics.attractor", 5.0, 6.0, 0, None),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == 6.0 and m["experiments.self_s"] == 2.0
    assert sum(m[f"{layer}.self_s"] for layer in ("cli", "experiments", "dynamics", "model")) \
        + m["analytics.s"] == 10.0


def test_engine_self_time_leaves_out_eigh_unitary_and_hamiltonian():
    spans = [
        Span("dynamics.run_ensemble", 0.0, 10.0, -1, ("sampled-coarse", 200)),
        Span("model.build_total_hamiltonian", 0.5, 1.0, 0, None),
        Span("dynamics.Propagator", 1.0, 4.0, 0, None),
        Span("dynamics.eigh", 1.5, 3.5, 2, 8),
        Span("dynamics.unitary", 4.0, 5.0, 0, None),
        Span("dynamics.trajectory_seed", 5.0, 5.5, 0, None),
    ]
    m = layer_metrics(spans)
    assert m["dynamics.engine_self_s.sampled-coarse"] == 10.0 - 4.5
    assert m["dynamics.traj_steps.sampled-coarse"] == 200
    assert m["dynamics.us_per_traj_step.sampled-coarse"] == pytest.approx(1e6 * 5.5 / 200)
    assert (m["dynamics.eigh_calls"], m["dynamics.joint_dim"]) == (1, 8)
    assert m["dynamics.engine_self_s.nonselective-exact"] == 0.0


def test_tracer_patches_callers_and_restores():
    import tlsbath.experiments as experiments

    original = experiments.rho00_closed_form
    tracer = Tracer()
    with tracer.installed():
        assert experiments.rho00_closed_form is not original
        experiments.reproduce_fig2(n=3, steps=4)
    assert experiments.rho00_closed_form is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "experiments.reproduce_fig2"
    for name in ("analytics.rho00_closed_form", "dynamics.run_ensemble", "dynamics.eigh",
                 "model.build_band_environment", "model.build_total_hamiltonian"):
        assert name in names
    m = layer_metrics(tracer.spans)
    assert m["dynamics.traj_steps.nonselective-coarse"] == 4
    assert sum(self_times(tracer.spans)) == pytest.approx(
        tracer.spans[0].end - tracer.spans[0].start)


def _relax_outputs(tmp_path, rows, plateau=0.75):
    tmp_path.mkdir(parents=True, exist_ok=True)
    lines = ["j,k_j,rho00,re_rho10,im_rho10,stderr"]
    lines += [f"{j},,0.75,0.1,0.0,0.0" for j in range(rows)]
    (tmp_path / "relax_fig2.csv").write_text("\n".join(lines) + "\n")
    series = {"rho00_exact": [0.75] * rows, "rho00_analytic": [0.74] * rows}
    (tmp_path / "relax_fig2.json").write_text(
        json.dumps({"series": series, "plateau": plateau, "tolerance": 0.03}))


OP = ops.Op("relax", {"steps": 3}, csv="relax_fig2.csv", rows=4)


def test_check_passes_good_output(tmp_path):
    _relax_outputs(tmp_path, 4)
    problems, info = ops.check(OP, 0, None, tmp_path)
    assert problems == []
    assert info["rows"] == 4 and info["gap"] == pytest.approx(0.01)


@pytest.mark.parametrize("code,rows,plateau", [(2, 4, 0.75), (0, 3, 0.75), (0, 4, 0.5)])
def test_check_flags_code_rows_and_plateau(tmp_path, code, rows, plateau):
    _relax_outputs(tmp_path, rows, plateau)
    problems, _ = ops.check(OP, code, None, tmp_path)
    assert len(problems) == 1


def test_check_flags_unphysical_row(tmp_path):
    _relax_outputs(tmp_path, 4)
    path = tmp_path / "relax_fig2.csv"
    path.write_text(path.read_text().replace("3,,0.75,0.1", "3,,0.75,0.5"))
    problems, _ = ops.check(OP, 0, None, tmp_path)
    assert problems and "physical" in problems[0]


def test_count_failures_counts_checks_and_rerun_mismatch():
    def op(code, sha, problems=()):
        return {"code": code, "csv_sha256": sha, "problems": list(problems), "argv": ["relax"]}

    passes = [
        {"mode": "plain", "ops": [op(0, "a"), op(2, "b")]},
        {"mode": "plain", "ops": [op(0, "a"), op(2, "c")]},           # hash differs
        {"mode": "mem", "ops": [op(1, "a", ["exit code 1"]), op(2, "b")]},
    ]
    attempted, failed, reasons = run.count_failures(passes)
    assert (attempted, failed) == (6, 2)
    assert len(reasons) == 2


def test_seed_reaches_every_operation(tmp_path):
    from tlsbath.cli import build_parser

    parser = build_parser()
    for workload in ops.WORKLOADS.values():
        for op in workload:
            argv = op.argv(4321, tmp_path / "c.json", tmp_path)
            assert parser.parse_args(argv).seed == 4321


def test_benchmark_file_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(ops.WORKLOADS)
    reported = set(layer_metrics([])) | {
        "trace.wall_s", "trace.overhead_s", "analytics.warnings", "cli.rows_written",
        "cli.bytes_written", "fail_ratio", "analytic_gap", "tracemalloc_peak_mib"}
    assert {m["name"] for m in bench["per_layer"]} == reported


def test_seed_reaches_each_pass(monkeypatch, tmp_path):
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append(cmd)
        return run.subprocess.CompletedProcess(cmd, 0, stdout='{"ok": 1}\n', stderr="")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path)
    assert run.run_pass("dense-n9", 4321, "plain") == {"ok": 1}
    assert seen[0][seen[0].index("--seed") + 1] == "4321"


def test_check_flags_malformed_row(tmp_path):
    _relax_outputs(tmp_path, 4)
    path = tmp_path / "relax_fig2.csv"
    path.write_text(path.read_text().replace("3,,0.75,0.1,0.0,0.0", "3,,0.75"))
    problems, _ = ops.check(OP, 0, None, tmp_path)
    assert problems and "physical" in problems[0]
