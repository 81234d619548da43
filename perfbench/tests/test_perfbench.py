"""Tests of the benchmark itself: generator, checks, tracer, result format.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from multspec import cli  # noqa: E402


def _argvs(ops):
    return [op.argv for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _argvs(workloads.build(workload, 7)) == _argvs(workloads.build(workload, 7))
    assert _argvs(workloads.build(workload, 7)) != _argvs(workloads.build(workload, 8))


def test_form_resultant():
    # z^2 and 1 share no root; z^2 - z and z share z = 0
    assert workloads.form_resultant([1, 0, 0], [0, 0, 1]) != 0
    assert workloads.form_resultant([1, -1, 0], [0, 1, 0]) == 0
    # (x - 2y)(x + y) against (x - 2y) y: common root (2 : 1)
    assert workloads.form_resultant([1, -1, -2], [0, 1, -2]) == 0
    # leading coefficients both vanish: common root at infinity (1 : 0)
    assert workloads.form_resultant([0, 1, 1], [0, 2, 3]) == 0


def test_spectra_inputs_are_morphisms_with_good_reduction():
    for op in workloads.build("spectra", 3):
        argv = dict(zip(op.argv[1::2], op.argv[2::2]))
        num = [int(c) for c in argv["--num"].split(",")]
        den = [int(c) for c in argv["--den"].split(",")]
        res = workloads.form_resultant(num, den)
        assert res != 0
        if "--field" in argv:
            assert res % int(argv["--field"][3:]) != 0


def _tau32_doc(**override):
    draw = dict(workloads.TAU32_COUNTS, prime=101, lambdas=[], alpha_values=9)
    doc = dict(workloads.TAU32_COUNTS, command="deg-tau32", draws=[dict(draw) for _ in range(workloads.TAU32_DRAWS)])
    doc.update(override)
    return doc


def test_tau32_check_flags_a_doctored_degree():
    assert workloads.check_tau32(_tau32_doc(), []) is None
    assert "degree" in workloads.check_tau32(_tau32_doc(degree=11), [])
    doc = _tau32_doc()
    doc["draws"][-1]["simple"] = 11
    assert f"draw {workloads.TAU32_DRAWS - 1}" in workloads.check_tau32(doc, [])
    assert "draws" in workloads.check_tau32(_tau32_doc(draws=[]), [])


def _run(op):
    code, text = cli.run_command(list(op.argv))
    assert code == 0, text
    return json.loads(text)


def test_spectra_checks_accept_real_output_and_flag_doctored_documents():
    ops = workloads.build("spectra", 1)
    relation = ops[0]
    doc = _run(relation)
    assert relation.check(doc, []) is None
    assert "theorem residual" in relation.check(dict(doc, theorem_residual="1"), [])

    # the first sigma pair is at (d, n) = (3, 2): fast enough for a unit test
    qq, gf = ops[workloads.RELATION_MAPS], ops[workloads.RELATION_MAPS + 1]
    assert "--field" not in qq.argv and "--field" in gf.argv
    earlier = [None] * workloads.RELATION_MAPS + [_run(qq)]
    gf_doc = _run(gf)
    assert gf.check(gf_doc, earlier) is None
    doctored = list(gf_doc["sigma"])
    p = int(gf.argv[gf.argv.index("--field") + 1][3:])
    doctored[0] = str((int(doctored[0]) + 1) % p)
    assert "mod" in gf.check(dict(gf_doc, sigma=doctored), earlier)
    assert "paired QQ" in gf.check(gf_doc, earlier[:-1] + [None])


def test_polyfiber_check_flags_wrong_counts():
    check = workloads._fiber_check("sigma2-check", 5, 24, 6)
    good = {"command": "sigma2-check", "degree": 5, "solutions": 24, "classes": 6, "all_distinct": True}
    assert check(good, []) is None
    assert check(dict(good, classes=5), []) is not None
    assert "all_distinct" in check(dict(good, all_distinct=False), [])


def _bindings():
    return {(id(owner), attr): id(value) for owner in tracer.binding_owners() for attr, value in vars(owner).items()}


def test_tracer_rebinds_every_alias_and_restores_all_bindings():
    before = _bindings()
    originals = [tracer._resolve(name) for name in tracer.TRACED]
    tr = tracer.Tracer()
    tr.install()
    try:
        held = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in tracer.binding_owners()
            for attr, value in vars(owner).items()
            if any(value is f for f in originals)
        ]
        assert held == []
        from multspec import groebner, polymoduli

        assert groebner._char_poly is polymoduli._char_poly
        assert groebner._char_poly.__wrapped__ is originals[tracer.TRACED.index("linalg.char_poly")]
    finally:
        tr.restore()
    assert _bindings() == before


def _small_ops():
    spectra = workloads.build("spectra", 2)
    poly = [op for op in workloads.build("polyfiber", 2) if op.argv[2] == "4"][:2]
    return spectra[:8] + spectra[workloads.RELATION_MAPS:workloads.RELATION_MAPS + 2] + poly


def _traced_pass(ops):
    before = _bindings()
    tr = tracer.Tracer()
    plain, traced, scales = run.run_paired_pass(ops, cli, tr)
    assert len(scales) == len(ops) and all(k > 0 for k in scales)
    assert _bindings() == before
    outputs = [(code, text) for code, text, _ in traced]
    assert outputs == [(code, text) for code, text, _ in plain]
    return outputs, tracer.summarize(tr.spans, 0, tr.counts)


def test_traced_counts_repeat_and_outputs_match_untraced():
    ops = _small_ops()
    out1, layers1 = _traced_pass(ops)
    out2, layers2 = _traced_pass(ops)
    assert out1 == out2
    counts1 = {k: v for k, v in layers1.items() if not k.endswith("self_s")}
    counts2 = {k: v for k, v in layers2.items() if not k.endswith("self_s")}
    assert counts1 == counts2
    assert counts1["cli.run_command.calls"] == len(ops)
    assert counts1["polymoduli.sigma2_discrimination.calls"] == 1
    assert counts1["groebner.count_draw_yield"] > 0
    assert all(v >= 0 for k, v in layers1.items() if k.endswith("self_s"))


def test_every_per_layer_metric_is_produced():
    produced = set(tracer.summarize([], 0, {})) | {"trace.overhead_s"}
    assert set(run.PER_LAYER) <= produced


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(".state", "__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "spectra", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_gauge_samples_inside_ops_and_leaves_them_out_of_the_clock():
    with speed.Gauge() as gauge:
        start, raw0, t0 = gauge.mark(), speed.CLOCK(), speed.net_clock()
        while speed.net_clock() - t0 < 3 * speed.EVERY_S:  # an op long enough to be interrupted
            speed.reference_work()
        op_cpu, raw, end = speed.net_clock() - t0, speed.CLOCK() - raw0, gauge.mark()
    assert end - start >= 2  # samples were taken during the op
    assert gauge.mark() == end + 1  # and one after it
    sampled = sum(speed.REF_S / f for f in gauge.factors[start:end])
    assert raw - op_cpu >= 0.9 * sampled  # their time is left out of net_clock
    window = gauge.factors[start - 1 : end + 1]
    assert gauge.scale(start, end) == sum(window) / len(window)
    assert signal.getsignal(signal.SIGPROF) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
