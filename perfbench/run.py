"""Benchmark of the multspec command line on seeded, checked workloads.

    python3 perfbench/run.py --workload tau32|polyfiber|spectra --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs a closed loop in this process: each op is one
``multspec.cli.run_command`` call, made only after the previous one
returned.  The workload's fixed op list (drawn from ``--seed``) is run as
whole passes until ``--seconds`` have gone.  Ops are timed on this
process's CPU clock, which leaves out the time the process waits for a
core, and scaled to a reference speed measured between ops (``speed.py``),
so a host whose speed shifts moves the figures little; the raw CPU and
wall times of a pass are printed on the summary line.  Every output is
checked against a mathematical invariant and its digest against every
other run of the same op, in this run and in earlier runs of the same
seed and source.  The last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics (see ``END_TO_END``);
* ``--trace 1``: each op runs untraced and then traced, and the result
  holds the per-layer metrics (see ``PER_LAYER`` and ``tracer.py``).

``failed_ratio`` (failed ops over attempted ops) and the sample counts
behind the percentiles are printed on the line before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"
SETUP_REPEATS = 9
CLOCK = speed.net_clock  # CPU seconds, less those the speed gauge spends

# times are CPU seconds scaled to the reference speed of speed.py
END_TO_END = {
    "pass_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; every name is produced by tracer.summarize
PER_LAYER = {
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.self_s": "s",
    "groebner.buchberger.basis_terms": "count",
    "groebner.quotient_dimension.sum": "count",
    "groebner.distinct_point_count.calls": "count",
    "groebner.distinct_point_count.self_s": "s",
    "groebner.eliminant_of_form.calls": "count",
    "groebner.eliminant_of_form.self_s": "s",
    "groebner.count_draw_yield": "1",
    "linalg.char_poly.calls": "count",
    "linalg.char_poly.self_s": "s",
    "linalg.char_poly.dim_sum": "count",
    "groebner.solve_rational_points.calls": "count",
    "groebner.solve_rational_points.self_s": "s",
    "groebner.QuotientAlgebra.mul.calls": "count",
    "groebner.QuotientAlgebra.mul.self_s": "s",
    "polymoduli.count_fixed_configurations.calls": "count",
    "polymoduli.count_fixed_configurations.self_s": "s",
    "polymoduli.sigma2_discrimination.calls": "count",
    "polymoduli.sigma2_discrimination.self_s": "s",
    "polymoduli.two_cycle_power_sums.calls": "count",
    "polymoduli.two_cycle_power_sums.self_s": "s",
    "exactalg.resultant.calls": "count",
    "exactalg.resultant.self_s": "s",
    "exactalg.interpolate.self_s": "s",
    "dynamics.multiplier_char_poly.calls": "count",
    "dynamics.multiplier_char_poly.self_s": "s",
    "dynamics.iterate.self_s": "s",
    "dynamics.conjugate.calls": "count",
    "exactalg.squarefree_part.self_s": "s",
    "exactalg.poly_gcd.self_s": "s",
    "exactalg.fp_roots.self_s": "s",
    "linalg.solve_linear.self_s": "s",
    "rat3.deg_tau32_single.calls": "count",
    "rat3.deg_tau32_single.self_s": "s",
    "rat3.build_tau32_system.self_s": "s",
    "rat3.draw_yield": "1",
    "cli.run_command.calls": "count",
    "cli.run_command.self_s": "s",
    "parsing.emit_document.self_s": "s",
    "parsing.parse_scalar_list.self_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh interpreter that only sets up, timed by the parent for setup_s
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """The multspec CLI module; ops call its run_command through the module so the tracer sees them."""
    sys.path.insert(0, str(SRC))
    import multspec.cli

    return multspec.cli


def source_digest():
    """Digest of the program and benchmark sources: stored output digests are valid only for the same code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "multspec").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(args):
    """Median CPU time, at reference speed, of fresh interpreters that import the CLI and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        child = json.loads(out.stdout.splitlines()[-1])
        times.append(child["cpu_s"] * speed.REF_S / child["reference_s"])
    return statistics.median(times)


class Ledger:
    """Failed ops, and output digests compared across passes and runs."""

    def __init__(self, path, n_ops):
        self.path = path
        self.attempted = 0
        self.failures = []  # (pass, op index, problem)
        self.digests = [None] * n_ops
        self.stored = None
        if path.exists():
            stored = json.loads(path.read_text())
            if len(stored) == n_ops:
                self.stored = stored

    def record(self, pass_no, results, ops):
        docs = []
        for i, (op, (code, text, _)) in enumerate(zip(ops, results)):
            self.attempted += 1
            digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
            problem = None
            if code != 0:
                problem = f"exit code {code}: {text}"
            elif self.digests[i] is not None and self.digests[i] != digest:
                problem = "output differs from an earlier pass of the same op"
            elif self.stored is not None and self.stored[i] != digest:
                problem = "output differs from an earlier run of the same seed"
            doc = json.loads(text) if code == 0 else None
            if problem is None:
                problem = op.check(doc, docs)
            if self.digests[i] is None:
                self.digests[i] = digest
            docs.append(None if problem else doc)
            if problem:
                self.failures.append((pass_no, i, problem))
                print(f"FAILED pass {pass_no} op {i} {' '.join(op.argv)}: {problem}", file=sys.stderr)

    def save(self):
        if self.stored is None and None not in self.digests:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.digests))
            os.replace(tmp, self.path)


def run_pass(ops, cli):
    """Run every op once; per-op (exit code, text, CPU seconds) and per-op speed scale factors."""
    results, marks = [], []
    with speed.Gauge() as gauge:
        for op in ops:
            start, t0 = gauge.mark(), CLOCK()
            code, text = cli.run_command(list(op.argv))
            results.append((code, text, CLOCK() - t0))
            marks.append((start, gauge.mark()))
    return results, [gauge.scale(*m) for m in marks]


def run_paired_pass(ops, cli, tr):
    """Run every op untraced and traced back to back, so both runs see the machine alike.

    Which of the two goes first alternates from op to op.  Returns the
    untraced and the traced per-op results, and per-op speed scale factors.
    """
    plain, traced, marks = [], [], []
    with speed.Gauge() as gauge:
        for i, op in enumerate(ops):
            start = gauge.mark()
            for with_trace in (i % 2 == 1, i % 2 == 0):
                if with_trace:
                    tr.op_id += 1
                    tr.install()
                try:
                    t0 = CLOCK()
                    code, text = cli.run_command(list(op.argv))
                    dt = CLOCK() - t0
                finally:
                    tr.restore()
                (traced if with_trace else plain).append((code, text, dt))
            marks.append((start, gauge.mark()))
    return plain, traced, [gauge.scale(*m) for m in marks]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_only:
        before = speed.sample()  # the speed just before the program is imported
    try:
        cli = import_program()
    except ImportError as e:
        print(f"perfbench: cannot import multspec from {SRC}: {e}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    if args.setup_only:
        # CPU time of this interpreter up to the first op, less the sample before; the speed around it
        cpu_s = speed.CLOCK() - before
        print(json.dumps({"cpu_s": cpu_s, "reference_s": (before + speed.sample()) / 2}))
        return 0

    ledger = Ledger(STATE / "digests" / f"{args.workload}-{args.seed}-{source_digest()}.json", len(ops))
    setup_s = measure_setup(args) if not args.trace else None
    tr = tracer.Tracer() if args.trace else None

    pass_times, overheads, latencies, layers, pass_cpus, pass_walls = [], [], [], [], [], []
    began = time.perf_counter()
    pass_no, wall = 0, 0.0
    # start another pass while it is expected to end within half a pass of --seconds
    while pass_no == 0 or time.perf_counter() - began + wall / 2 <= args.seconds:
        pass_began = time.perf_counter()
        if tr is not None:
            first = len(tr.spans)
            tr.counts.clear()
            results, traced, scales = run_paired_pass(ops, cli, tr)
            # spans are unscaled CPU seconds: scale them by the pass's mean factor
            pass_scale = sum(dt * k for (_, _, dt), k in zip(results, scales)) / sum(dt for _, _, dt in results)
            layer = tracer.summarize(tr.spans, first, tr.counts)
            layers.append({k: v * pass_scale if k.endswith("self_s") else v for k, v in layer.items()})
            overheads.append(sum((t[2] - u[2]) * k for t, u, k in zip(traced, results, scales)))
            ledger.record(pass_no, traced, ops)
        else:
            results, scales = run_pass(ops, cli)
        scaled = [dt * k for (_, _, dt), k in zip(results, scales)]
        pass_times.append(sum(scaled))
        pass_cpus.append(sum(dt for _, _, dt in results))
        latencies.extend(scaled)
        ledger.record(pass_no, results, ops)
        wall = time.perf_counter() - pass_began
        pass_walls.append(wall)
        pass_no += 1
    ledger.save()

    failed = len(ledger.failures)
    p90 = percentile(latencies, 90)
    summary = {
        "workload": args.workload, "seed": args.seed, "ops_per_pass": len(ops), "passes": pass_no,
        "pass_cpu_s": statistics.median(pass_cpus), "pass_wall_s": statistics.median(pass_walls),
        "failed_ratio": failed / ledger.attempted,
        "op_samples": len(latencies), "op_samples_beyond_p90": sum(1 for t in latencies if t > p90),
    }
    if tr is not None:
        counts = [{k: v for k, v in layer.items() if not k.endswith("self_s")} for layer in layers]
        summary["counts_repeat"] = all(c == counts[0] for c in counts)
        STATE.mkdir(exist_ok=True)
        tr.write_spans(STATE / f"spans-{args.workload}-{args.seed}.tsv")
        values = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                values[name] = statistics.median(overheads)
            elif name.endswith("self_s"):
                values[name] = statistics.median(layer[name] for layer in layers)
            else:
                values[name] = counts[0][name]
        units = PER_LAYER
    else:
        values = {
            "pass_s": statistics.median(pass_times),
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": p90,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    print("summary " + json.dumps(summary))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
