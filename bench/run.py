"""Decision-throughput benchmark for qhyp: one process, one calling thread,
a closed loop over seeded inputs in the wire format.

    python3 bench/run.py --workload congruence --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; qhyp is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes every span to ``bench_out/`` at the root.  See
README.md for the workloads and what each metric should explain.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# Every matrix is at most 10 x 10 complex.  A BLAS thread pool does no useful
# work on that, and on a two-core machine it stalled whole operations for
# 50-90 ms; one thread keeps the run to its one calling thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: Operation and set-up times are CPU seconds of this process.  An operation
#: does no I/O and waits for nothing, so on an unshared machine this is its
#: wall time; on a shared virtual machine wall time also holds the time the
#: host steals, which moved rounds of the same operations by up to 2x.
CLOCK = time.process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "bench_out"
#: set-ups per run; setup_s reports their median
SETUP_REPEATS = 3
#: operations a run attempts at least, so that the 90th percentile has ten
#: samples beyond it
MIN_SAMPLES = 100
#: per-layer metric -> (reading, span): inclusive ms of the outermost calls,
#: self ms, or calls, each per operation
LAYER_SPANS = {
    "gram.gram_of_ms": ("incl", "gram.gram_of"),
    "gram.semi_normalize_ms": ("incl", "gram.semi_normalize"),
    "gram.orbit_equal_ms": ("incl", "gram.orbit_equal"),
    "gram.congruent_self_ms": ("self", "gram.congruent"),
    "gram.reconstruct_gram_ms": ("incl", "gram.reconstruct_gram"),
    "invariants.profile_self_ms": ("self", "invariants.profile"),
    "invariants.profile_from_gram_ms": ("incl", "invariants.profile_from_gram"),
    "invariants.cross_ratio_calls": ("calls", "invariants.cross_ratio"),
    "quaternion.mul_calls": ("calls", "quaternion.Quaternion.__mul__"),
    "quaternion.sp1_align_calls": ("calls", "quaternion.sp1_align"),
    "quaternion.sp1_align_ms": ("incl", "quaternion.sp1_align"),
    "linalg.herm_calls": ("calls", "linalg.HermitianSpace.herm"),
    "linalg.herm_ms": ("incl", "linalg.HermitianSpace.herm"),
    "linalg.orthonormal_form_basis_ms": ("incl", "linalg.orthonormal_form_basis"),
    "linalg.project_to_group_ms": ("incl", "linalg.HermitianSpace.project_to_group"),
    "linalg.right_eigen_ms": ("incl", "linalg.right_eigen"),
    "isometry.construct_self_ms": ("self", "isometry.Isometry.__init__"),
    "isometry.conjugate_single_ms": ("incl", "isometry.conjugate_single"),
    "pairs.pair_conjugate_self_ms": ("self", "pairs.pair_conjugate"),
    "pairs.common_fixed_point_ms": ("incl", "pairs.have_common_fixed_point"),
    "pairs.eigenframe_ms": ("incl", "pairs.eigenframe"),
}


def _load():
    """Import qhyp from the checkout; None when src/ is missing."""
    if not (ROOT / "src" / "qhyp" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    return workloads


class Loop:
    """Closed loop over whole rounds of the same cases, outputs checked
    outside the timed interval (once per distinct output of a case)."""

    def __init__(self, wl, cases):
        self.wl, self.cases = wl, cases
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = self.failed = 0
        self.rounds = 0
        self.first_outputs: list = []
        self.reasons: dict[str, str] = {}
        self._checked: list[dict] = [{} for _ in cases]

    def round(self) -> None:
        clock = CLOCK
        for k, case in enumerate(self.cases):
            t0 = clock()
            try:
                out = self.wl.op(case)
            except Exception as exc:  # a failed operation is counted, not fatal
                out, reason = None, f"{type(exc).__name__}: {exc}"
            dt = clock() - t0
            self.busy += dt
            self.attempted += 1
            if out is not None:
                reason = self._checked[k].get(out, ...)
                if reason is ...:
                    try:
                        reason = self.wl.check(case, out)
                    except Exception as exc:  # a malformed output fails its check
                        reason = f"malformed output: {type(exc).__name__}: {exc}"
                    self._checked[k][out] = reason
            if self.rounds == 0:
                self.first_outputs.append(out)
            if reason:
                self.failed += 1
                self.reasons.setdefault(case.kind, reason)
            else:
                self.latencies.append(dt)
        self.rounds += 1

    def run_for(self, seconds: float) -> None:
        """Whole rounds until the time is up and at least MIN_SAMPLES
        operations were attempted."""
        end = time.perf_counter() + seconds
        self.round()
        while time.perf_counter() < end or self.attempted < MIN_SAMPLES:
            self.round()


def _setup(workloads, name: str, seed: int, copies: int):
    """Generate and encode the inputs, then warm up on one case of each kind.

    Repeated SETUP_REPEATS times; every repeat must give the same documents.
    Returns the cases, the median set-up seconds and the median input
    generation seconds.
    """
    wl = workloads.WORKLOADS[name]
    times, gen_times, docs = [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = CLOCK()
        cases = workloads.make_cases(name, seed, copies)
        t1 = CLOCK()
        warmed = set()
        for case in cases:
            if case.kind not in warmed:
                warmed.add(case.kind)
                try:
                    wl.op(case)
                except Exception:  # the timed loop counts and reports it
                    pass
        times.append(CLOCK() - t0)
        gen_times.append(t1 - t0)
        this = [c.docs for c in cases]
        if docs is not None and this != docs:
            raise RuntimeError("one seed gave two different input sets")
        docs = this
    return cases, statistics.median(times), statistics.median(gen_times)


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed(workloads, name: str, seed: int, seconds: float, copies: int) -> dict:
    import_s = CLOCK()  # interpreter start-up and imports
    cases, setup_one, _ = _setup(workloads, name, seed, copies)
    loop = Loop(workloads.WORKLOADS[name], cases)
    loop.run_for(seconds)
    lat = loop.latencies
    _report(loop, f"{len(cases)} cases x {loop.rounds} rounds")
    if not lat:
        raise RuntimeError("no operation completed")
    metrics = {
        "ops_per_s": (len(lat) / loop.busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (_quantile(lat, 90) * 1e3, "ms"),
        "setup_s": (import_s + setup_one, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return _result(loop.failed == 0, loop, metrics)


def traced(workloads, name: str, seed: int, seconds: float, copies: int) -> dict:
    from tracer import Tracer

    cases, _, gen_s = _setup(workloads, name, seed, copies)
    wl = workloads.WORKLOADS[name]
    tr = Tracer()
    tr.calibrate()
    tr.install()
    try:
        again = workloads.make_cases(name, seed, copies)
    finally:
        tr.uninstall()
    same_inputs = [c.docs for c in again] == [c.docs for c in cases]
    draws = tr.edge_calls("isometry.random_frame", "linalg.orthonormal_form_basis")
    frames = tr.calls("isometry.random_frame")

    # Untraced and traced rounds alternate, so drift in the machine's speed
    # falls on both alike and their difference is the tracing overhead.
    tr.reset()
    plain, loop = Loop(wl, cases), Loop(wl, cases)
    end = time.perf_counter() + seconds
    while True:
        plain.round()
        tr.install()
        try:
            loop.round()
        finally:
            tr.uninstall()
        if time.perf_counter() >= end:
            break

    ops = loop.attempted
    untraced_ms = plain.busy * 1e3 / plain.attempted
    traced_ms = loop.busy * 1e3 / ops
    # the rounds pair up one to one, so the busy-time difference is what the
    # wrappers cost over exactly the recorded operations
    times = tr.corrected(max(0.0, loop.busy - plain.busy))
    per_op = {nm: (incl * 1e3 / ops, own * 1e3 / ops) for nm, (incl, own) in times.items()}

    def self_ms(prefix: str, suffixes) -> float:
        return sum(own for nm, (_, own) in per_op.items()
                   if nm.startswith(prefix) and nm.endswith(suffixes))

    metrics = {}
    for metric, (reading, span) in LAYER_SPANS.items():
        if reading == "calls":
            metrics[metric] = (tr.calls(span) / ops, "count")
        else:
            incl, own = per_op.get(span, (0.0, 0.0))
            metrics[metric] = (incl if reading == "incl" else own, "ms")
    metrics["serialize.decode_ms"] = (self_ms("serialize.", "_from_json"), "ms")
    metrics["serialize.encode_ms"] = (self_ms("serialize.", "_to_json"), "ms")
    metrics["sampling.inputs_s"] = (gen_s, "s")
    metrics["sampling.frame_draws_per_frame"] = (draws / frames if frames else 0.0, "count")
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")

    self_sum_ms = sum(own for _, own in per_op.values())
    same_outputs = loop.first_outputs == plain.first_outputs
    calibrated_ms = tr.calibrated_overhead() * 1e3 / ops
    summary = {
        "untraced_ms_per_op": untraced_ms,
        "traced_ms_per_op": traced_ms,
        "self_times_sum_ms_per_op": self_sum_ms,
        "outside_spans_ms_per_op": untraced_ms - self_sum_ms,
        "span_calls_per_op": tr.span_calls / ops,
        "counted_calls_per_op": tr.counted_calls / ops,
        "calibrated_span_cost_us": tr.span_cost * 1e6,
        "calibrated_count_cost_us": tr.count_cost * 1e6,
        "calibrated_overhead_ms_per_op": calibrated_ms,
        "overhead_scale": (traced_ms - untraced_ms) / calibrated_ms,
        "traced_outputs_equal_untraced": same_outputs,
        "traced_inputs_equal_untraced": same_inputs,
    }
    _write_trace(name, seed, tr, ops, per_op, summary)
    _report(loop, f"untraced {untraced_ms:.3f} ms/op, traced {traced_ms:.3f} ms/op, "
                  f"self times sum to {self_sum_ms:.3f} ms/op")
    ok = not (plain.failed or loop.failed) and same_outputs and same_inputs
    return _result(ok, loop, metrics)


def _write_trace(name: str, seed: int, tr, ops: int, per_op: dict, summary: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    doc = {
        "workload": name, "seed": seed, "operations": ops, "summary": summary,
        "spans": {nm: {"calls_per_op": tr.calls(nm) / ops, "inclusive_ms_per_op": incl,
                       "self_ms_per_op": own}
                  for nm, (incl, own) in sorted(per_op.items())},
        "counts_per_op": {nm: c / ops for nm, c in sorted(tr.counts.items())},
        "edges_per_op": [{"caller": a, "callee": b, "calls_per_op": c / ops}
                         for (a, b), c in sorted(tr.edges.items(), key=lambda e: str(e[0]))],
    }
    path = OUT_DIR / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _report(loop: Loop, detail: str) -> None:
    print(f"{loop.attempted} operations, {loop.failed} failed; {detail}", file=sys.stderr)
    for kind, reason in sorted(loop.reasons.items()):
        print(f"  failed {kind}: {reason}", file=sys.stderr)


def _result(correct: bool, loop: Loop, metrics: dict) -> dict:
    return {"correct": bool(correct), "attempted": loop.attempted, "failed": loop.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("congruence", "invariants", "pair_conjugacy"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workloads = _load()
    if workloads is None:
        print(f"error: no qhyp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = traced if args.trace else timed
    result = run(workloads, args.workload, args.seed, args.seconds, workloads.COPIES)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
