"""Benchmark of the topolysemy CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tps-vocab --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload is a closed loop with one client: one ``topolysemy`` CLI
invocation at a time, each in a fresh process, on the workload's batch,
until ``--seconds`` have passed (and at least three invocations, so that
set-up time is a median).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  A traced
run alternates untraced and traced invocations, so the tracing overhead is
measured in the same run.  Human-readable detail, including the machine
record, goes to stderr.  See perfbench/RATIONALE.md for why each workload
and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field

# One BLAS thread and one pool worker per core, set before numpy loads
# here or in the CLI processes (which inherit both), so pool threads times
# BLAS threads never exceed the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["TPS_THREADS"] = str(len(os.sched_getaffinity(0)))

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 150
TPS_REFERENCE_SAMPLE = 12

@dataclass
class Invocation:
    wall_s: float
    setup_s: float
    work_s: float
    peak_rss_mb: float
    output: str
    report: dict = field(repr=False)


def invoke(root: str, argv: list[str], traced: bool, scratch: str, index: int) -> Invocation:
    """Run the CLI once in a fresh process; wall time runs from spawn to main's return."""
    report_path = os.path.join(scratch, f"report{index}.json")
    output = argv[argv.index("--out") + 1]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    command = [sys.executable, os.path.join(HERE, "child.py"), report_path, "1" if traced else "0", "--", *argv]
    with open(os.path.join(scratch, f"log{index}.txt"), "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(command, env=env, stdout=log, stderr=subprocess.STDOUT, cwd=root)
        try:
            proc.wait(timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not os.path.exists(report_path):
        with open(os.path.join(scratch, f"log{index}.txt")) as log:
            sys.stderr.write(log.read()[-2000:])
        raise RuntimeError(f"CLI invocation exited with {proc.returncode}: {' '.join(argv)}")
    with open(report_path) as handle:
        report = json.load(handle)
    run_spans = [Span(**s) for s in report["spans"]]
    setup, setup_end, written = layers.boundary_times(run_spans)
    return Invocation(
        wall_s=report["done"] - start,
        setup_s=setup,
        work_s=written - setup_end,
        peak_rss_mb=report["peak_rss_mb"],
        output=output,
        report=report,
    )


def cli_argv(workload, inputs: str, out: str) -> list[str]:
    vectors = os.path.join(inputs, "vectors.vec")
    if workload.kind == "tps":
        return ["tps", "--vectors", vectors, "--words", os.path.join(inputs, "words.txt"), *workload.cli, "--out", out]
    return ["wsi", "--vectors", vectors, "--instances", os.path.join(inputs, "instances.jsonl"), *workload.cli, "--out", out]


class Checker:
    """Checks each distinct output once (by digest) and counts failures."""

    def __init__(self, workload, inputs: str, seed: int) -> None:
        self.workload = workload
        self.inputs = inputs
        self.results: dict[str, tuple[int, dict]] = {}
        if workload.kind == "tps":
            with open(os.path.join(inputs, "words.txt")) as handle:
                self.requested = [line.strip() for line in handle if line.strip()]
            rng = np.random.default_rng([seed, 99])
            size = min(TPS_REFERENCE_SAMPLE, len(self.requested))
            self.sample = [self.requested[i] for i in sorted(rng.choice(len(self.requested), size, replace=False))]
            self.reference: dict[str, float] | None = None
        else:
            with open(os.path.join(inputs, "bundles.json")) as handle:
                self.bundle_of = json.load(handle)
            from topolysemy.wsi import load_key

            self.gold_key = load_key(os.path.join(inputs, "gold.key"))
            self.gold = dict(self.gold_key.by_instance)

    def attempted(self) -> int:
        return len(self.requested) if self.workload.kind == "tps" else len(self.gold)

    def _tps_reference(self) -> dict[str, float]:
        if self.reference is None:
            unit = checks.unit_rows(np.load(os.path.join(self.inputs, "quantized.npy")))
            self.reference = {w: checks.reference_tps(unit, int(w[1:]), self.workload.n) for w in self.sample}
        return self.reference

    def check(self, invocation: Invocation) -> tuple[int, dict]:
        """(failed operations, quality figures) of one invocation's output."""
        key = checks.digest(invocation.output)
        if key not in self.results:
            if self.workload.kind == "tps":
                scores = checks.read_tps_csv(invocation.output)
                failed = checks.tps_failures(scores, self.requested, self.workload.n, self._tps_reference())
                self.results[key] = (len(failed), {})
            else:
                from topolysemy.metrics import score_keys
                from topolysemy.wsi import load_key

                system = load_key(invocation.output)
                failed = checks.wsi_failures(list(system.rows), self.gold, invocation.report["senses"], self.bundle_of)
                pooled = score_keys(system, self.gold_key).pooled
                self.results[key] = (len(failed), {"v_measure": pooled.v_measure, "paired_f": pooled.f_score})
        return self.results[key]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "l3": None,
        "matrix_mb_127151x100_f64": round(127_151 * 100 * 8 / 1e6, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "TPS_THREADS": os.environ["TPS_THREADS"],
    }
    lscpu = shutil.which("lscpu")
    if lscpu:
        out = subprocess.run([lscpu], capture_output=True, text=True, check=False).stdout
        for line in out.splitlines():
            name, _, value = line.partition(":")
            if name.strip() == "Model name":
                record["cpu_model"] = value.strip()
            elif name.strip() == "L3 cache":
                record["l3"] = value.strip()
    return record


def run_workload(root: str, name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    env = environment()
    print(f"env {json.dumps(env)}", file=sys.stderr)
    inputs = workloads.prepare(workload, seed)
    checker = Checker(workload, inputs, seed)
    scratch = tempfile.mkdtemp(dir=workloads.CACHE_DIR, prefix="run-")
    plain: list[Invocation] = []
    with_trace: list[Invocation] = []
    try:
        start = time.monotonic()
        index = 0
        while True:
            for is_traced in (False, True) if traced else (False,):
                out = os.path.join(scratch, f"out{index}.{'csv' if workload.kind == 'tps' else 'key'}")
                invocation = invoke(root, cli_argv(workload, inputs, out), is_traced, scratch, index)
                (with_trace if is_traced else plain).append(invocation)
                index += 1
            done = len(plain) >= (1 if traced else MIN_INVOCATIONS)
            if done and time.monotonic() - start >= seconds:
                break

        everything = plain + with_trace
        digests = {checks.digest(i.output) for i in everything}
        failed = 0
        quality: dict = {}
        for invocation in everything:
            count, quality = checker.check(invocation)
            failed += count
        attempted = checker.attempted() * len(everything)
        correct = failed == 0 and len(digests) == 1
        if workload.name == "wsi-dbscan" and (quality["v_measure"] != 1.0 or quality["paired_f"] != 1.0):
            correct = False
        print(
            f"{name} seed={seed}: {len(plain)} untraced + {len(with_trace)} traced invocations, "
            f"output digests {sorted(d[:12] for d in digests)}, failed {failed}/{attempted}, quality {quality}",
            file=sys.stderr,
        )
        for label, group in (("", plain), (" (traced)", with_trace)):
            for invocation in group:
                print(
                    f"  invocation wall {invocation.wall_s:.3f} s, set-up {invocation.setup_s:.3f} s, "
                    f"work {invocation.work_s:.3f} s, peak rss {invocation.peak_rss_mb:.1f} MB{label}",
                    file=sys.stderr,
                )

        if not traced:
            items = len(checker.requested) if workload.kind == "tps" else len({t for t, _ in checker.gold})
            values = {
                "setup_s": statistics.median(i.setup_s for i in plain),
                "wall_s": statistics.median(i.wall_s for i in plain),
                "items_per_s": statistics.median(items / i.work_s for i in plain),
                "peak_rss_mb": statistics.median(i.peak_rss_mb for i in plain),
                "success_ratio": 1.0 - failed / attempted,
            }
            metrics = {n: {"value": values[n], "unit": unit} for n, unit in layers.END_TO_END}
        else:
            all_spans = []
            for invocation in with_trace:
                run = str(invocation.report["spans"][0]["run"]) if invocation.report["spans"] else ""
                for raw in invocation.report["spans"]:
                    span = Span(**raw)
                    span.id = f"{run}:{span.id}"
                    span.parent = None if span.parent is None else f"{run}:{span.parent}"
                    all_spans.append(span)
            traced_wall = sum(i.wall_s for i in with_trace)
            extra = {
                "trace.overhead_frac": traced_wall / sum(i.wall_s for i in plain[: len(with_trace)]) - 1.0,
                "trace.wall_s": traced_wall,
                "trace.missing": len(with_trace[0].report["missing"]),
                "wsi.clamped_k": sum(i.report["clamped_k"] for i in with_trace),
                "metrics.v_measure": quality.get("v_measure", 0.0),
                "metrics.paired_f": quality.get("paired_f", 0.0),
            }
            values = layers.per_layer(all_spans, extra)
            units = dict(layers.PER_LAYER)
            metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
            if with_trace[0].report["missing"]:
                print(f"trace: missing public names {with_trace[0].report['missing']}", file=sys.stderr)
            print(f"trace: dominant layer {layers.dominant(values)}", file=sys.stderr)
            os.makedirs(os.path.join(workloads.CACHE_DIR, "traces"), exist_ok=True)
            with open(os.path.join(workloads.CACHE_DIR, "traces", f"{name}-seed{seed}.json"), "w") as handle:
                json.dump({"env": env, "spans": [asdict(s) for s in all_spans]}, handle)
        for metric, entry in metrics.items():
            print(f"  {metric:45s} {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "topolysemy", "cli.py")):
        print("error: run from the root of a topolysemy checkout (src/topolysemy/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {list(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    os.makedirs(workloads.CACHE_DIR, exist_ok=True)

    results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        for n, result in results.items():
            print(f"{n}: correct={result['correct']} failed={result['failed']}/{result['attempted']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
