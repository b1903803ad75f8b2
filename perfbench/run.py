"""Benchmark of cuntz-bases, run from the root of a checkout.

    python3 perfbench/run.py --workload signal-cantor --seed 1 --seconds 48 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table each

One repetition runs the workload's operations one after another, each in
a fresh process, from this single runner.  Repetitions continue until
their total is as near ``--seconds`` as whole repetitions allow.  Every
output is checked for exactness after its repetition, outside the timed
region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians
over the repetitions); ``--trace 1`` runs half the time untraced and half
traced, and reports its per-layer metrics plus the tracing overhead.  The
last line of stdout is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"

SETUP_SAMPLES = 9
OP_TIMEOUT_S = 150
SETUP_CODE = "import cuntz_bases.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


@dataclass
class Rep:
    wall: float
    cpu: float
    peak_kb: int
    attempted: int
    failed: int
    traces: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("CUNTZ_BASES_THREADS", None)  # users leave it unset
    return env


class Spawner:
    """Runs commands one at a time through ``spawner.py``, a small process
    whose size does not leak into its children's peak RSS (see there)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True, start_new_session=True)

    def run(self, cmd: list, stdout: Path, stderr: Path) -> tuple[int, float, int]:
        """(exit code, CPU seconds, peak RSS in KB) of one finished process."""
        request = {"cmd": cmd, "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher exited")
        result = json.loads(reply)
        return result["code"], result["cpu"], result["peak_kb"]

    def close(self) -> None:
        """Stop the launcher and anything it still runs, and wait for it."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def command(op, trace_out) -> list:
    if op.kind == "cli":
        if trace_out is None:
            return [sys.executable, "-m", "cuntz_bases.cli", *op.args]
        return [sys.executable, str(BENCH / "tracer.py"), "--out", str(trace_out),
                "--run-id", trace_out.stem, "--", *op.args]
    cmd = [sys.executable, str(BENCH / "libcalls.py"), *op.args]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out), "--run-id", trace_out.stem]
    return cmd


def run_rep(ops, spawner: Spawner, work: Path, index: int, traced: bool, between=None) -> Rep:
    """One repetition.  ``between(wall so far)`` runs after each operation,
    outside the repetition's time."""
    codes, wall, cpu, peak, trace_files = [], 0.0, 0.0, 0, []
    for i, op in enumerate(ops):
        trace_out = work / f"trace-r{index}-o{i}.json" if traced else None
        start = time.perf_counter()
        code, op_cpu, op_peak = spawner.run(command(op, trace_out), op.stdout, work / "stderr.log")
        wall += time.perf_counter() - start
        codes.append(code)
        cpu += op_cpu
        peak = max(peak, op_peak)
        trace_files.append(trace_out)
        if between is not None:
            between(wall)
    attempted = failed = 0
    for op, code in zip(ops, codes):
        try:
            a, f = op.check(code)
        except (OSError, ValueError, LookupError, TypeError, ArithmeticError) as exc:
            # malformed output: the operation failed, the benchmark goes on
            print(f"{op.name}: output check raised {exc!r}", file=sys.stderr)
            a, f = 1, 1
        attempted += a
        failed += f
    traces = [json.loads(t.read_text()) for t in trace_files if t is not None and t.exists()]
    return Rep(wall, cpu, peak, attempted, failed, traces)


def measure(ops, spawner, work, seconds: float, traced: bool, first_index: int = 0,
            setup: SetupClock | None = None) -> list[Rep]:
    """Repetitions until their total is as near ``seconds`` as whole ones get:
    another one runs while it would likely end nearer than stopping now.
    ``setup`` takes its samples between operations as they fall due."""
    reps: list[Rep] = []
    total = 0.0
    between = None if setup is None else lambda wall: setup.sample_due(total + wall)
    while not reps or total + total / len(reps) / 2 < seconds:
        reps.append(run_rep(ops, spawner, work, first_index + len(reps), traced, between))
        total += reps[-1].wall
    if setup is not None:
        setup.sample_due(seconds)
    return reps


class SetupClock:
    """Fresh interpreter to ``cuntz_bases`` imported and ready, wall seconds.

    The SETUP_SAMPLES samples are spread evenly over the measured time, not
    taken in one burst: the machine's speed varies over seconds, and a burst
    would catch one moment of it.  One untimed import first, so the bytecode
    cache is warm as for users.
    """

    def __init__(self, env: dict, seconds: float):
        self.env, self.seconds = env, seconds
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        subprocess.run(self.cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        self.times: list[float] = []

    def sample_due(self, elapsed: float) -> None:
        due = min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * elapsed / self.seconds))
        while len(self.times) < due:
            start = time.perf_counter()
            with subprocess.Popen(self.cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE) as proc:
                ready = proc.stdout.readline()
                self.times.append(time.perf_counter() - start)
                proc.stdout.read()
            if proc.returncode != 0 or ready != b"ready\n":
                raise RuntimeError("cuntz_bases failed to import")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# per-layer metrics from the traces of the traced repetitions
# ---------------------------------------------------------------------------

TIMED = {  # metric -> (aggregate name, field): 1 calls, 2 total seconds
    "cli.expand_s": ("cli.expand", 2),
    "cli.entropy_s": ("cli.entropy", 2),
    "cli.cantor_gram_s": ("cli.cantor_gram", 2),
    "dyadic.inner_calls": ("dyadic.inner", 1),
    "dyadic.inner_s": ("dyadic.inner", 2),
    "operators.s_apply_calls": ("operators.s_apply", 1),
    "operators.s_adjoint_calls": ("operators.s_adjoint", 1),
    "operators.s_apply_s": ("operators.s_apply", 2),
    "operators.s_adjoint_s": ("operators.s_adjoint", 2),
    "basis.walsh_expand_s": ("basis.walsh_expand", 2),
    "basis.walsh_synthesize_s": ("basis.walsh_synthesize", 2),
    "basis.ingest_s": ("basis.ingest", 2),
    "entropy.tree_s": ("entropy.tree", 2),
    "entropy.verify_recursion_s": ("entropy.verify_recursion", 2),
    "trig.hybrid_inner_s": ("trig.hybrid_inner", 2),
    "trig.hybrid_inner_calls": ("trig.hybrid_inner", 1),
    "cantor.gram_s": ("cantor.gram", 2),
    "cantor.exp_coefficient_s": ("cantor.exp_coefficient", 2),
    "cantor.exp_coefficient_calls": ("cantor.exp_coefficient", 1),
    "cantor.indicator_check_s": ("cantor.indicator_check", 2),
}


def merge_traces(reps: list[Rep]) -> tuple[dict, dict]:
    agg: dict[str, list] = {}
    counts: dict[str, int] = {}
    for rep in reps:
        for trace in rep.traces:
            for name, (layer, calls, total, self_s) in trace["agg"].items():
                entry = agg.setdefault(name, [layer, 0, 0.0, 0.0])
                entry[1] += calls
                entry[2] += total
                entry[3] += self_s
            for key, n in trace["counts"].items():
                counts[key] = counts.get(key, 0) + n
    return agg, counts


def layer_value(name: str, agg: dict, counts: dict) -> float:
    if name in TIMED:
        key, index = TIMED[name]
        return agg[key][index] if key in agg else 0
    if name in counts:
        return counts[name]
    if name == "cli.io_s" or name.endswith(".self_s"):
        layer = "cli" if name == "cli.io_s" else name[:-len(".self_s")]
        return sum(e[3] for e in agg.values() if e[0] == layer)
    if name.startswith("verification.suite_s."):
        prefix = f"verification.check.{name.rsplit('.', 1)[1]}/"
        return sum(e[2] for k, e in agg.items() if k.startswith(prefix))
    if name.startswith("check_s."):
        suffix = "/" + name[len("check_s."):]
        return sum(e[2] for k, e in agg.items()
                   if k.startswith("verification.check.") and k.endswith(suffix))
    return 0  # a counter the traced operations never touched


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def machine() -> str:
    import numpy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    env = child_env()
    work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spawner = Spawner(env)
    try:
        ops = workloads.build(workload, work, seed)
        print(f"perfbench workload={workload} seed={seed} seconds={seconds:g} "
              f"trace={int(trace)} ops/rep={len(ops)} {machine()}")
        if not trace:
            setup = SetupClock(env, seconds)
            setup.sample_due(0)
            reps = measure(ops, spawner, work, seconds, traced=False, setup=setup)
            metrics = end_to_end(spec, reps, setup.times)
            traced = []
        else:
            reps = measure(ops, spawner, work, seconds / 2, traced=False)
            traced = measure(ops, spawner, work, seconds / 2, traced=True, first_index=len(reps))
            metrics = per_layer(spec, reps, traced)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r.attempted for r in reps + traced)
    failed = sum(r.failed for r in reps + traced)
    rate = failed / attempted
    print(f"  {'error_rate':<28} {rate:>14.6g} ratio  ({failed} of {attempted} ops failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def end_to_end(spec: dict, reps: list[Rep], setups: list[float]) -> dict:
    samples = {
        "run_s": [r.wall for r in reps],
        "cpu_s": [r.cpu for r in reps],
        "setup_s": setups,
        "peak_rss_mb": [r.peak_kb / 1024 for r in reps],
    }
    metrics = {}
    for entry in spec["end_to_end"]:
        values = samples[entry["name"]]
        q1, med, q3 = quartiles(values)
        metrics[entry["name"]] = {"value": med, "unit": entry["unit"]}
        print(f"  {entry['name']:<28} {med:>14.6g} {entry['unit']:<5} "
              f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
    return metrics


def per_layer(spec: dict, plain: list[Rep], traced: list[Rep]) -> dict:
    agg, counts = merge_traces(traced)
    ratio = statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in plain)
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name == "trace.overhead_ratio":
            value = ratio
        else:
            value = layer_value(name, agg, counts) / len(traced)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    print(f"  traced reps {len(traced)}, untraced reps {len(plain)}, "
          f"overhead ratio {ratio:.4f}; per traced repetition:")
    self_times = sorted(((m["value"], n) for n, m in metrics.items() if n.endswith(".self_s")),
                        reverse=True)
    for value, name in self_times:
        print(f"  {name:<28} {value:>14.6g} s")
    checks = sorted(((m["value"], n) for n, m in metrics.items()
                     if n.startswith("check_s.") and m["value"] > 0), reverse=True)
    for value, name in checks[:5]:
        print(f"  {name:<60} {value:>10.4g} s")
    spans = sorted(((e[2] / len(traced), n) for n, e in agg.items()
                    if not n.startswith(("cli.", "verification."))), reverse=True)
    for value, name in spans[:6]:
        print(f"  span {name:<55} {value:>10.4g} s inclusive")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="cuntz-bases benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its processes (finally blocks run on exit)
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (SRC / "cuntz_bases" / "__init__.py").is_file():
        print(f"error: no cuntz_bases sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        results = {w: run_workload(spec, w, args.seed, seconds, bool(args.trace)) for w in names}
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names + ['all']}")
    result = run_workload(spec, args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
