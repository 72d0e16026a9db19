"""Benchmark for dualdrazin: four closed-loop workloads and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fuzz_mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 prints
the per-module metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the details (environment, percentiles, sample counts, failure classes).

The package is imported from src/ of the checkout; nothing is installed.
Each run pins BLAS to one thread and itself to one CPU, in this process and
in every child, so that the single client's ops do not compete with BLAS
worker threads and the speed calibration measures the CPU the ops run on.

The machine's speed drifts by tens of percent over seconds to minutes, so
the end-to-end timings are normalised: between ops, off the clock, a fixed
kernel that does not touch the package is timed, and each op's time is
scaled by CALIBRATION_REF_S over the kernel's time around it.  The values as
measured are printed in the details line.
"""

import os
import sys
import time

_T0 = time.perf_counter()
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import KNOWN_FAILURES, WORKLOADS, child_env  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3  # setup_s is the median of this many set-ups
IMPORT_SAMPLES = 3
# The calibration kernel's time on the reference machine (2-vCPU Xeon VM,
# 2.1 GHz, Python 3.11, numpy 2.4), so normalised times read as that
# machine's milliseconds at its usual speed.
CALIBRATION_REF_S = 3.7e-3
CALIBRATE_EVERY_S = 0.05  # op time between two calibrations
CHILD_CALIBRATION_PASSES = 5  # calibrations whose median scales a CLI child op
LIMIT_FACTOR = 4  # a run stops early once its ops took this many times --seconds

# ---------------------------------------------------------------------------
# machine speed

_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX = _CAL_RNG.standard_normal((8, 8))
_CAL_VECTOR = _CAL_RNG.standard_normal(1 << 19)  # 4 MB, larger than the caches


def _calibration_kernel():
    """Fixed work in the program's mix: Python dict updates, building and
    sorting small Python objects, small numpy products and an SVD, and a
    pass over memory.  Each part slows differently when the machine does;
    together they slow about as much as the workloads' ops (the log of a
    fixed block of fuzz_mix or dense_inverse ops against the log of this
    kernel's time has slope 0.9-1.0).  It calls nothing in dualdrazin, so a
    change to the package cannot change it."""
    counts = {}
    for k in range(2000):
        counts[k % 97] = counts.get(k % 97, 0) + 3 * k
    objs = [(i, str(i), [i]) for i in range(3000)]
    by_name = {o[1]: o for o in objs}
    sorted(by_name, key=lambda name: name[::-1])
    a = _CAL_MATRIX
    for _ in range(75):
        a = a @ _CAL_MATRIX
        a = a / np.abs(a).max()
    np.linalg.svd(a)
    float(_CAL_VECTOR.sum())
    float((_CAL_VECTOR[::7] * 2.0).sum())


def calibrate() -> float:
    """Seconds the calibration kernel takes now: the faster of two passes."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best

# ---------------------------------------------------------------------------
# measurement


@dataclass
class Phase:
    latencies: list = field(default_factory=list)  # seconds, as measured
    cpu: list = field(default_factory=list)  # CPU seconds per op, as measured
    speed: list = field(default_factory=list)  # machine-speed factor per op
    calibrations: list = field(default_factory=list)
    busy_s: float = 0.0
    maxrss_kb: int = 0
    stopped_early: bool = False
    failures: Counter = field(default_factory=Counter)
    family_s: Counter = field(default_factory=Counter)
    family_trials: Counter = field(default_factory=Counter)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def normalised(self) -> tuple[list, list]:
        """Latencies and CPU times at the reference machine speed."""
        return ([v * f for v, f in zip(self.latencies, self.speed)],
                [v * f for v, f in zip(self.cpu, self.speed)])


def ops_for(workload, seconds: float) -> int:
    """Whole rounds of ops that take about `seconds` at the reference speed.

    The count depends on `seconds` only, so a seed gives the same ops, and
    the same failures, on every run."""
    rounds = math.ceil(seconds * workload.nominal_ops_per_s / workload.round_size)
    return max(1, rounds) * workload.round_size


def measure(workload, ops: int, limit_s: float, tracer=None) -> Phase:
    """Run ops 0 .. ops-1 one at a time.  Checks and calibrations run
    between ops, off the clock.  If the ops take longer than `limit_s` in
    all, the run stops at the next round boundary (the machine is then far
    slower than the reference and the ops are not the seed's full set)."""
    phase = Phase()
    # A child op is long and scaled alone, so its calibrations take more passes.
    passes = CHILD_CALIBRATION_PASSES if workload.child_process else 1

    def speed_sample():
        return statistics.median(calibrate() for _ in range(passes))

    cal = speed_sample()
    phase.calibrations.append(cal)
    block = 0  # ops since the last calibration
    since = 0.0
    for i in range(ops):
        prepared = workload.prepare(i)
        if tracer is not None:
            tracer.begin(i)
        exc = output = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            output = workload.op(prepared)
        except Exception as err:  # the program's failure is an outcome to check
            exc = err
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.end()
        latency = t1 - t0
        phase.latencies.append(latency)
        phase.busy_s += latency
        if workload.child_process and exc is None:
            phase.cpu.append(output.cpu_s)
            phase.maxrss_kb = max(phase.maxrss_kb, output.maxrss_kb)
        else:
            phase.cpu.append(c1 - c0)
        trial = workload.trial_family(i)
        if trial is not None:
            phase.family_s[trial[0]] += latency
            phase.family_trials[trial[0]] += trial[1]
        failure = workload.check(i, prepared, output, exc)
        if failure is not None:
            phase.failures[failure] += 1
        block += 1
        since += latency
        last = i == ops - 1 or ((i + 1) % workload.round_size == 0 and phase.busy_s > limit_s)
        if since >= CALIBRATE_EVERY_S or last:
            # Each op is scaled by the machine speed measured around it.
            new = speed_sample()
            phase.calibrations.append(new)
            phase.speed += [CALIBRATION_REF_S / (0.5 * (cal + new))] * block
            cal, block, since = new, 0, 0.0
        if last:
            phase.stopped_early = i < ops - 1
            break
    if not workload.child_process:
        phase.maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return phase


def end_to_end(workload, phase: Phase, setup_samples: list) -> tuple[dict, dict]:
    n = phase.ops
    q = workload.tail_percentile
    latencies, cpu = phase.normalised()

    def timings(lat, cpu_s):
        return {
            "throughput_ops_s": n / sum(lat),
            "latency_p50_ms": 1e3 * float(np.percentile(lat, 50.0)),
            "latency_tail_ms": 1e3 * float(np.percentile(lat, q)),
            "cpu_ms_per_op": 1e3 * sum(cpu_s) / n,
        }

    metrics = timings(latencies, cpu)
    metrics.update({
        "ok_frac": (n - phase.failed) / n,
        "peak_rss_mb": phase.maxrss_kb / 1024.0,
        "setup_s": statistics.median(s["normalised"] for s in setup_samples),
    })
    detail = {
        "tail_percentile": q,
        "latency_percentiles_ms": {
            str(p): 1e3 * float(np.percentile(latencies, p)) for p in (90, 95, 99, 99.9)
        },
        "samples": n,
        "samples_beyond_tail": sum(1 for v in latencies if 1e3 * v > metrics["latency_tail_ms"]),
        "as_measured": {**timings(phase.latencies, phase.cpu),
                        "setup_s": statistics.median(s["measured"] for s in setup_samples)},
        "speed_factor": {"median": statistics.median(phase.speed), "min": min(phase.speed),
                         "max": max(phase.speed)},
        "calibrations": len(phase.calibrations),
        "setup_samples": setup_samples,
        "measured_s": phase.busy_s,
        "stopped_early": phase.stopped_early,
    }
    return metrics, detail


def per_layer(names, untraced: Phase, traced: Phase, tracer, import_ms: float,
              families) -> dict:
    """Every metric in `names`.  "<span>.calls_per_op" and
    "<span>.self_ms_per_op" are read from the tracer for any traced span."""
    n = traced.ops
    traced_s, untraced_s = (sum(p.normalised()[0]) for p in (traced, untraced))
    metrics = {"dualmat.DualMatrix.constructions_per_op": tracer.constructions / n}
    for name in names:
        span, _, kind = name.rpartition(".")
        if kind == "calls_per_op":
            metrics[name] = tracer.calls_of(span) / n
        elif kind == "self_ms_per_op":
            metrics[name] = tracer.self_ms(span) / n
    trials = sum(tracer.accepted.values()) + sum(tracer.failed_trials.values())
    rejected = sum(tracer.rejected_draws.values()) + sum(tracer.failed_draws.values())
    metrics["harness.rejected_draws_per_trial"] = rejected / trials if trials else 0.0
    for f in families:
        attempts = tracer.accepted[f] + tracer.rejected_draws[f] + tracer.failed_draws[f]
        metrics[f"harness.family.{f}.accept_rate"] = tracer.accepted[f] / attempts if attempts else 0.0
    for f in families:
        t = untraced.family_trials[f]
        metrics[f"harness.family.{f}.ms_per_trial"] = 1e3 * untraced.family_s[f] / t if t else 0.0
    metrics.update({
        "serialize.read_ms_per_op": 1e3 * tracer.inclusive_s["serialize.read"] / n,
        "serialize.write_ms_per_op": 1e3 * tracer.inclusive_s["serialize.write"] / n,
        "serialize.bytes_written_per_op": tracer.bytes_rendered / n,
        "cli.import_ms": import_ms,
        "cli.main_ms_per_op": 1e3 * tracer.inclusive_s["cli.main"] / n,
        "trace.overhead_ms_per_op": 1e3 * (traced_s - untraced_s) / n,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    return metrics


# ---------------------------------------------------------------------------
# children: set-up probes and the import probe


def _child(argv: list[str]) -> dict:
    """Run a Python child to completion and parse its last stdout line."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(SRC),
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def import_probe_ms() -> float:
    code = ("import time, json; t = time.perf_counter(); import dualdrazin.cli; "
            "print(json.dumps({'s': time.perf_counter() - t}))")
    return 1e3 * statistics.median(_child(["-c", code])["s"] for _ in range(IMPORT_SAMPLES))


# ---------------------------------------------------------------------------
# environment


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "machine": platform.machine(),
    }


def git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dualdrazin").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# entry points


def make_workload(name: str, seed: int, in_process: bool):
    import dualdrazin

    if name.startswith("cli_"):
        import dualdrazin.cli  # noqa: F401  (references and traced ops call cli.main)

    workdir = OUT / f"run-{name}-{seed}-{os.getpid()}"
    return WORKLOADS[name](dualdrazin, seed, workdir, in_process)


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = make_workload(args.workload, args.seed, in_process=bool(args.trace))
    try:
        # Set-up is scaled by the machine speed measured before, during and
        # after it; the calibrations' own time is left out.
        cals, cal_wall = [], [0.0]

        def checkpoint():
            t0 = time.perf_counter()
            cals.append(calibrate())
            cal_wall[0] += time.perf_counter() - t0

        checkpoint()
        workload.setup(checkpoint)
        measured = time.perf_counter() - _T0 - cal_wall[0]
        checkpoint()
        setup = {"measured": measured,
                 "normalised": measured * CALIBRATION_REF_S / statistics.fmean(cals)}
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        input_digest = workload.input_digest()
        limit = LIMIT_FACTOR * args.seconds
        families = list(workload.api.FAMILIES)
        if not args.trace:
            phase = measure(workload, ops_for(workload, args.seconds), limit)
            phases = [phase]
            probe = [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
                     "--setup-probe"]
            samples = [setup] + [_child(probe) for _ in range(SETUP_SAMPLES - 1)]
            metrics, detail = end_to_end(workload, phase, samples)
        else:
            untraced = measure(workload, ops_for(workload, args.seconds / 2), limit / 2)
            tracer = Tracer()
            tracer.install()
            traced = measure(workload, untraced.ops, limit, tracer=tracer)
            phases = [untraced, traced]
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}.npz"
            tracer.dump(spans_path)
            metrics = per_layer([m["name"] for m in listed], untraced, traced, tracer,
                                import_probe_ms(), families)
            detail = {"traced_ops": traced.ops, "spans": tracer.span_count(),
                      "span_calls": dict(tracer.calls),
                      "spans_file": str(spans_path.relative_to(ROOT))}
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)

    failures = Counter()
    for phase in phases:
        failures.update(phase.failures)
    unknown = {k: v for k, v in failures.items() if k not in KNOWN_FAILURES}
    attempted = sum(p.ops for p in phases)
    failed = sum(failures.values())
    detail.update({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "failures": dict(failures),
        "unexpected_failures": unknown,
        "input_digest": input_digest,
        "environment": environment(args.seed),
    })
    if unknown:
        print(f"run.py: unexpected failures {unknown}", file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not unknown,
        "attempted": attempted,
        "failed": failed,
        # A metric BENCHMARK.json lists but the run did not compute is a KeyError.
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time and exit (used for setup_s)")
    parser.add_argument("--selftest", action="store_true",
                        help="short run of every workload; checks names and input determinism")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualdrazin" / "__init__.py").is_file():
        print(f"run.py: no package at {SRC / 'dualdrazin'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        from selftest import selftest

        return selftest()
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
