"""The four benchmark workloads.

Each workload is a closed loop driven by one client: the next op starts only
after the previous one returned.  Inputs come from the workload seed alone.
Every op's output is checked off the clock through the public API, and each
failed check is classified.  The classes listed in KNOWN_FAILURES are the
defects documented in ROADMAP.md; they count as failed ops, while any other
class also marks the run incorrect.

A workload provides:
  build_inputs()     generate every input from the seed
  warm_up()          run a few untimed ops so lazy set-up is done
  input_digest()     sha256 over the generated inputs
  prepare(i)         off-clock preparation of op i
  op(prepared)       the timed call into the program
  check(i, prepared, output, exc)  None when correct, else a failure class
  trial_family(i)    (family, trials) for ops that run fuzz trials, else None
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_REL_ERROR = 1e-8  # the package's --max-rel-error default
# A reported residual agrees with the benchmark's own when they differ by at
# most this much plus half the larger one (rounding may change either).
RESIDUAL_AGREEMENT = 1e-14
CHILD_TIMEOUT_S = 120.0

KNOWN_FAILURES = {
    "accuracy": "defining residual or closed-form error above 1e-8",
    "windmill-gap": "WINDMILL passes its hypothesis report, then has no inverse",
    "generation": "the instance generator gave up (GenerationFailed)",
}

# Public closed form and hypothesis form for each digraph family.
GRAPH_FORMS = {
    "DOUBLE_STAR": ("ds_dual_drazin", "drazin"),
    "LINKED_STARS": ("dls_dual_drazin", "drazin"),
    "WINDMILL": ("dw_dual_drazin", "drazin"),
    "WINDMILL_BC0": ("dw_bc_zero", "bc_zero"),
    "WINDMILL_GROUP": ("dw_group", "group"),
}


def _max_residual(api, x, candidate) -> float:
    return float(max(api.defining_residuals(x, candidate)))


def _inverse_failure(api, x, code: int, path: Path):
    """Failure class of a CLI inverse of x written to path, or None: the run
    must exit 0 and the inverse must satisfy the defining equations."""
    if code != api.cli.EXIT_OK:
        return f"exit-{code}"
    return "accuracy" if _max_residual(api, x, api.load_matrix(path)) > MAX_REL_ERROR else None


class Workload:
    name = ""
    round_size = 1
    nominal_ops_per_s = 1.0  # ops per second at the reference speed; sets the op count
    tail_percentile = 50.0
    child_process = False  # ops report their own CPU time and peak RSS

    def __init__(self, api, seed: int, workdir: Path, in_process: bool):
        self.api = api
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process

    def setup(self, checkpoint=lambda: None):
        """Generate the inputs, call `checkpoint`, then warm up."""
        self.build_inputs()
        checkpoint()
        self.warm_up()

    def build_inputs(self):
        pass

    def trial_family(self, i: int):
        return None


# ---------------------------------------------------------------------------
# fuzz_mix


class FuzzMix(Workload):
    """One fuzz trial per op.  Families go round-robin; the dimension steps
    through 1-5, one step per round, so every family sees each dimension
    equally often; 1 op in 9 uses violate=True.  Trial seeds are random.
    """

    name = "fuzz_mix"
    nominal_ops_per_s = 140.0
    # Rejection loops make the latency tail heavy: across seeds p99 spreads
    # by about 25%, p95 by under 10%.
    tail_percentile = 95.0
    DIMS = (1, 2, 3, 4, 5)
    VIOLATE_EVERY = 9  # coprime with the 14 families, so every family violates

    def __init__(self, *args):
        super().__init__(*args)
        self.families = tuple(self.api.FAMILIES)
        self.round_size = len(self.families)

    def _config(self, stream: int, i: int, dim: int, violate: bool):
        rng = np.random.default_rng([self.seed, stream, i])
        return self.api.GenConfig(
            self.families[i % len(self.families)],
            trials=1,
            seed=int(rng.integers(0, 2**63)),
            dim_min=dim,
            dim_max=dim,
            violate=violate,
        )

    def warm_up(self):
        for k in range(len(self.families)):
            self.api.fuzz(self._config(1, k, dim=3, violate=False))

    def input_digest(self) -> str:
        text = "\n".join(repr(self.prepare(i)) for i in range(10 * self.round_size))
        return hashlib.sha256(text.encode()).hexdigest()

    def prepare(self, i):
        dim = self.DIMS[(i // len(self.families)) % len(self.DIMS)]
        return self._config(0, i, dim, i % self.VIOLATE_EVERY == self.VIOLATE_EVERY - 1)

    def op(self, cfg):
        return self.api.fuzz(cfg)

    def trial_family(self, i):
        return self.families[i % len(self.families)], 1

    def check(self, i, cfg, report, exc):
        """Regenerate the op's instance and check the report against it: the
        record must carry the instance's digest and hypothesis verdict, and
        the residuals it reports must be within 1e-8 and agree with the
        benchmark's own residuals of the closed form."""
        api = self.api
        if exc is not None:
            return f"raised {type(exc).__name__}"
        record = report.records[0] if len(report.records) == 1 else None
        if record is None or report.summary.get("trials") != 1:
            return "malformed-report"
        try:
            inst = api.gen_instance(cfg, 0)
        except api.GenerationFailed:
            return "generation" if not report.passed else "report-disagrees"
        graph = not isinstance(inst, api.BlockInstance)
        doc = api.graph_spec_to_doc(inst) if graph else inst.to_doc()
        digest = hashlib.sha256(api.serialize.dumps_doc(doc).encode()).hexdigest()[:16]
        if record.get("digest") != digest:
            return "report-disagrees"
        if cfg.violate:
            if graph:
                hyp = api.graph_hypotheses(inst, GRAPH_FORMS[cfg.family][1])
            else:
                hyp = api.check_hypotheses(inst)
            if hyp.passed:
                return "violating-draw-passes-hypotheses"
            if record.get("hypotheses_pass") is not False or not report.passed:
                return "report-disagrees"
            return None
        try:
            if graph:
                closed = getattr(api, GRAPH_FORMS[cfg.family][0])(inst)
                assembled = api.build_adjacency(inst).matrix
            else:
                closed = api.closed_form(inst)
                assembled = inst.assembled()
        except api.NotDualDrazinInvertible:
            return "windmill-gap" if cfg.family == "WINDMILL" else "not-invertible"
        except api.DualDrazinError as err:
            return f"raised {type(err).__name__}"
        own = [float(r) for r in api.defining_residuals(assembled, closed)]
        if max(own) > MAX_REL_ERROR:
            return "accuracy"
        error = record.get("closed_form_error")
        reported = record.get("defining_residuals")
        if error is None or reported is None or len(reported) != len(own):
            return "report-disagrees"
        if not report.passed:
            return "accuracy" if max(error, *reported) > MAX_REL_ERROR else "report-disagrees"
        if record.get("hypotheses_pass") is not True or max(error, *reported) > MAX_REL_ERROR:
            return "report-disagrees"
        if any(abs(a - b) > RESIDUAL_AGREEMENT + 0.5 * max(abs(a), abs(b))
               for a, b in zip(own, reported)):
            return "report-disagrees"
        return None


# ---------------------------------------------------------------------------
# dense_inverse


class DenseInverse(Workload):
    """dual_drazin on members and dual_exists on non-members, n in {8, 12, 16}.

    A pool of POOL_ROUNDS rounds is generated before timing and cycled.  In
    each round of 12 ops, every size gets three dual_drazin ops on
    gen_member inputs and one dual_exists op on a gen_existence(positive=
    False) input.
    """

    name = "dense_inverse"
    nominal_ops_per_s = 900.0
    SIZES = (8, 12, 16)
    POOL_ROUNDS = 200
    round_size = 12
    # The top quarter of ops are n = 16 inverses, so p95 is the slow end of
    # those (high index, more rank work).  Higher percentiles are set by
    # scheduler stalls: over five seeds p99.9 spread by 62%, p99 by 25%,
    # p95 by 5%.
    tail_percentile = 95.0

    def build_inputs(self):
        rng = np.random.default_rng([self.seed, 2])
        self.pool = []
        for idx in range(self.POOL_ROUNDS * self.round_size):
            n = self.SIZES[idx % len(self.SIZES)]
            negative = (idx // len(self.SIZES)) % 4 == 3
            if negative:
                x = self.api.gen_existence(n, rng, positive=False)
            else:
                x = self.api.gen_member(n, rng)
            self.pool.append((negative, x))
        self.verdicts: dict[int, tuple] = {}

    def warm_up(self):
        for i in range(self.round_size):
            self.op(self.prepare(i))

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for negative, x in self.pool:
            h.update(bytes([negative]))
            h.update(x.std.tobytes())
            h.update(x.inf.tobytes())
        return h.hexdigest()

    def prepare(self, i):
        return i % len(self.pool)

    def op(self, idx):
        negative, x = self.pool[idx]
        if negative:
            return self.api.dual_exists(x)[0]
        return self.api.dual_drazin(x)

    def check(self, i, idx, out, exc):
        negative, x = self.pool[idx]
        if exc is not None:
            if isinstance(exc, self.api.NotDualDrazinInvertible) and not negative:
                return "wrong-verdict"
            return f"raised {type(exc).__name__}"
        if negative:
            return "wrong-verdict" if out else None
        inverse = out.inverse
        fingerprint = hashlib.blake2b(inverse.std.tobytes() + inverse.inf.tobytes()).digest()
        seen = self.verdicts.get(idx)
        if seen is not None and seen[0] == fingerprint:
            return seen[1]
        verdict = "accuracy" if _max_residual(self.api, x, inverse) > MAX_REL_ERROR else None
        self.verdicts[idx] = (fingerprint, verdict)
        return verdict


# ---------------------------------------------------------------------------
# CLI workloads


@dataclass
class ChildResult:
    exit_code: int
    cpu_s: float
    maxrss_kb: int


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


# `python -m dualdrazin.cli ARGV` that also writes the process's peak RSS
# (kB) to the file named before ARGV.  Linux counts the parent's peak RSS in
# a child's ru_maxrss up to exec, so wait4 would report the benchmark's
# own peak; VmHWM covers only the memory the child mapped after exec.
CLI_LAUNCHER = """\
import runpy, sys
peak_path = sys.argv.pop(1)
try:
    runpy.run_module("dualdrazin.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(peak_path, "w") as out:
        out.write(peak)
"""


def run_cli_child(argv: list[str], cwd: Path, env: dict, scratch: Path,
                  timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one CLI child to completion and return its exit code, its own
    CPU time and its own peak RSS."""
    peak_path = scratch / "peak_rss_kb.txt"
    peak_path.unlink(missing_ok=True)
    with open(scratch / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-c", CLI_LAUNCHER, str(peak_path), *argv],
                                cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_kb = int(peak_path.read_text()) if peak_path.exists() else 0
    return ChildResult(proc.returncode, usage.ru_utime + usage.ru_stime, peak_kb)


class CliWorkload(Workload):
    """Cold `python -m dualdrazin.cli` runs, one at a time, checked against
    in-process references (exit code and output bytes).  With in_process set (the traced run) each op calls
    cli.main(argv) in this process instead.
    """

    child_process = True

    def __init__(self, api, seed, workdir, in_process):
        super().__init__(api, seed, workdir, in_process)
        self.child_process = not in_process
        self.src = Path(api.__file__).resolve().parent.parent
        self.env = child_env(self.src)
        self.references: dict[str, tuple] = {}
        for sub in ("in", "out", "ref"):
            (self.workdir / sub).mkdir(parents=True, exist_ok=True)

    def build_inputs(self):
        """Write the documents and set self.commands: (argv, output flags)."""
        raise NotImplementedError

    def _doc(self, name: str, x) -> str:
        path = self.workdir / "in" / f"{name}.json"
        self.api.dump_matrix(x, path)
        return str(path)

    def _json_doc(self, name: str, doc: dict) -> str:
        path = self.workdir / "in" / f"{name}.json"
        path.write_text(self.api.serialize.dumps_doc(doc), encoding="utf-8")
        return str(path)

    @property
    def round_size(self):
        return len(self.commands)

    def warm_up(self):
        # A cold child has nothing to warm but the page cache; in process, every
        # verb runs once so that first-call costs stay out of the timed ops.
        for k in range(len(self.commands) if self.in_process else 1):
            self.op(self.prepare(k))

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted((self.workdir / "in").iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        for argv, flags in self.commands:
            h.update(repr((argv, flags)).replace(str(self.workdir), "").encode())
        return h.hexdigest()

    def _argv(self, k: int, where: str) -> tuple[list[str], list[Path]]:
        argv, flags = self.commands[k]
        outputs = [self.workdir / where / f"{k}{flag}.json" for flag in flags]
        full = list(argv)
        for flag, path in zip(flags, outputs):
            full += [flag, str(path)]
        return full, outputs

    def prepare(self, i):
        k = i % len(self.commands)
        argv, outputs = self._argv(k, "out")
        for path in outputs:
            path.unlink(missing_ok=True)
        return k, argv, outputs

    def _main_in_process(self, argv) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return self.api.cli.main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1

    def op(self, prepared):
        k, argv, outputs = prepared
        if self.in_process:
            return ChildResult(self._main_in_process(argv), 0.0, 0)
        return run_cli_child(argv, cwd=self.src.parent, env=self.env, scratch=self.workdir)

    def _reference(self, k: int) -> tuple:
        key = repr(self.commands[k])
        if key not in self.references:
            argv, outputs = self._argv(k, "ref")
            code = self._main_in_process(argv)
            self.references[key] = (
                code,
                [p.read_bytes() if p.exists() else None for p in outputs],
                self.check_reference(k, code, outputs),
            )
        return self.references[key]

    def check_reference(self, k, code, outputs):
        """Failure class of a reference output, or None."""
        return None

    def check(self, i, prepared, result, exc):
        if exc is not None:
            return f"raised {type(exc).__name__}"
        k, argv, outputs = prepared
        code, want, failure = self._reference(k)
        if failure is not None:
            return failure
        if result.exit_code != code:
            return "exit-code-mismatch"
        # The package writes byte-deterministic JSON, so a child's output must
        # equal the in-process reference byte for byte.
        for path, expected in zip(outputs, want):
            if (path.read_bytes() if path.exists() else None) != expected:
                return "output-mismatch"
        return None


class CliSmall(CliWorkload):
    """Every verb once per round on small documents (order at most 12)."""

    name = "cli_small"
    nominal_ops_per_s = 2.0
    tail_percentile = 75.0

    def build_inputs(self):
        api = self.api
        rng = np.random.default_rng([self.seed, 3])
        seeds = [int(s) for s in rng.integers(0, 2**31, 8)]
        self.matrices = {}

        def member(name, positive=True):
            n = int(rng.integers(6, 13))
            if positive:
                self.matrices[name] = api.gen_member(n, rng)
            else:
                self.matrices[name] = api.gen_existence(n, rng, positive=False)
            return self._doc(name, self.matrices[name])

        def instance(family, s):
            cfg = api.GenConfig(family, trials=3, seed=s, dim_min=2, dim_max=5)
            return api.gen_instance(cfg, 2)

        def blocks(family, s):
            inst = instance(family, s)
            return [self._doc(f"{family}_{key}", m) for key, m in inst.blocks.items()]

        cline_a, cline_b = blocks("CLINE", seeds[0])
        tri_a, tri_b, tri_d = blocks("TRI_UPPER", seeds[1])
        abio_a, abio_b = blocks("ABIO_RIGHT", seeds[2])
        abco_a, abco_b, abco_c = blocks("ABCO_RIGHT", seeds[3])
        bip_b, bip_c = blocks("BIPARTITE", seeds[4])
        graphs = ("DOUBLE_STAR", "LINKED_STARS", "WINDMILL")
        graph_spec = self._json_doc(
            "graph", api.graph_spec_to_doc(instance(graphs[seeds[5] % 3], seeds[5])))
        theorem = api.THEOREMS[seeds[6] % len(api.THEOREMS)]
        block_doc = self._json_doc("verify_block", instance(theorem, seeds[6]).to_doc())
        graph_doc = self._json_doc(
            "verify_graph", api.graph_spec_to_doc(instance(graphs[seeds[7] % 3], seeds[7])))
        fuzz_family = api.FAMILIES[seeds[7] % len(api.FAMILIES)]
        self.fuzz_family = fuzz_family
        self.commands = [
            (["dual-drazin", "-i", member("dual_drazin")], ["-o"]),
            (["exists", "-i", member("exists_member")], ["-o"]),
            (["exists", "-i", member("exists_non_member", positive=False)], ["-o"]),
            (["index", "-i", member("index")], ["-o"]),
            (["rank", "-i", member("rank")], ["-o"]),
            (["cline", "-a", cline_a, "-b", cline_b], ["-o"]),
            (["tri", "-a", tri_a, "-b", tri_b, "-d", tri_d, "--orientation", "upper"], ["-o"]),
            (["abio", "-a", abio_a, "-b", abio_b, "--side", "right"], ["-o"]),
            (["abco", "-a", abco_a, "-b", abco_b, "-c", abco_c, "--side", "right"], ["-o"]),
            (["bipartite", "-b", bip_b, "-c", bip_c], ["-o"]),
            (["graph", "--spec", graph_spec], ["-o", "--closed-form"]),
            (["verify", "-i", block_doc], ["-o"]),
            (["verify", "-i", graph_doc], ["-o"]),
            (["fuzz", "--theorem", fuzz_family, "--trials", "3", "--seed", str(seeds[7])], ["-o"]),
        ]
        self.fuzz_index = len(self.commands) - 1

    def trial_family(self, i):
        if i % len(self.commands) == self.fuzz_index:
            return self.fuzz_family, 3
        return None

    def check_reference(self, k, code, outputs):
        """The dual-drazin inverse must satisfy the defining equations; the
        exists runs must give the generator's label as exit code and verdict."""
        cli = self.api.cli
        if k == 0:
            return _inverse_failure(self.api, self.matrices["dual_drazin"], code, outputs[0])
        if k in (1, 2):
            member = k == 1
            if code != (cli.EXIT_OK if member else cli.EXIT_NOT_INVERTIBLE):
                return "wrong-verdict"
            verdict = json.loads(outputs[0].read_text(encoding="utf-8")).get("exists")
            return None if verdict is member else "wrong-verdict"
        return None


class CliLarge(CliWorkload):
    """dual-drazin and drazin (standard part only) on 256x256 Gaussian-integer
    documents, two dual-drazin runs to one drazin run.

    The two verbs have separate latency modes (about 1.5 s and 1.1 s here);
    with equal shares the median falls in the gap between them and moves by
    about 20% from seed to seed, so dual-drazin, the verb that writes both
    parts, takes two thirds of the ops and the median falls inside its mode.
    """

    name = "cli_large"
    nominal_ops_per_s = 0.7
    ORDER = 256
    tail_percentile = 50.0

    def build_inputs(self):
        rng = np.random.default_rng([self.seed, 4])
        n = self.ORDER

        def gaussian_ints():
            return (rng.integers(-2, 3, (n, n)) + 1j * rng.integers(-2, 3, (n, n))).astype(complex)

        std_only = self.api.DualMatrix(gaussian_ints())
        dual = self.api.DualMatrix(gaussian_ints(), gaussian_ints())
        for x in (std_only, dual):
            if np.linalg.matrix_rank(x.std) != n:
                raise RuntimeError("generated 256x256 input is singular")
        dual_drazin = (["dual-drazin", "-i", self._doc("dual", dual)], ["-o"])
        drazin = (["drazin", "-i", self._doc("std", std_only)], ["-o"])
        self.commands = [dual_drazin, drazin, dual_drazin]
        self.inputs = [dual, std_only, dual]

    def check_reference(self, k, code, outputs):
        return _inverse_failure(self.api, self.inputs[k], code, outputs[0])


WORKLOADS = {w.name: w for w in (FuzzMix, DenseInverse, CliSmall, CliLarge)}
