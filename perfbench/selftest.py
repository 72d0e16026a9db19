"""Self-test of the benchmark: `python3 perfbench/run.py --selftest`.

Runs every workload of BENCHMARK.json for one round, traced and untraced,
and checks that the printed result has the contract's keys, that the
workload names match BENCHMARK.json, and that the traced run reached every
span the workload exercises (REACHED).  It also builds each workload's
inputs twice from one seed and once from another, and checks that the
input digests are equal and different respectively.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT, SRC, make_workload
from workloads import WORKLOADS, child_env

SEED = 11

_DIGRAPH_FORMS = ("digraphs.ds_dual_drazin", "digraphs.dls_dual_drazin",
                  "digraphs.dw_dual_drazin", "digraphs.dw_bc_zero", "digraphs.dw_group")
_BLOCK_FORMS = ("blocks.cline", "blocks.tri_drazin", "blocks.sum_pq_zero", "blocks.abio_drazin",
                "blocks.abco_drazin", "blocks.bipartite_drazin")
_INVERSE = ("drazin.drazin_complex", "drazin.dual_exists", "drazin.dual_drazin",
            "drazin.defining_residuals", "dualmat.dmul")
# Spans each workload's traced run must call at least once in one round.
REACHED = {
    "fuzz_mix": (*_INVERSE, *_DIGRAPH_FORMS, *_BLOCK_FORMS, "blocks.check_hypotheses",
                 "blocks.closed_form", "digraphs.build_adjacency", "digraphs.graph_hypotheses",
                 "harness.gen_instance", "harness.fuzz"),
    "dense_inverse": (*_INVERSE, "drazin.dual_drazin_series", "dualmat.dpow",
                      "dualmat.numerical_rank"),
    "cli_small": (*_INVERSE, "cli.main", "cli._read_doc", "cli._emit", "dualmat.indices",
                  "blocks.cline", "digraphs.build_adjacency", "harness.fuzz"),
    "cli_large": (*_INVERSE, "cli.main", "cli._read_doc", "cli._emit", "serialize.dumps_doc"),
}


def _errors_in_result(result: dict) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted is not a positive integer")
    for name, entry in result.get("metrics", {}).items():
        if not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{name} has no numeric value")
    return errors


def _digest(name: str, seed: int) -> str:
    workload = make_workload(name, seed, in_process=True)
    try:
        workload.build_inputs()
        return workload.input_digest()
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)


def selftest() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {names} != benchmark workloads {sorted(WORKLOADS)}")
    for name in names:
        first, again, other = _digest(name, SEED), _digest(name, SEED), _digest(name, SEED + 1)
        if first != again:
            errors.append(f"{name}: one seed gave two different input digests")
        if first == other:
            errors.append(f"{name}: two seeds gave the same input digest")
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
                    "--seconds", "0.5", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(SRC), capture_output=True,
                                  stdin=subprocess.DEVNULL, timeout=170)
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr.decode()[-1500:]}")
                continue
            lines = proc.stdout.decode().strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            if detail["input_digest"] != first:
                errors.append(f"{label}: run used inputs other than the seed's")
            errors += [f"{label}: {e}" for e in _errors_in_result(result)]
            if trace:
                missed = [s for s in REACHED[name] if not detail["span_calls"].get(s)]
                if missed:
                    errors.append(f"{label}: no calls traced in {missed}")
            print(f"selftest: {label}: attempted {result['attempted']}, failed {result['failed']}",
                  file=sys.stderr)
    shutil.rmtree(OUT, ignore_errors=True)
    for error in errors:
        print(f"selftest: FAIL {error}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"), file=sys.stderr)
    return 1 if errors else 0
