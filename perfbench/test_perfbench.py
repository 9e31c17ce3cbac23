"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They run the benchmark on short runs (one sample each), so they take
about 90 s on two cores.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run_bench(workload, trace, cwd=ROOT, seed=0):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture()
def workdir():
    path = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_benchmark_json_names_the_workloads_run_py_knows():
    assert tuple(w["name"] for w in BENCH["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    res = _result(_run_bench(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_every_per_layer_metric_is_emitted_with_its_unit():
    res = _result(_run_bench("session-attack", 1))
    assert res["correct"] and res["failed"] == 0
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())


def test_g_evals_repeat_exactly():
    q = run.Modules()
    first, second = {}, {}
    run.trace_security(q, first)
    run.trace_security(q, second)
    for preset in run.PRESETS:
        key = f"security.g_evals.{preset}"
        assert first[key] == second[key]


def test_another_seed_changes_the_counts_and_passes_the_checks(workdir):
    digests = []
    for seed in (run.DEFAULT_SEED, 1):
        timing, bad = run.run_sample("session-attack", seed, workdir, run.REFERENCES)
        assert bad == [] and timing["exit_code"] == 0
        with open(os.path.join(workdir, "out.json")) as fh:
            digests.append(run.counts_digest(json.load(fh)["result"]["raw_counts"]))
    assert digests[0] == run.REFERENCES["raw_counts_sha256"]
    assert digests[0] != digests[1]


def _wrong(path, value):
    refs = copy.deepcopy(run.REFERENCES)
    *parents, leaf = path
    node = refs
    for key in parents:
        node = node[key]
    node[leaf] = value(node[leaf])
    return refs


@pytest.mark.parametrize("workload, refs", [
    ("analysis", _wrong(("f_a_star", "3deb"), lambda f: f + 2e-9)),
    ("session-attack", _wrong(("raw_counts_sha256",), lambda _: "0" * 64)),
    ("session-attack", _wrong(("qber_sigmas",), lambda _: 0.0)),
])
def test_a_wrong_reference_makes_samples_fail(workload, refs, workdir):
    summary = run.measure(workload, run.DEFAULT_SEED, 0.0, workdir, refs)
    assert summary["attempted"] == 1
    assert summary["failed"] / summary["attempted"] > 0


def test_exits_nonzero_without_result_when_only_the_benchmark_is_present():
    bare = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_bench("analysis", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
