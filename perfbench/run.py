"""qkdlab benchmark: the CLI timed end to end, and its layers timed one by one.

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, never from an installed copy.

With ``--trace 0`` the benchmark runs the workload's CLI command over and
over for about ``--seconds`` seconds (a closed loop with one client), each
sample in a fresh interpreter and one child at a time, checks every
output, and reports the median of each end-to-end metric.  With
``--trace 1`` it makes one untraced sample, then times the calls into
each layer's public functions inside this process, and reports the
per-layer metrics.  The last line of standard output is the JSON result;
the line before it records the machine and library versions.

Measurement covers only the benchmark's own processes: no whole-machine
tracing, no dropping of file caches, no cgroup or kernel settings.  Each
child runs with ``QKDLAB_THREADS`` unset and BLAS threads pinned to 1.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 170

DEFAULT_SEED = 0
WORKLOADS = ("analysis", "session-attack")
PRESETS = ("3deb", "universal", "2mub", "qubit")

# the solved 3DEB attack, given explicitly so that no crossing solve is timed
ATTACK_PARAMS = (0.8319757912, 0.1710859978, 0.2038281325)
ROUNDS = 4_000_000

REFERENCES = {
    # F_A* of the seed commit; 2mub and qubit are also (1 + 1/sqrt(d))/2
    "f_a_star": {"3deb": 0.7752755323, "universal": 0.7732860898,
                 "2mub": 0.7886751346, "qubit": 0.8535533906},
    "closed_form_dim": {"2mub": 3, "qubit": 2},
    "f_a_tol": 1e-9,
    "max_abs_delta": 0.0015,
    # 5 binomial standard errors: a correct program fails by chance on
    # fewer than one seed in a million
    "qber_sigmas": 5.0,
    # raw_counts of the seed commit at DEFAULT_SEED
    "raw_counts_sha256": "7530385dc35f9446b60eb9c8e0848c41cc0d12cbd13970ce50bd468d1711e54e",
}


def cli_args(workload: str, seed: int, out: str) -> list[str]:
    """The qkdlab command line of one sample of a workload."""
    if workload == "analysis":
        return ["table", "--format", "json", "--output", out]
    return ["simulate", "--rounds", str(ROUNDS), "--seed", str(seed),
            "--channel", "clone:" + ",".join(map(repr, ATTACK_PARAMS)), "--output", out]


def work_units(workload: str) -> int:
    """Crossing solves (analysis) or Monte Carlo rounds (session) per sample."""
    return len(PRESETS) if workload == "analysis" else ROUNDS


# ---------------------------------------------------------------------------
# correctness checks: each returns a list of failure messages


def expected_qber(refs: dict) -> float:
    """Closed-form error rate of the attacked session: 1 - F_A*."""
    return 1.0 - refs["f_a_star"]["3deb"]


def check_analysis(payload: dict, refs: dict) -> list[str]:
    bad = []
    rows = {row["preset"]: row for row in payload["result"]}
    if set(rows) != set(refs["f_a_star"]):
        return [f"table presets {sorted(rows)} != {sorted(refs['f_a_star'])}"]
    tol = refs["f_a_tol"]
    for preset, ref in refs["f_a_star"].items():
        f = rows[preset]["f_a_star"]
        if abs(f - ref) > tol:
            bad.append(f"{preset}: f_a_star {f!r} differs from reference {ref!r}")
        d = refs["closed_form_dim"].get(preset)
        if d is not None and abs(f - (1.0 + 1.0 / math.sqrt(d)) / 2.0) > tol:
            bad.append(f"{preset}: f_a_star {f!r} is not (1 + 1/sqrt({d}))/2")
        if abs(rows[preset]["delta"]) > refs["max_abs_delta"]:
            bad.append(f"{preset}: |delta| {abs(rows[preset]['delta'])!r} too large")
    return bad


def counts_digest(raw_counts: dict) -> str:
    text = json.dumps(raw_counts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_session(payload: dict, seed: int, refs: dict) -> list[str]:
    res = payload["result"]
    total = sum(sum(c) for c in res["raw_counts"].values())
    bad = []
    if res["rounds"] != ROUNDS or total != ROUNDS:
        bad.append(f"raw_counts total {total}, rounds {res['rounds']}, expected {ROUNDS}")
    p = expected_qber(refs)
    se = math.sqrt(p * (1.0 - p) / res["sifted_count"])
    if abs(res["qber"] - p) > refs["qber_sigmas"] * se:
        bad.append(f"qber {res['qber']!r} is {abs(res['qber'] - p) / se:.2f} SE "
                   f"from its closed form {p!r}")
    if seed == DEFAULT_SEED and counts_digest(res["raw_counts"]) != refs["raw_counts_sha256"]:
        bad.append("raw_counts differ from the seed commit's at the default seed")
    return bad


def check_output(workload: str, out: str, seed: int, refs: dict) -> list[str]:
    try:
        with open(out) as fh:
            payload = json.load(fh)
        if workload == "analysis":
            return check_analysis(payload, refs)
        return check_session(payload, seed, refs)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------------------------
# untraced samples, one fresh interpreter each


UNSET_ENV = ("QKDLAB_THREADS", "QKDLAB_TRACE")
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV + ("PYTHONPATH",)}
    env.update(PINNED_ENV, PYTHONHASHSEED="0")
    return env


def run_child(mode: str, args: list[str], workdir: str) -> tuple[int, dict, str]:
    """Run child.py once; return its exit code, its report and its stderr."""
    report = os.path.join(workdir, "report.json")
    if os.path.exists(report):
        os.remove(report)
    try:
        proc = subprocess.run([sys.executable, CHILD, mode, SRC, report] + args,
                              cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, {}, f"timed out after {CHILD_TIMEOUT_S} s"
    try:
        with open(report) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        data = {}
    return proc.returncode, data, proc.stderr[-2000:]


def import_time(what: str, workdir: str, repeats: int = 3) -> float:
    """Median time of a cold import in fresh interpreters."""
    times = []
    for _ in range(repeats):
        code, data, err = run_child("import", [what], workdir)
        if code != 0 or "import_s" not in data:
            raise RuntimeError(f"import of {what} failed: {err}")
        times.append(data["import_s"])
    return statistics.median(times)


def run_sample(workload: str, seed: int, workdir: str, refs: dict) -> tuple[dict, list[str]]:
    out = os.path.join(workdir, "out.json")
    if os.path.exists(out):
        os.remove(out)
    code, timing, err = run_child("cli", cli_args(workload, seed, out), workdir)
    if code != 0:
        return timing, [f"exit code {code}: {err.strip()}"]
    return timing, check_output(workload, out, seed, refs)


def measure(workload: str, seed: int, seconds: float, workdir: str,
            refs: dict = REFERENCES) -> dict:
    """Closed loop of samples for about ``seconds``; medians of every timing.

    Another sample starts only if it is expected to end within half a
    sample of ``seconds``, so a run lasts about ``seconds`` whatever the
    sample length.
    """
    run_child("import", ["cli"], workdir)  # fill bytecode and file caches first
    timed, failures, durations = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not durations or (time.perf_counter() - start
                            + statistics.median(durations) / 2 < seconds):
        t0 = time.perf_counter()
        timing, bad = run_sample(workload, seed, workdir, refs)
        durations.append(time.perf_counter() - t0)
        attempted += 1
        failed += 1 if bad else 0
        failures += bad
        if "wall_s" in timing:
            timed.append(timing)
    if not timed:
        raise RuntimeError(f"no sample produced timings: {failures[:3]}")
    wall = statistics.median(s["wall_s"] for s in timed)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in timed), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in timed), "MB"),
        "throughput_per_s": (work_units(workload) / wall, "1/s"),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures}


# ---------------------------------------------------------------------------
# traced run: calls into each layer, timed inside this process


def _clear_caches() -> None:
    """Empty every functools cache in qkdlab, so that the next call is cold."""
    for name, module in list(sys.modules.items()):
        if name != "qkdlab" and not name.startswith("qkdlab."):
            continue
        for obj in list(vars(module).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - t0, value


def _per_call_us(batch, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean time of one call, in microseconds."""
    return statistics.median(_timed(batch)[0] / calls * 1e6 for _ in range(batches))


def trace_security(q, metrics: dict) -> None:
    sec = q.security
    for preset in PRESETS:
        _clear_caches()
        crossing_s, res = _timed(sec.crossing_point, preset)
        inner_s, _ = _timed(sec.information_sweep, preset, res.f_a_star, res.f_a_star, 1)
        params = dict(res.params_star)
        metrics[f"security.crossing_s.{preset}"] = (crossing_s, "s")
        metrics[f"security.g_evals.{preset}"] = (res.iterations, "count")
        metrics[f"security.inner_max_s.{preset}"] = (inner_s, "s")
        metrics[f"security.objective_us.{preset}"] = (_per_call_us(
            lambda: [sec.preset_information(preset, params) for _ in range(200)], 200),
            "us")
        metrics[f"security.outer_self_s.{preset}"] = (
            crossing_s - (res.iterations + 1) * inner_s, "s")


def trace_cloner(q, metrics: dict) -> None:
    """The 48 clone_state calls that build the 16 attack tables."""
    v, x, y = ATTACK_PARAMS
    mat = q.cloner.phi_cloner_matrix(q.cloner.ClonerParams(v, x, y, y).normalized())
    phis = [b.phi for b in q.qudit.optimal_bases()]
    flying = [q.qudit.conjugate_phi_basis_state(phis[i], a)
              for _j in range(4) for i in range(4) for a in range(3)]
    metrics["cloner.clone_state_us"] = (_per_call_us(
        lambda: [q.cloner.clone_state(mat, state) for state in flying], len(flying)),
        "us")


def trace_simulate(q, seed: int, metrics: dict) -> None:
    """The attacked session of the session-attack workload."""
    sim = q.simulate
    v, x, y = ATTACK_PARAMS
    channel = sim.CloningAttackChannel(q.cloner.ClonerParams(v, x, y, y).normalized())
    config = sim.SimConfig(rounds=ROUNDS, seed=seed, channel=channel)
    build = statistics.median(
        _timed(lambda: [sim.round_distribution(channel, i, j)
                        for i in range(4) for j in range(4)])[0]
        for _ in range(3))
    session_s, result = _timed(sim.run_session, config)
    del result
    tracemalloc.start()
    try:
        sim.run_session(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    metrics["simulate.table_build_s"] = (build, "s")
    metrics["simulate.session_s"] = (session_s, "s")
    metrics["simulate.rounds_per_s"] = (ROUNDS / (session_s - build), "1/s")
    metrics["simulate.traced_peak_mb"] = (peak / 1e6, "MB")
    metrics["simulate.bytes_per_round"] = (peak / ROUNDS, "B")


class Spans:
    """Wraps module functions so that the time spent in them is summed."""

    def __init__(self):
        self.total = collections.defaultdict(float)
        self._undo = []

    def wrap(self, module, name: str, label: str) -> None:
        original = getattr(module, name, None)
        if original is None:
            return

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.total[label] += time.perf_counter() - t0

        setattr(module, name, timed)
        self._undo.append((module, name, original))

    def restore(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()


def trace_cli(q, workload: str, seed: int, workdir: str, refs: dict,
              metrics: dict) -> tuple[float, list[str]]:
    """The workload's command in-process, with spans around its library calls.

    Returns the traced command's total time and its check failures.
    """
    out = os.path.join(workdir, "traced.json")
    _clear_caches()
    spans = Spans()
    spans.wrap(q.security, "error_rate_table", "security")
    spans.wrap(q.simulate, "run_session", "simulate")
    spans.wrap(q.cli, "dumps", "jsonio")
    bad = []
    t0 = time.perf_counter()
    try:
        q.cli.main(cli_args(workload, seed, out), prog_name="qkdlab",
                   standalone_mode=False)
    except SystemExit as exc:
        bad.append(f"in-process command exited with {exc.code}")
    except Exception as exc:  # a failed command is a failed sample, not a crash
        bad.append(f"in-process command raised {exc!r}")
    finally:
        total = time.perf_counter() - t0
        spans.restore()
    metrics["jsonio.dumps_ms"] = (spans.total["jsonio"] * 1e3, "ms")
    metrics["cli.self_s"] = (total - sum(spans.total.values()), "s")
    bad = bad or check_output(workload, out, seed, refs)
    if os.path.exists(out):
        os.remove(out)
    return total, bad


class Modules:
    """The qkdlab modules, imported from the checkout with BLAS on one thread."""

    def __init__(self):
        for var in UNSET_ENV:
            os.environ.pop(var, None)
        os.environ.update(PINNED_ENV)
        sys.path.insert(0, SRC)
        import qkdlab.cli as cli
        from qkdlab import cloner, qudit, security, simulate

        self.cli, self.cloner, self.qudit = cli, cloner, qudit
        self.security, self.simulate = security, simulate


def traced(workload: str, seed: int, workdir: str, refs: dict = REFERENCES) -> dict:
    untraced, failures = run_sample(workload, seed, workdir, refs)
    failed = 1 if failures or "wall_s" not in untraced else 0
    metrics = {
        "cli.import_s": (import_time("cli", workdir), "s"),
        "cli.deps_import_s": (import_time("deps", workdir), "s"),
    }
    q = Modules()
    trace_security(q, metrics)
    trace_cloner(q, metrics)
    trace_simulate(q, seed, metrics)
    total, bad = trace_cli(q, workload, seed, workdir, refs, metrics)
    failures += bad
    failed += 1 if bad else 0
    metrics["trace.overhead_s"] = (total - untraced.get("wall_s", math.nan), "s")
    return {"metrics": metrics, "attempted": 2, "failed": failed, "failures": failures}


# ---------------------------------------------------------------------------


def machine_facts(workload: str, seed: int, trace: int, summary: dict) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        same = top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT)
        commit = lines[1] if same else None
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = None
    return {
        "benchmark": "qkdlab", "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "python": sys.version.split()[0], **versions,
        "commit": commit, "samples": summary["attempted"],
        "failed_frac": summary["failed"] / summary["attempted"],
        "failures": summary["failures"][:5],
        "scope": "the benchmark's own processes only; no whole-machine tracing, "
                 "cache dropping, cgroup or kernel settings",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "qkdlab", "cli.py")):
        print(f"error: no qkdlab sources under {SRC}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that a running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            summary = traced(args.workload, args.seed, workdir)
        else:
            summary = measure(args.workload, args.seed, args.seconds, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps(machine_facts(args.workload, args.seed, args.trace, summary)))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in summary["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
