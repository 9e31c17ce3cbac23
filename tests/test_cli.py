import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import norm_squared, preset_fidelity
from qkdlab import security, simulate
from qkdlab.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "result.schema.json")
    .read_text())


@pytest.fixture()
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    jsonschema.validate(payload, SCHEMA)
    return payload


# one JSON invocation per subcommand, all validated against the shipped schema
@pytest.mark.parametrize("args", [
    ["bases", "--no-timestamp"],
    ["cloner-eval", "--params", "1,0,0", "--no-timestamp"],
    ["crossing", "--preset", "universal", "--no-timestamp"],
    ["symmetric", "--no-timestamp"],
    ["thresholds", "--no-timestamp"],
    ["table", "--no-timestamp"],
    ["simulate", "--rounds", "2000", "--seed", "7", "--no-timestamp"],
    ["survey", "--rounds", "2000", "--seed", "7", "--no-timestamp"],
    ["sweep", "--start", "0.77", "--stop", "0.78", "--points", "3",
     "--format", "json", "--no-timestamp"],
])
def test_all_commands_emit_schema_valid_json(runner, args):
    payload = run_json(runner, args)
    assert payload["command"] == args[0]
    assert payload["version"]
    assert "timestamp" not in payload


def test_crossing_3deb_value(runner):
    payload = run_json(runner, ["crossing", "--preset", "3deb", "--no-timestamp"])
    res = payload["result"]
    assert abs(res["f_a_star"] - 0.7753) <= 5e-4
    assert res["residual"] <= 1e-8
    assert payload["inputs"]["preset"] == "3deb"


def test_crossing_universal_value(runner):
    payload = run_json(runner, ["crossing", "--preset", "universal", "--no-timestamp"])
    assert abs(payload["result"]["f_a_star"] - 0.7733) <= 1e-3


def test_crossing_unknown_preset_exits_1(runner):
    result = runner.invoke(main, ["crossing", "--preset", "bogus"])
    assert result.exit_code == 1


def test_table_csv_header_contract(runner):
    result = runner.invoke(main, ["table", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "protocol,f_a_star,error_rate,paper_value,delta"
    assert len(lines) == 5
    protocols = [line.split(",")[0] for line in lines[1:]]
    assert protocols == ["3DEB", "12-state", "3D-BB84", "Ekert91"]


def test_table_json_rows(runner):
    payload = run_json(runner, ["table", "--no-timestamp"])
    rows = payload["result"]
    assert len(rows) == 4
    rates = {r["protocol"]: r["error_rate"] for r in rows}
    assert abs(rates["3DEB"] - 0.2247) <= 1.5e-3
    assert abs(rates["Ekert91"] - 0.1464) <= 1.5e-3


def test_simulate_ideal_qber_zero(runner):
    payload = run_json(runner, ["simulate", "--rounds", "5000", "--seed", "7",
                                "--channel", "ideal", "--no-timestamp"])
    assert payload["result"]["qber"] == 0
    assert payload["seed"] == 7


def test_simulate_attack_qber(runner):
    payload = run_json(runner, ["simulate", "--rounds", "100000", "--seed", "7",
                                "--channel", "clone:optimal", "--no-timestamp"])
    res = payload["result"]
    assert abs(res["qber"] - 0.2247) <= 3 * res["qber_se"]


def test_simulate_zero_rounds_exits_1(runner):
    result = runner.invoke(main, ["simulate", "--rounds", "0"])
    assert result.exit_code == 1


def test_simulate_bad_channel_exits_1(runner):
    result = runner.invoke(main, ["simulate", "--rounds", "10", "--channel", "foo"])
    assert result.exit_code == 1


def test_simulate_config_file(runner, tmp_path):
    cfg = {"rounds": 3000, "seed": 5,
           "channel": {"type": "depolarizing", "visibility": 0.5}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    payload = run_json(runner, ["simulate", "--config", str(path), "--no-timestamp"])
    assert payload["result"]["rounds"] == 3000
    assert abs(payload["result"]["qber"] - 1 / 3) <= 0.05


def test_simulate_config_run_echoes_the_file_channel_and_sifting(runner, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rounds": 10, "seed": 0,
                                "channel": {"type": "depolarizing", "visibility": 0.5}}))
    inputs = run_json(runner, ["simulate", "--config", str(path), "--no-timestamp"])["inputs"]
    assert inputs["channel"] == {"type": "depolarizing", "visibility": 0.5}
    assert inputs["sifting"] == {"rule": "same"}
    path.write_text(json.dumps({"rounds": 10, "seed": 0,
                                "sifting": {"rule": "pairs", "pairs": [[0, 0]]}}))
    inputs = run_json(runner, ["simulate", "--config", str(path), "--no-timestamp"])["inputs"]
    assert inputs["channel"] == {"type": "ideal"}
    assert inputs["sifting"] == {"rule": "pairs", "pairs": [[0, 0]]}


def test_simulate_dump_csv(runner, tmp_path):
    out = tmp_path / "rounds.csv"
    run_json(runner, ["simulate", "--rounds", "50", "--seed", "1",
                      "--dump-csv", str(out), "--no-timestamp"])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "round,basis_i,basis_j,a,b"
    assert len(lines) == 51


# sha256 of the --no-timestamp output of the README simulate examples
# (1e5 rounds, seed 7), as the earlier whole-table, mask-per-pair engine
# printed it; the streaming engine must reproduce every byte
README_SIMULATE_SHA256 = {
    "ideal": "793b5181749df9500f9d81268dc897eb9d16f001edfa1b7f07aa969e05c14813",
    "clone:optimal": "b921dd5634ada755080235bff235c9af3790b7a26da48a9490c0da31199b2eee",
    "depol:0.6962": "bbe42476030cdefdf9b6eb0cc7398245d58ca41eec0465b4f8eb3a459e3c5385",
}


@pytest.mark.parametrize("channel", list(README_SIMULATE_SHA256))
def test_simulate_readme_examples_byte_identical(runner, channel):
    result = runner.invoke(main, ["simulate", "--rounds", "100000", "--seed", "7",
                                  "--channel", channel, "--no-timestamp"])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == README_SIMULATE_SHA256[channel]


def test_simulate_dump_csv_longer_than_a_chunk_byte_identical(runner, tmp_path):
    # 300000 rounds span several chunks and end partway through one
    out = tmp_path / "rounds.csv"
    result = runner.invoke(main, [
        "simulate", "--rounds", "300000", "--seed", "3", "--channel", "depol:0.6962",
        "--alice-weights", "0.1,0.2,0.3,0.4", "--sifting", "pairs:0-0,1-3,2-2",
        "--dump-csv", str(out), "--no-timestamp"])
    assert result.exit_code == 0, result.output
    assert (hashlib.sha256(result.stdout_bytes).hexdigest()
            == "d524b9d10aa519d0e9138b37174e308f3f499622a15b612666717f641a6d4666")
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "cf3b1b0b26b1359031cb31778c6b8ca975faff23cb82fd86ec880cef951ff868")


def test_simulate_output_does_not_depend_on_the_chunk_size(runner, tmp_path, monkeypatch):
    # the chunk size bounds memory only: stdout and the dumped rounds are
    # the same bytes for a chunk that divides nothing, the engine's own
    # chunk and a chunk four times as large
    outputs = set()
    for chunk in (999, 1 << 13, 1 << 15):
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        out = tmp_path / f"rounds-{chunk}.csv"
        result = runner.invoke(main, ["simulate", "--rounds", "100000", "--seed", "3",
                                      "--channel", "clone:optimal", "--dump-csv", str(out),
                                      "--no-timestamp"])
        assert result.exit_code == 0, result.output
        outputs.add((result.stdout_bytes, out.read_bytes()))
    assert len(outputs) == 1


# sha256 of the --no-timestamp output of the analysis commands.  `table`
# and the universal crossing and sweep were recorded before the inner
# maximizer became one preset-driven routine and still reproduce every
# byte.  The other eight were recorded when the nested grid replaced the
# compass search; that moved their printed params by up to 1.9e-8 and
# their residuals in the last digits, and
# test_analysis_outputs_match_reference bounds the change.
ANALYSIS_SHA256 = {
    "table --format json":
        "4e833ed2b656ecb2801bf95045d70c8c5c8b5d5cbd2f9e17ee8832063d7ddbfe",
    "crossing --preset 3deb":
        "9c6c910f38a5238c48c919698a14b9f946eaa6d3e7574d37f0182650206c9e7c",
    "crossing --preset universal":
        "54a5b20da16d95dd2d32a90100fc844f7894038173039d4e330baaf4058ef57a",
    "crossing --preset 2mub":
        "ee95d785df8951e882b870698665f981781313c196f91cd7e09fe85969c75755",
    "crossing --preset qubit":
        "ce87967f132c41dffaba300a00694810f87f8db00fed13ed3b23de21f1d5089d",
    "symmetric":
        "3b67095e8fdaf6782802e23b1fc9283549fa3dca406522d124ee7c94e2c25c6a",
    "sweep --preset 3deb --points 7 --format csv":
        "41f66bae36d52d3464c4e156aa1f3ef0491c055614db6e315cc250ce3f4e9f6e",
    "sweep --preset universal --points 7 --format csv":
        "2dc9a74ce563393911bfd47a979085451a132ef87940573e981020a4f55d8cc0",
    "sweep --preset 2mub --points 7 --format csv":
        "693a3965ad161a9e4cbd797fb70765b7d22dd841f3945d4b3de0b58b66e64b35",
    "sweep --preset qubit --start 0.80 --stop 0.90 --points 7 --format csv":
        "d99f4ffbf8c2f5418e6e0662bfbbb50d95d51a6b9d13d352961bc9e8c4024ce2",
    # across the flat 2mub ridge at F ~ 0.889, where two maxima nearly tie
    "sweep --preset 2mub --start 0.85 --stop 0.95 --points 11 --format csv":
        "40aa6d666501e61ca03faaed91734cb771839bf251f37b84858fec197e409424",
}


@pytest.mark.parametrize("args", list(ANALYSIS_SHA256))
def test_analysis_outputs_byte_identical(runner, args):
    result = runner.invoke(main, args.split() + ["--no-timestamp"])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == ANALYSIS_SHA256[args]


# sha256 of the --no-timestamp output of three commands that read the phase
# bases or the cloner's norm checks, recorded when each phase-basis state
# was built on its own
BASES_SHA256 = {
    "bases": "39d1aba2d45b938c90b5a49ade50aabc75076028466feb3060f66966431cdc12",
    "survey --rounds 20000 --seed 5":
        "1fc4a8a1219a778dbfffad796f1a73357b2c403e73b9c227fe489c311b031554",
    "cloner-eval --params 0.8320,0.1711,0.2038":
        "ad7b5c35d7e79f62c09c32aaf15c56a68cae4d8f42519b37b051207bb5a1b2ba",
}


@pytest.mark.parametrize("args", list(BASES_SHA256))
def test_basis_outputs_byte_identical(runner, args):
    result = runner.invoke(main, args.split() + ["--no-timestamp"])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == BASES_SHA256[args]


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout's qkdlab."""
    path = [str(Path(security.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          check=True, timeout=120)


def test_cli_import_loads_no_scipy():
    code = ("import sys, qkdlab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code).stdout == b"[]\n"


def test_cli_import_builds_no_state_vectors():
    # the session bases are read off phase_basis; no StateVector checks a norm
    code = ("import numpy as np\n"
            "calls = []\n"
            "norm = np.linalg.norm\n"
            "np.linalg.norm = lambda *a, **k: calls.append(a) or norm(*a, **k)\n"
            "import qkdlab.cli\n"
            "print(len(calls))")
    assert _fresh_python(code).stdout == b"0\n"


def test_analysis_loads_no_numpy_random():
    # the inner maximizer draws nothing at random
    code = ("import sys, qkdlab\n"
            "qkdlab.error_rate_table()\n"
            "qkdlab.symmetric_point()\n"
            "qkdlab.information_sweep('2mub', 0.85, 0.95, 5)\n"
            "print('numpy.random' in sys.modules)")
    assert _fresh_python(code).stdout == b"False\n"


@pytest.mark.parametrize("args", ["table --format json", "symmetric"])
def test_analysis_outputs_byte_identical_without_scipy(args):
    # with sys.modules['scipy'] = None, any import of scipy raises ImportError
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from qkdlab.cli import main\n"
            f"main({args.split() + ['--no-timestamp']!r}, prog_name='qkdlab')")
    stdout = _fresh_python(code).stdout
    assert hashlib.sha256(stdout).hexdigest() == ANALYSIS_SHA256[args]


# the same seven outputs as printed by the compass search over Cartesian
# amplitudes, before the angle chart, and the 2mub ridge sweep as printed on
# the angle chart
ANALYSIS_REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "data" / "analysis_reference.json").read_text())


def _printed_fields(args, text):
    """{field path: printed value} of a JSON result or a CSV table."""
    if "--format csv" in args:
        header, *lines = text.splitlines()
        return {f"{i}.{name}": value for i, line in enumerate(lines)
                for name, value in zip(header.split(","), line.split(","))}
    fields = {}

    def walk(path, node):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{path}.{key}", value)
        else:
            fields[path] = node
    walk("", json.loads(text))
    return fields


def _ordered_x_pairs(fields):
    """``fields`` with each printed 2mub (x, x') pair in ascending order:
    I_AE is symmetric in x <-> x' bit for bit, so at a maximum the order of
    the two is a tie."""
    fields = dict(fields)
    for path in [p for p in fields if p.endswith(".x") and p + "p" in fields]:
        if float(fields[path]) > float(fields[path + "p"]):
            fields[path], fields[path + "p"] = fields[path + "p"], fields[path]
    return fields


@pytest.mark.parametrize("args", list(ANALYSIS_REFERENCE))
def test_analysis_outputs_match_reference(runner, args):
    # fidelities, error rates and information are equal as printed; the
    # arg-max params (and f_b, read off them) sit on a flat maximum and may
    # move by 1e-7; the solver residuals stay within their 1e-8 budget
    result = runner.invoke(main, args.split() + ["--no-timestamp"])
    assert result.exit_code == 0, result.output
    new = _printed_fields(args, result.stdout_bytes.decode())
    ref = _printed_fields(args, ANALYSIS_REFERENCE[args])
    assert new.keys() == ref.keys()
    if "2mub" in args:
        new, ref = _ordered_x_pairs(new), _ordered_x_pairs(ref)
    for path, value in new.items():
        name = path.rsplit(".", 1)[1]
        if name in ("residual", "fidelity_gap"):
            assert value <= 1e-8, (path, value)
        elif value != ref[path]:
            assert name in ("v", "x", "xp", "y", "f_b"), (path, value, ref[path])
            a, b = float(value), float(ref[path])
            if "qubit" in args and name == "y":
                # the qubit rows (v +- y, x +- y) make I_AE even in y, so
                # the sign of y at a maximum is a tie
                a, b = abs(a), abs(b)
            assert abs(a - b) <= 1e-7, (path, value, ref[path])


def _printed_points(args, text):
    """(preset, params, F_A, I_AE or None) of each row or result an analysis prints."""
    preset = security.resolve_preset(args.split("--preset ")[1].split()[0]
                                     if "--preset" in args else "3deb")
    if "--format csv" in args:
        header, *lines = text.splitlines()
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            yield (preset, {p: float(row[p]) for p in preset.free_params},
                   float(row["f_a"]), float(row["i_ae"]))
    else:
        result = json.loads(text)["result"]
        if "params_star" in result:
            yield preset, result["params_star"], result["f_a_star"], result["i_ae"]
        else:
            yield preset, result["params"], result["fidelity"], None


@pytest.mark.parametrize("args", list(ANALYSIS_REFERENCE))
def test_printed_params_reproduce_the_printed_information(runner, args):
    # each printed point, fed back through the preset, gives its printed
    # fidelity and I_AE to within the 10 printed digits of its params
    result = runner.invoke(main, args.split() + ["--no-timestamp"])
    assert result.exit_code == 0, result.output
    points = list(_printed_points(args, result.stdout_bytes.decode()))
    assert points
    for preset, params, f_a, i_ae in points:
        assert abs(preset_fidelity(preset, params) - f_a) <= 1e-9, (params, f_a)
        if i_ae is not None:
            assert abs(security.preset_information(preset, params)[1] - i_ae) <= 1e-9, params


def assert_usage_error(result, message):
    """Exit 1 through click's error path: a one-line message, no traceback."""
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and message in errors[0], result.output


def test_simulate_negative_seed_exits_1(runner):
    result = runner.invoke(main, ["simulate", "--rounds", "10", "--seed", "-1"])
    assert_usage_error(result, "seed must be nonnegative")


@pytest.mark.parametrize("spec", ["0,0,0", "nan,0,0", "0,0,0,0", "1e200,0,0", "inf,0,0",
                                  "1e-160,1e-160,1e-160"])
def test_simulate_clone_degenerate_params_exit_1(runner, spec):
    result = runner.invoke(main, ["simulate", "--rounds", "10", "--channel", f"clone:{spec}"])
    assert_usage_error(result, "finite, nonzero norm")


@pytest.mark.parametrize("spec", ["0,0,0", "nan,0,0", "1e200,0,0", "1e-160,1e-160,1e-160"])
def test_cloner_eval_degenerate_params_exit_1(runner, spec):
    result = runner.invoke(main, ["cloner-eval", "--params", spec])
    assert_usage_error(result, "finite, nonzero norm")


def test_cloner_eval_no_normalize_names_the_flag_remedy(runner):
    # the README's four-digit optimum sits 1.9e-5 off the normalization surface
    result = runner.invoke(main, ["cloner-eval", "--params", "0.8320,0.1711,0.2038",
                                  "--no-normalize"])
    assert_usage_error(result, "drop --no-normalize to rescale")
    assert ".normalized()" not in result.output


def test_cloner_eval_non_numeric_params_exit_1(runner):
    result = runner.invoke(main, ["cloner-eval", "--params", "a,b,c"])
    assert_usage_error(result, "expected numbers")


def _no_tables(*args, **kwargs):
    raise AssertionError("the session built its tables")


def _deep_config(key, depth):
    """A config file whose ``key`` object holds lists nested ``depth`` deep."""
    return (f'{{"rounds": 10, "seed": 0, "{key}": {{"x": ' + "[" * depth + "]" * depth
            + "}}")


@pytest.mark.parametrize("config,message", [
    ({"seed": 5}, "missing 'rounds'"),
    ({"rounds": 3000}, "missing 'seed'"),
    ({"rounds": "3000", "seed": 5}, "'rounds' must be an integer"),
    ({"rounds": 3000, "seed": None}, "'seed' must be an integer"),
    ({"rounds": 3000, "seed": 5, "channel": {"type": "depolarizing"}}, "missing 'visibility'"),
    ({"rounds": 3000, "seed": 5, "channel": {"type": "cloning", "params": [0, 0, 0, 0]}},
     "finite, nonzero norm"),
    ({"rounds": 3000, "seed": 5, "alice_weights": None}, "wrong type"),
    ({"rounds": 3000, "seed": 5, "alice_weights": [math.nan, 0, 0, 1]},
     "alice_weights must be 4 nonnegative weights"),
    ({"rounds": 10, "seed": 0, "sifting": {"rule": "pairs", "pairs": [[math.inf, 0]]}},
     "sifting pairs must be integers"),
    ({"rounds": 10, "seed": 0, "sifting": {"rule": "pairs", "pairs": [[0, 0.5]]}},
     "sifting pairs must be integers"),
    ({"rounds": 10, "seed": 0, "sifting": {"rule": "pairs", "pairs": [[True, False]]}},
     "sifting pairs must be integers"),
    ({"rounds": 10, "seed": 0, "alice_weights": [True, False, False, False]},
     "'alice_weights' takes JSON numbers"),
    ({"rounds": 10, "seed": 0, "channel": {"type": "depolarizing", "visibility": "0.5"}},
     "'visibility' takes JSON numbers"),
    ({"rounds": 10, "seed": 0, "channel": {"type": "depolarizing", "visibility": True}},
     "'visibility' takes JSON numbers"),
    ({"rounds": 10, "seed": 0, "channel": {"type": "cloning", "params": ["1", 0, 0, 0]}},
     "'params' takes JSON numbers"),
    ("[" * 200_000, "nested too deeply"),
    ({"rounds": 10, "seed": 0, "sifting": {"rule": "pairs", "pairs": [[0]]}},
     "sifting pairs must be integers, a list of [i, j] lists"),
    ({"rounds": 10, "seed": 0, "sifting": {"rule": "pairs", "pairs": [[0, 1, 2]]}},
     "sifting pairs must be integers, a list of [i, j] lists"),
    ({"rounds": 10, "seed": 0, "sifting": {"rule": "pairs", "pairs": "ab"}},
     "sifting pairs must be integers, a list of [i, j] lists"),
    ({"rounds": 10, "seed": 0, "channel": {"type": "cloning", "params": [1, 0]}},
     "'params' takes four numbers"),
    ({"rounds": 10, "seed": 0, "channel": {"type": "cloning", "params": [1, 0, 0, 0, 0]}},
     "'params' takes four numbers"),
    # integer literals beyond the float range
    ({"rounds": 10, "seed": 0, "channel": {"type": "depolarizing", "visibility": 10 ** 330}},
     "'visibility' takes numbers within the float range"),
    ({"rounds": 10, "seed": 0, "alice_weights": [10 ** 330, 0, 0, 1]},
     "'alice_weights' takes numbers within the float range"),
    ({"rounds": 10, "seed": 0, "channel": {"type": "cloning", "params": [-10 ** 330, 0, 0, 0]}},
     "'params' takes numbers within the float range"),
    # json.load reads it, but the input echo recursed past the limit
    (_deep_config("channel", 600), "nested too deeply"),
], ids=["no-rounds", "no-seed", "string-rounds", "null-seed", "no-visibility",
        "zero-params", "null-weights", "nan-weights", "inf-pair", "fractional-pair",
        "bool-pair", "bool-weights", "string-visibility", "bool-visibility",
        "string-params", "deep-nesting", "one-index-pair", "three-index-pair",
        "string-pairs", "two-params", "five-params", "huge-visibility", "huge-weight",
        "huge-params", "deep-echo"])
def test_simulate_malformed_config_exits_1(runner, monkeypatch, tmp_path, config, message):
    monkeypatch.setattr(simulate, "_round_tables", _no_tables)
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    result = runner.invoke(main, ["simulate", "--config", str(path)])
    assert_usage_error(result, message)
    assert "Usage:" not in result.output  # the fault is in the file, not the flags


def test_simulate_config_at_every_nesting_depth_exits_0_or_1(runner, tmp_path):
    # near the deepest echo the stack allows, each depth either runs or
    # exits 1 with one Error: line; the envelope nests the echo two levels
    # deeper than the check made before the session
    path = tmp_path / "config.json"

    def exit_code(depth):
        path.write_text(_deep_config("sifting", depth))
        result = runner.invoke(main, ["simulate", "--config", str(path), "--no-timestamp"])
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            depth, repr(result.exception))
        assert "Traceback" not in result.output and "Usage:" not in result.output, depth
        return result.exit_code

    ok, refused = 1, 2000
    assert exit_code(ok) == 0 and exit_code(refused) == 1
    while refused - ok > 1:
        mid = (ok + refused) // 2
        if exit_code(mid) == 0:
            ok = mid
        else:
            refused = mid
    assert [exit_code(d) for d in range(ok - 3, ok + 9)] == [0] * 4 + [1] * 8


@pytest.mark.parametrize("name,message", [
    ("missing.json", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing", "directory"])
def test_simulate_unreadable_config_exits_1(runner, tmp_path, name, message):
    # the read fails in open, not in option parsing: no usage banner
    result = runner.invoke(main, ["simulate", "--config", str(tmp_path / name)])
    assert_usage_error(result, message)
    assert "Usage:" not in result.output


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("rounds", [simulate._ROUNDS_MAX + 1, 10 ** 330], ids=["max+1", "1e330"])
def test_simulate_with_too_many_rounds_exits_1_before_any_table(runner, monkeypatch, tmp_path,
                                                                rounds, source):
    # 10^330 rounds ran until killed; the bound refuses them before any
    # table is built
    monkeypatch.setattr(simulate, "_round_tables", _no_tables)
    if source == "flag":
        args = ["simulate", "--rounds", str(rounds)]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rounds": rounds, "seed": 0}))
        args = ["simulate", "--config", str(path)]
    result = runner.invoke(main, args)
    assert_usage_error(result, f"rounds must be at most {simulate._ROUNDS_MAX}")
    assert source == "flag" or "Usage:" not in result.output


def test_survey_with_too_many_rounds_exits_1(runner, monkeypatch):
    def no_survey(config):
        raise AssertionError("the survey ran")

    monkeypatch.setattr(simulate, "basis_correlation_survey", no_survey)
    result = runner.invoke(main, ["survey", "--rounds", str(simulate._ROUNDS_MAX + 1)])
    assert_usage_error(result, f"rounds must be at most {simulate._ROUNDS_MAX}")


def test_a_session_of_the_most_rounds_is_accepted():
    assert simulate.SimConfig(rounds=simulate._ROUNDS_MAX, seed=0).rounds == 10 ** 12


def test_survey_negative_seed_exits_1(runner):
    result = runner.invoke(main, ["survey", "--rounds", "10", "--seed", "-1"])
    assert_usage_error(result, "seed must be nonnegative")


@pytest.mark.parametrize("args", [
    ["thresholds", "--output"],
    ["simulate", "--rounds", "10", "--dump-csv"],
])
def test_write_into_missing_directory_exits_1(runner, tmp_path, args):
    target = tmp_path / "nodir" / "out"
    result = runner.invoke(main, args + [str(target)])
    assert_usage_error(result, "No such file or directory")
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    ["thresholds", "--output"],
    ["simulate", "--rounds", "10", "--dump-csv"],
])
def test_write_to_full_device_exits_1(runner, args):
    result = runner.invoke(main, args + ["/dev/full"])
    assert_usage_error(result, "No space left on device")


def test_cloner_eval_identity(runner):
    payload = run_json(runner, ["cloner-eval", "--params", "1,0,0",
                                "--base", "3", "--no-timestamp"])
    res = payload["result"]
    assert res["f_a"] == 1.0
    assert abs(res["r_bound"] - 1.0) <= 1e-9
    assert res["log_base"] == "3"


def test_cloner_eval_amplitude_matrix_roundtrip(runner):
    import numpy as np
    from qkdlab.cloner import ClonerParams, phi_cloner_matrix
    payload = run_json(runner, ["cloner-eval", "--params", "0.8320,0.1711,0.2038",
                                "--no-timestamp"])
    # the matrix prints as rows of [re, im] pairs
    mat = np.array([[complex(re, im) for re, im in row]
                    for row in payload["result"]["amplitude_matrix"]])
    expected = phi_cloner_matrix(
        ClonerParams(0.8320, 0.1711, 0.2038, 0.2038).normalized())
    assert abs(norm_squared(mat) - 1.0) <= 1e-9  # 10-digit serialization
    assert np.max(np.abs(mat - expected)) <= 1e-9


def test_cloner_eval_broken_tie_exits_1(runner):
    result = runner.invoke(main, ["cloner-eval", "--params", "0.9,0.2,0.25,0.05"])
    assert result.exit_code == 1


def test_sweep_csv_brackets_crossing(runner):
    result = runner.invoke(main, ["sweep", "--start", "0.76", "--stop", "0.79",
                                  "--points", "7"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("f_a,f_b,i_ab,i_ae,r_bound")
    signs = []
    for line in lines[1:]:
        parts = line.split(",")
        signs.append(float(parts[4]) >= 0)
    assert signs[0] is False and signs[-1] is True
    assert sum(1 for k in range(len(signs) - 1) if signs[k] != signs[k + 1]) == 1


def test_sweep_single_point_near_crossing(runner):
    payload = run_json(runner, ["sweep", "--start", "0.7753", "--stop", "0.7753",
                                "--points", "1", "--format", "json",
                                "--no-timestamp"])
    row = payload["result"][0]
    assert abs(row["i_ab"] - row["i_ae"]) <= 1e-3


def test_sweep_identity_point_in_trits(runner):
    payload = run_json(runner, ["sweep", "--start", "1.0", "--stop", "1.0",
                                "--points", "1", "--base", "3",
                                "--format", "json", "--no-timestamp"])
    assert abs(payload["result"][0]["r_bound"] - 1.0) <= 1e-9


def test_sweep_empty_grid_exits_1(runner):
    result = runner.invoke(main, ["sweep", "--points", "0"])
    assert result.exit_code == 1


@pytest.mark.parametrize("points", [security._SWEEP_POINTS_MAX + 1, 100_000_000_000])
def test_sweep_with_too_many_points_exits_1_before_allocating(runner, monkeypatch, points):
    def no_grid(*args, **kwargs):
        raise AssertionError("the sweep allocated its grid")

    monkeypatch.setattr(security.np, "linspace", no_grid)
    result = runner.invoke(main, ["sweep", "--points", str(points)])
    assert_usage_error(result, f"grid takes at most {security._SWEEP_POINTS_MAX} points")


def test_sweep_bad_bounds_exits_1(runner):
    result = runner.invoke(main, ["sweep", "--start", "0.1", "--stop", "0.9"])
    assert result.exit_code == 1


def test_bases_dodecagon(runner):
    payload = run_json(runner, ["bases", "--no-timestamp"])
    angles = payload["result"]["dodecagon_angles"]
    assert len(angles) == 12
    gaps = [angles[k + 1] - angles[k] for k in range(11)]
    assert all(abs(g - math.pi / 6) <= 1e-9 for g in gaps)
    assert payload["result"]["phis"][3] == pytest.approx(math.pi / 2)


def test_survey_pairing(runner):
    payload = run_json(runner, ["survey", "--rounds", "1000", "--seed", "3",
                                "--no-timestamp"])
    assert payload["result"]["conjugate_pairing"] == {"0": 0, "1": 3, "2": 2, "3": 1}
    assert payload["result"]["perfect_pairs"] == [[0, 0], [1, 1], [2, 2], [3, 3]]


def test_byte_identical_reruns_without_timestamp(runner):
    args = ["simulate", "--rounds", "4000", "--seed", "9",
            "--channel", "depol:0.8", "--no-timestamp"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def test_timestamp_field_is_the_only_difference(runner):
    args = ["thresholds"]
    p1 = json.loads(runner.invoke(main, args).output)
    p2 = json.loads(runner.invoke(main, args).output)
    p1.pop("timestamp")
    p2.pop("timestamp")
    assert p1 == p2


def test_output_file_option(runner, tmp_path):
    target = tmp_path / "out.json"
    result = runner.invoke(main, ["thresholds", "--no-timestamp",
                                  "--output", str(target)])
    assert result.exit_code == 0
    payload = json.loads(target.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert abs(payload["result"]["visibility_threshold"] - 0.69615) <= 1e-5


def test_numbers_have_ten_significant_digits(runner):
    out = runner.invoke(main, ["thresholds", "--no-timestamp"]).output
    val = json.loads(out)["result"]["qubit_fidelity_threshold"]
    assert val == float(f"{0.5 + 1 / math.sqrt(8):.10g}")


@pytest.mark.parametrize("flag", ["--alice-weights", "--bob-weights"])
def test_simulate_non_numeric_weights_name_the_flag(runner, flag):
    result = runner.invoke(main, ["simulate", "--rounds", "10", flag, "a,b"])
    assert_usage_error(result, f"{flag} takes four comma-separated numbers")


def test_simulate_nan_weight_exits_1(runner):
    # every comparison with NaN is false, so the weight check used to pass
    result = runner.invoke(main, ["simulate", "--rounds", "1000",
                                  "--alice-weights", "nan,0,0,1"])
    assert_usage_error(result, "alice_weights must be 4 nonnegative weights")


@pytest.fixture()
def unsolvable(monkeypatch):
    """Every crossing and symmetric-point solve fails to converge."""
    def fail(*args, **kwargs):
        raise security.CrossingError("no crossing (forced)")

    monkeypatch.setattr(security, "crossing_point", fail)
    monkeypatch.setattr(security, "symmetric_point", fail)


@pytest.mark.parametrize("args", [
    ["crossing"],
    ["symmetric"],
    ["table"],
    ["table", "--format", "csv"],
    ["cloner-eval", "--params", "optimal"],
    ["simulate", "--rounds", "10", "--channel", "clone:optimal"],
], ids=" ".join)
def test_non_convergence_exits_2_for_every_solve(runner, unsolvable, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.stdout == ""
    assert result.stderr == "error: no crossing (forced)\n"


def test_every_command_owns_the_shared_boundary():
    assert set(main.commands) == set(SCHEMA["properties"]["command"]["enum"])
    for name, cmd in main.commands.items():
        options = {opt for param in cmd.params for opt in param.opts}
        assert {"--no-timestamp", "--output"} <= options, name


# The error contract over generated argument strings: exit 0, 1 or 2,
# never an escaped exception or a traceback.  Besides arbitrary text the
# strategies build near-valid specs, so that generated runs also get past
# parsing and into the library.
_TEXT = st.text(max_size=24)
_NUMBER = st.one_of(st.sampled_from(["0", "0.25", "0.5", "1", "-1", "nan", "inf",
                                     "1e-300", "1e300"]),
                    st.floats().map(repr))


def _numbers(min_size, max_size):
    return st.lists(_NUMBER, min_size=min_size, max_size=max_size).map(",".join)


def _optional(*strategies):
    """None (the option is left out), or one of the given strategies."""
    return st.one_of(st.none(), *strategies)


_PAIRS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4).map(
    lambda pairs: "pairs:" + ",".join(f"{i}-{j}" for i, j in pairs))
_CONTRACT = settings(max_examples=40, derandomize=True, deadline=None)


def assert_contract(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, repr(result.exception))
    assert "Traceback" not in result.output, args


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rounds=st.integers(-2, 2000),
       channel=_optional(_TEXT, st.just("ideal"), _NUMBER.map("depol:".__add__),
                         st.one_of(st.just("optimal"), _numbers(3, 4)).map("clone:".__add__)),
       sifting=_optional(_TEXT, st.just("same"), _PAIRS),
       alice=_optional(_TEXT, _numbers(4, 4)), bob=_optional(_TEXT, _numbers(4, 4)))
def test_simulate_error_contract(rounds, channel, sifting, alice, bob):
    args = ["simulate", f"--rounds={rounds}", "--no-timestamp"]
    for option, value in [("--channel", channel), ("--sifting", sifting),
                          ("--alice-weights", alice), ("--bob-weights", bob)]:
        if value is not None:
            args.append(f"{option}={value}")
    assert_contract(CliRunner(), args)


@_CONTRACT
@given(spec=st.one_of(_TEXT, st.just("optimal"), _numbers(3, 4)))
def test_cloner_eval_error_contract(spec):
    assert_contract(CliRunner(), ["cloner-eval", f"--params={spec}", "--no-timestamp"])


@_CONTRACT
@given(preset=st.sampled_from(["3deb", "qubit"]),
       points=st.one_of(st.integers(-1, 3),
                        st.integers(security._SWEEP_POINTS_MAX + 1, 10 ** 30)),
       start=st.one_of(st.floats(), st.floats(0.3, 1.0)),
       stop=st.one_of(st.floats(), st.floats(0.3, 1.0)))
def test_sweep_error_contract(preset, points, start, stop):
    # a huge grid is refused before it is allocated
    assert_contract(CliRunner(), ["sweep", f"--preset={preset}", f"--points={points}",
                                  f"--start={start!r}", f"--stop={stop!r}"])


@_CONTRACT
@given(preset=st.one_of(_TEXT, st.sampled_from(["3deb", "3DEB", "universal", "12-State",
                                                "2mub", "3D-BB84", "3d-bb84",
                                                "qubit", "EKERT91"])))
def test_crossing_error_contract(preset):
    assert_contract(CliRunner(), ["crossing", f"--preset={preset}", "--no-timestamp"])


# JSON values for generated config files.  Every integer either is a
# session of at most 2,000 rounds or lies beyond what SimConfig accepts, so
# no generated config runs a long session.
_JSON_INT = st.one_of(st.integers(-3, 2000),
                      st.sampled_from([simulate._ROUNDS_MAX + 1, 2 ** 64, 10 ** 330,
                                       -10 ** 330]))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _JSON_INT, st.floats(), st.text(max_size=8)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=8)
# a changed field takes an edge value of each JSON type, or any JSON tree
_EDGE_VALUES = st.sampled_from([10 ** 330, -10 ** 330, 2 ** 64, simulate._ROUNDS_MAX + 1, -1,
                                0, 1.5, -0.5, math.nan, math.inf, True, False, None, "0.5",
                                "", [], [[0.5]], {}])
_VALID_CONFIGS = [
    {"rounds": 2000, "seed": 3},
    {"rounds": 500, "seed": 0, "channel": {"type": "depolarizing", "visibility": 0.7},
     "sifting": {"rule": "pairs", "pairs": [[0, 0], [1, 3]]},
     "alice_weights": [0.1, 0.2, 0.3, 0.4]},
    {"rounds": 100, "seed": 7,
     "channel": {"type": "cloning", "params": [0.832, 0.1711, 0.2038, 0.2038]},
     "sifting": {"rule": "same"}, "bob_weights": [0.25, 0.25, 0.25, 0.25]},
]


def _paths(node, path=()):
    """The key path of every field and list item under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def _config_texts(draw):
    """A JSON tree of any shape, or a valid config with one field changed:
    replaced, deleted, or given a duplicate key."""
    if draw(st.integers(0, 3)) == 0:
        return json.dumps(draw(_JSON))
    config = json.loads(json.dumps(draw(st.sampled_from(_VALID_CONFIGS))))
    *steps, key = draw(st.sampled_from(list(_paths(config))))
    parent = config
    for step in steps:
        parent = parent[step]
    change = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    value = draw(st.one_of(_EDGE_VALUES, _JSON))
    if change == "delete":
        del parent[key]
    elif change == "replace" or parent is not config:
        parent[key] = value
    else:  # json.load keeps the later of two equal keys
        return json.dumps(config)[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}"
    return json.dumps(config)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=_config_texts())
def test_simulate_config_file_error_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text)
        args = ["simulate", "--config", str(path), "--no-timestamp"]
        result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1), (text, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        text, repr(result.exception))
    assert "Traceback" not in result.output and "Usage:" not in result.output, text
