import hashlib
import json
import math
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab import security
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
    # 300000 rounds span two chunks and part of a third
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


# sha256 of the --no-timestamp output of the analysis commands.  `table`
# and the universal crossing and sweep were recorded before the inner
# maximizer became one preset-driven routine and still reproduce every
# byte.  The other seven were recorded when the search moved onto the angle
# chart of each preset's fixed-fidelity ellipsoid; that changed their float
# paths, and test_analysis_outputs_match_reference bounds the change.
ANALYSIS_SHA256 = {
    "table --format json":
        "4e833ed2b656ecb2801bf95045d70c8c5c8b5d5cbd2f9e17ee8832063d7ddbfe",
    "crossing --preset 3deb":
        "207ba716ef77c08ad00dbfef1f2224f631530e3d74c56bfd9f72328d6185b087",
    "crossing --preset universal":
        "54a5b20da16d95dd2d32a90100fc844f7894038173039d4e330baaf4058ef57a",
    "crossing --preset 2mub":
        "ffdbfdcd9a93e78e148abd5af43d4bc42c74dba92e90695ef9e9bf447298a7c0",
    "crossing --preset qubit":
        "699226f54676ba6b6001b39754cf4581e19161ba0c680a367f9520543b0e82c1",
    "symmetric":
        "6ef75e79ef665dde268535532ded971c9768ff3e19c389f50d894aab60e8c8aa",
    "sweep --preset 3deb --points 7 --format csv":
        "e875a47c40511db392b3cc919c9441e549e71ff56e118ce226f89276d0b0accc",
    "sweep --preset universal --points 7 --format csv":
        "2dc9a74ce563393911bfd47a979085451a132ef87940573e981020a4f55d8cc0",
    "sweep --preset 2mub --points 7 --format csv":
        "a886a7a10afd4e72c5a47ed8036bc3cba6338e06f15acdd59dfb3438b8389fca",
    "sweep --preset qubit --start 0.80 --stop 0.90 --points 7 --format csv":
        "6c7bf8c2cdafdc2b209fa4a5075585560699f41040c7c18e5e9e9a09c31155bc",
}


@pytest.mark.parametrize("args", list(ANALYSIS_SHA256))
def test_analysis_outputs_byte_identical(runner, args):
    result = runner.invoke(main, args.split() + ["--no-timestamp"])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == ANALYSIS_SHA256[args]


# the same seven outputs as printed by the compass search over Cartesian
# amplitudes, before the angle chart
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


@pytest.mark.parametrize("spec", ["0,0,0", "nan,0,0", "0,0,0,0", "1e200,0,0", "inf,0,0"])
def test_simulate_clone_degenerate_params_exit_1(runner, spec):
    result = runner.invoke(main, ["simulate", "--rounds", "10", "--channel", f"clone:{spec}"])
    assert_usage_error(result, "finite, nonzero norm")


@pytest.mark.parametrize("spec", ["0,0,0", "nan,0,0", "1e200,0,0"])
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


@pytest.mark.parametrize("config,message", [
    ({"seed": 5}, "missing 'rounds'"),
    ({"rounds": 3000}, "missing 'seed'"),
    ({"rounds": "3000", "seed": 5}, "'rounds' must be an integer"),
    ({"rounds": 3000, "seed": None}, "'seed' must be an integer"),
    ({"rounds": 3000, "seed": 5, "channel": {"type": "depolarizing"}}, "missing 'visibility'"),
    ({"rounds": 3000, "seed": 5, "channel": {"type": "cloning", "params": [0, 0, 0, 0]}},
     "normalization surface"),
    ({"rounds": 3000, "seed": 5, "alice_weights": None}, "wrong type"),
    ({"rounds": 3000, "seed": 5, "alice_weights": [math.nan, 0, 0, 1]},
     "alice_weights must be 4 nonnegative weights"),
], ids=["no-rounds", "no-seed", "string-rounds", "null-seed", "no-visibility",
        "zero-params", "null-weights", "nan-weights"])
def test_simulate_malformed_config_exits_1(runner, tmp_path, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(main, ["simulate", "--config", str(path)])
    assert_usage_error(result, message)


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


def test_cloner_eval_identity(runner):
    payload = run_json(runner, ["cloner-eval", "--params", "1,0,0",
                                "--base", "3", "--no-timestamp"])
    res = payload["result"]
    assert res["f_a"] == 1.0
    assert abs(res["r_bound"] - 1.0) <= 1e-9
    assert res["log_base"] == "3"


def test_cloner_eval_amplitude_matrix_roundtrip(runner):
    from qkdlab.cloner import AmplitudeMatrix, ClonerParams, phi_cloner_matrix
    payload = run_json(runner, ["cloner-eval", "--params", "0.8320,0.1711,0.2038",
                                "--no-timestamp"])
    mat = AmplitudeMatrix.from_json(payload["result"]["amplitude_matrix"])
    expected = phi_cloner_matrix(
        ClonerParams(0.8320, 0.1711, 0.2038, 0.2038).normalized())
    assert abs(mat.norm_squared - 1.0) <= 1e-9  # 10-digit serialization
    import numpy as np
    assert np.max(np.abs(mat.a - expected.a)) <= 1e-9


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
@given(preset=st.sampled_from(["3deb", "qubit"]), points=st.integers(-1, 3),
       start=st.one_of(st.floats(), st.floats(0.3, 1.0)),
       stop=st.one_of(st.floats(), st.floats(0.3, 1.0)))
def test_sweep_error_contract(preset, points, start, stop):
    assert_contract(CliRunner(), ["sweep", f"--preset={preset}", f"--points={points}",
                                  f"--start={start!r}", f"--stop={stop!r}"])


@_CONTRACT
@given(preset=st.one_of(_TEXT, st.sampled_from(["3deb", "3DEB", "universal", "12-State",
                                                "2mub", "3D-BB84", "3d-bb84",
                                                "qubit", "EKERT91"])))
def test_crossing_error_contract(preset):
    assert_contract(CliRunner(), ["crossing", f"--preset={preset}", "--no-timestamp"])
