"""Command-line front end: reproducible analysis and simulation runs.

Every subcommand is registered through ``command()``, which owns the
boundary they share: the --no-timestamp and --output options, the JSON
envelope (tool version, an echo of the inputs, the seed where one applies,
a timestamp unless --no-timestamp asks for byte-identical reruns, the
result), emission, and the exit codes: 0 success, 1 usage or input error
(any ValueError, or an OSError reading or writing a file), 2 numerical
non-convergence (CrossingError).  A bad option prints click's usage
banner; a file fault -- an OSError, or a malformed --config file
(ConfigError) or one nested too deeply to echo -- prints one Error: line.
A command body parses its own options, raising ValueError on bad input as
the library does, calls the library and returns its inputs and result, or
finished CSV text.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import click

from . import __version__, security, simulate
from .cloner import ClonerParams, phi_cloner_matrix
from .jsonio import dumps, jsonable
from .qudit import TWO_PI, optimal_bases
from .security import CrossingError

click.UsageError.exit_code = 1  # usage errors are exit 1; exit 2 means non-convergence


class ConfigError(ValueError):
    """The contents of a --config file are malformed; the flags are fine."""


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def _csv_writer(fh, header: list[str]):
    """A ``csv.writer`` on ``fh`` that has written the header row."""
    writer = csv.writer(fh)
    writer.writerow(header)
    return writer


def _csv(header: list[str], rows) -> str:
    """CSV text; numbers to 10 significant digits, None as an empty field."""
    buf = io.StringIO()
    writer = _csv_writer(buf, header)
    for row in rows:
        writer.writerow(v if isinstance(v, str) else "" if v is None else f"{v:.10g}"
                        for v in row)
    return buf.getvalue().rstrip("\n")


def _parse_params(spec: str) -> ClonerParams:
    try:
        parts = [float(p) for p in spec.split(",")]
    except ValueError:
        raise ValueError(f"expected numbers v,x,y[,z], got {spec!r}") from None
    if len(parts) == 3:
        v, x, y = parts
        return ClonerParams(v, x, y, y)
    if len(parts) == 4:
        return ClonerParams(*parts)
    raise ValueError(f"expected v,x,y[,z], got {spec!r}")


def _optimal_attack_params() -> ClonerParams:
    res = security.crossing_point("3deb")
    return res.cloner_params().normalized()


def _parse_channel(spec: str) -> simulate.Channel:
    low = spec.strip().lower()
    if low == "ideal":
        return simulate.DepolarizingChannel(1.0)
    if low.startswith(("depol:", "depolarizing:")):
        try:
            v = float(low.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad visibility in {spec!r}") from None
        return simulate.DepolarizingChannel(v)
    if low.startswith("clone:"):
        arg = spec.split(":", 1)[1]
        if arg.strip().lower() == "optimal":
            return simulate.CloningAttackChannel(_optimal_attack_params())
        return simulate.CloningAttackChannel(_parse_params(arg).normalized())
    raise ValueError(
        f"unknown channel {spec!r}; use ideal, depol:V or clone:v,x,y[,z]|optimal")


def _parse_sifting(spec: str) -> simulate.PairedIndexSifting:
    low = spec.strip().lower()
    if low == "same":
        return simulate.PairedIndexSifting()
    if low.startswith("pairs:"):
        try:
            pairs = tuple(
                tuple(int(t) for t in chunk.split("-"))
                for chunk in low.split(":", 1)[1].split(","))
            return simulate.PairedIndexSifting(tuple((i, j) for i, j in pairs))
        except (ValueError, TypeError):
            raise ValueError(f"bad sifting spec {spec!r}") from None
    raise ValueError(f"unknown sifting rule {spec!r}; use same or pairs:i-j,...")


def _parse_weights(flag: str, spec: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in spec.split(","))
    except ValueError:
        raise ValueError(f"{flag} takes four comma-separated numbers, got {spec!r}") from None


base_option = click.option("--base", type=click.Choice(["2", "3", "e"]), default="2",
                           show_default=True, help="Log base for information values.")


@click.group()
@click.version_option(version=__version__, prog_name="qkdlab")
def main():
    """Security analysis and simulation of the qutrit entanglement protocol."""


def command(name: str):
    """Register the decorated body as subcommand ``name`` of ``main``.

    The body takes its own options and returns ``(inputs, result[, seed])``,
    emitted as the JSON envelope, or finished text, emitted as it is.
    """
    def register(body):
        @functools.wraps(body)
        def run(no_timestamp, output, **options):
            try:
                out = body(**options)
                if not isinstance(out, str):
                    inputs, result, *seed = out
                    env = {"command": name, "version": __version__,
                           "inputs": dict(inputs), "seed": seed[0] if seed else None}
                    if not no_timestamp:
                        env["timestamp"] = datetime.now(timezone.utc).isoformat()
                    env["result"] = result
                    out = dumps(env)
                _emit(out, output)
            except CrossingError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            except (OSError, ConfigError) as exc:
                raise click.ClickException(str(exc))
            except RecursionError:  # the envelope nests an echoed config two levels deeper
                raise click.ClickException("input nested too deeply to echo") from None
            except ValueError as exc:
                raise click.UsageError(str(exc))

        cmd = main.command(name)(run)
        cmd.params += [
            click.Option(["--no-timestamp"], is_flag=True,
                         help="Omit the timestamp for byte-identical reruns."),
            click.Option(["--output"], type=click.Path(dir_okay=False), default=None,
                         help="Write to a file instead of stdout."),
        ]
        return cmd
    return register


@command("bases")
def bases():
    """Print the four protocol bases and their dodecagon structure."""
    specs = optimal_bases()
    result = {
        "phis": [b.phi for b in specs],
        "bases": [
            {
                "index": i,
                "phi": b.phi,
                "states": b.matrix().T,
            }
            for i, b in enumerate(specs)
        ],
        "dodecagon_angles": sorted(
            (TWO_PI * l / 3 + b.phi) % TWO_PI
            for b in specs for l in range(3)),
    }
    return {}, result


@command("cloner-eval")
@click.option("--params", "params_spec", required=True,
              help="Cloner parameters v,x,y[,z] (a given z must equal y), or 'optimal'.")
@click.option("--normalize/--no-normalize", default=True, show_default=True,
              help="Rescale the parameters onto the normalization surface.")
@base_option
def cloner_eval(params_spec, normalize, base):
    """Fidelities, disturbances and information quantities of one cloner."""
    if params_spec.strip().lower() == "optimal":
        params = _optimal_attack_params()
    else:
        params = _parse_params(params_spec)
        if normalize:
            params = params.normalized()
        else:
            params.require_normalized(remedy="drop --no-normalize to rescale")
    result = asdict(security.info_report(params, base=base))
    result["amplitude_matrix"] = phi_cloner_matrix(params).a
    inputs = {"params": {"v": params.v, "x": params.x, "y": params.y, "z": params.z},
              "base": base, "normalize": normalize}
    return inputs, result


@command("crossing")
@click.option("--preset", default="3deb", show_default=True,
              help="Protocol preset: 3deb, universal, 2mub or qubit.")
@base_option
def crossing(preset, base):
    """Solve for the information crossing point of a protocol preset."""
    preset_obj = security.resolve_preset(preset)
    result = security.crossing_point(preset_obj, base=base)
    return {"preset": preset_obj.name, "base": base}, result


@command("symmetric")
def symmetric():
    """Largest fidelity at which both clones are equally good."""
    return {"preset": "3deb"}, security.symmetric_point("3deb")


@command("thresholds")
def thresholds():
    """Visibility/fidelity threshold constants and their relations."""
    return {}, security.thresholds()


@command("table")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def table(fmt):
    """Acceptable-error-rate comparison across the four protocols."""
    rows = security.error_rate_table()
    if fmt == "csv":
        return _csv(["protocol", "f_a_star", "error_rate", "paper_value", "delta"],
                    ([r.protocol, r.f_a_star, r.error_rate, r.paper_value, r.delta]
                     for r in rows))
    return {"format": fmt}, rows


@command("simulate")
@click.option("--rounds", type=int, default=None, help="Number of protocol rounds.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--channel", "channel_spec", default="ideal", show_default=True,
              help="ideal | depol:V | clone:v,x,y[,z] | clone:optimal")
@click.option("--sifting", "sifting_spec", default="same", show_default=True,
              help="same | pairs:i-j,i-j,...")
@click.option("--alice-weights", default=None, help="Four comma-separated weights.")
@click.option("--bob-weights", default=None, help="Four comma-separated weights.")
@click.option("--config", "config_path", default=None,
              help="Read the whole SimConfig from a JSON file instead.")
@click.option("--dump-csv", type=click.Path(dir_okay=False), default=None,
              help="Write per-round (round,basis_i,basis_j,a,b) rows to a CSV file.")
def simulate_cmd(rounds, seed, channel_spec, sifting_spec, alice_weights, bob_weights,
                 config_path, dump_csv):
    """Run one Monte Carlo session and report its statistics."""
    if config_path is not None:
        try:
            with open(config_path) as fh:
                data = json.load(fh)
            config = simulate.SimConfig.from_json(data)
            channel_spec = jsonable(data.get("channel", {"type": "ideal"}))
            sifting_spec = jsonable(data.get("sifting", {"rule": "same"}))
        except RecursionError:  # json, repr and the echo recurse once per nesting level
            raise ConfigError(f"config {config_path!r} is nested too deeply") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    elif rounds is None:
        raise ValueError("--rounds is required (or pass --config)")
    else:
        weights = {f"{who}_weights": _parse_weights(f"--{who}-weights", spec)
                   for who, spec in (("alice", alice_weights), ("bob", bob_weights))
                   if spec is not None}
        config = simulate.SimConfig(rounds=rounds, seed=seed,
                                    channel=_parse_channel(channel_spec),
                                    sifting=_parse_sifting(sifting_spec), **weights)

    if dump_csv:
        # integer rows, written as each chunk of rounds is sampled
        with open(dump_csv, "w", newline="") as fh:
            writer = _csv_writer(fh, ["round", "basis_i", "basis_j", "a", "b"])
            result = simulate.run_session(
                config, on_rounds=lambda rows: writer.writerows(rows.tolist()))
    else:
        result = simulate.run_session(config)

    payload = {
        "rounds": result.rounds,
        "sifted_count": result.sifted_count,
        "sifted_fraction": result.sifted_fraction,
        "qber": result.qber,
        "qber_se": result.qber_se,
        "basis_correlation_matrix": result.basis_correlation_matrix,
        "empirical_i_ae": result.empirical_i_ae,
        "raw_counts": result.raw_counts,
    }
    inputs = {"rounds": config.rounds, "channel": channel_spec,
              "sifting": sifting_spec, "alice_weights": config.alice_weights,
              "bob_weights": config.bob_weights}
    if config_path is not None:
        inputs["config"] = config_path
    return inputs, payload, config.seed


@command("survey")
@click.option("--rounds", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def survey(rounds, seed):
    """Enumerate basis pairs with perfect (relabeled) correlations."""
    result = simulate.basis_correlation_survey(simulate.SimConfig(rounds=rounds, seed=seed))
    payload = {
        "exact": result.exact,
        "empirical": result.empirical,
        "perfect_pairs": [list(p) for p in result.perfect_pairs],
        "conjugate_pairing": {str(j): i for j, i in result.conjugate_pairing.items()},
    }
    return {"rounds": rounds}, payload, seed


@command("sweep")
@click.option("--preset", default="3deb", show_default=True)
@click.option("--start", type=float, default=0.70, show_default=True)
@click.option("--stop", type=float, default=0.85, show_default=True)
@click.option("--points", type=int, default=151, show_default=True)
@base_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def sweep(preset, start, stop, points, base, fmt):
    """Best-attack information along a fidelity grid (plot-ready)."""
    preset_obj = security.resolve_preset(preset)
    rows = security.information_sweep(preset_obj, start, stop, points, base=base)
    if fmt == "json":
        inputs = {"preset": preset_obj.name, "start": start, "stop": stop,
                  "points": points, "base": base}
        return inputs, rows
    names = list(preset_obj.free_params)
    return _csv(["f_a", "f_b", "i_ab", "i_ae", "r_bound"] + names,
                ([r["f_a"], r["f_b"], r["i_ab"], r["i_ae"], r["r_bound"]]
                 + [r["params"][p] for p in names] for r in rows))


if __name__ == "__main__":
    main()
