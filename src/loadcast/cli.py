"""Command-line entry points.

Subcommands: synth, label, train-msp, train, eval, compare, pipeline,
config. Run-wide settings come from built-in defaults, overridden by an
optional key=value config file (--config), overridden by flags.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import Field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import forecaster as fc
from . import labeling, metrics, msp, synth
from .data import SeriesFrame, save_csv
from .errors import ConfigError, DataError, NumericError, ShapeError, layered, prefix_errors
from .errors import reading
from .pipeline import (
    RunConfig,
    evaluate_forecaster,
    load_data,
    prepare_windows,
    run_pipeline,
    train_forecaster,
    train_teacher,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _parse_horizons(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _parser(f: Field) -> Callable[[str], object]:
    """How a RunConfig field's flag or config-file value is read: by the
    type of its default."""
    return _parse_horizons if f.name == "horizons" else type(f.default)


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with reading(path, error=ConfigError):
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    return values


def merge_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults <- config file <- explicit flags (flags win), layered by errors.layered."""
    path = getattr(args, "config", None)
    text = _load_config_file(path) if path else {}
    flags, file_values = {}, {}
    for f in fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            flags[f.name] = getattr(args, f.name)
        elif f.name in text:
            try:
                file_values[f.name] = _parser(f)(text[f.name])
            except (ValueError, argparse.ArgumentTypeError):
                message = f"config key {f.name!r}: cannot parse {text[f.name]!r}"
                raise ConfigError(f"{path}: {message}") from None
    unknown = set(text) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    return layered(RunConfig, file_values, flags, path)


# the flags that are not --<field with - for _>, and the help of some flags
_FLAG_NAMES = {"data_csv": "--data", "states_csv": "--states"}
_FLAG_HELP = {
    "data_csv": "load series CSV",
    "states_csv": "state labels CSV",
    "w": "labeling window size",
}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """--config, then one flag per RunConfig field, read as merge_run_config
    reads that field from a config file."""
    p.add_argument("--config", help="key=value config file; flags override it")
    for f in fields(RunConfig):
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        p.add_argument(flag, dest=f.name, type=_parser(f), help=_FLAG_HELP.get(f.name))


def _check_out(path: str) -> None:
    """Fail before any work when --out cannot be written for want of its
    directory."""
    parent = Path(path).parent
    if not parent.is_dir():
        raise ConfigError(f"cannot write {path}: no directory {parent}")


def cmd_synth(args: argparse.Namespace) -> int:
    _check_out(args.out)
    _check_out(args.states_out)
    keys = ("length", "noise_sigma", "spike_rate", "seed")
    overrides = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    if args.no_household_total:
        overrides["include_household_total"] = False
    if args.appliances:
        config = synth.config_from_json(args.appliances, **overrides)
    else:
        config = replace(synth.default_household(), **overrides)
    frame, truth = synth.generate(config)
    save_csv(frame, args.out)
    n_apps = len(config.appliances)
    truth_frame = SeriesFrame(
        frame.timestamps, frame.values[:, :n_apps], frame.variable_names[:n_apps]
    )
    labeling.save_states_csv(truth, truth_frame, args.states_out)
    print(f"wrote {args.out} ({frame.length} rows, {frame.n_variables} columns)")
    print(f"wrote {args.states_out} (+ sidecar)")
    return EXIT_OK


def cmd_label(args: argparse.Namespace) -> int:
    config = merge_run_config(args)
    _check_out(args.out)
    frame = load_data(config)
    with prefix_errors(f"{config.data_csv}: "):
        profile = labeling.identify_states(
            frame, w=config.w, min_s=config.min_s, max_s=config.max_s, seed=config.seed
        )
    labeling.save_states_csv(profile, frame, args.out)
    counts = ",".join(str(int(n)) for n in profile.counts)
    print(f"wrote {args.out} (+ sidecar); states per variable: {counts}")
    return EXIT_OK


def cmd_train_msp(args: argparse.Namespace) -> int:
    config = merge_run_config(args)
    _check_out(args.out)
    _, profile, _, windows = prepare_windows(config, [args.horizon])
    train_w, val_w, _ = windows[args.horizon]
    model, history = train_teacher(config, args.horizon, profile.counts, train_w, val_w)
    msp.save_msp(model, args.out)
    print(
        f"wrote {args.out} (best val loss {history.best_val_loss:.6f} "
        f"at epoch {history.best_epoch}/{history.stopped_epoch})"
    )
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = merge_run_config(args)
    _check_out(args.out)
    frame, _, _, windows = prepare_windows(config, [args.horizon], read_states=False)
    train_w, val_w, _ = windows[args.horizon]
    teacher = msp.load_msp(args.msp) if args.msp else None
    # the forecaster is built for these windows; only a teacher's geometry can differ
    with prefix_errors(f"checkpoint {args.msp} does not fit {config.data_csv}: ", ShapeError):
        model, history = train_forecaster(
            config, args.horizon, frame.n_variables, train_w, val_w, teacher
        )
    fc.save_forecaster(model, args.out)
    mode = "plain" if teacher is None else "guided"
    print(
        f"wrote {args.out} ({mode}, best val MAE {history.best_val_loss:.6f} "
        f"at epoch {history.best_epoch}/{history.stopped_epoch})"
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config = merge_run_config(args)
    _check_out(args.out)
    model = fc.load_forecaster(args.model)
    horizon = model.config.horizon
    # the checkpoint fixes both; a flag that names others is a mistake
    if args.lookback is not None and args.lookback != model.config.lookback:
        raise ConfigError(
            f"--lookback {args.lookback} does not match {args.model} (lookback {model.config.lookback})"
        )
    if args.horizons is not None and args.horizons != [horizon]:
        flag = ",".join(str(h) for h in args.horizons)
        raise ConfigError(f"--horizons {flag} does not match {args.model} (horizon {horizon})")
    config.lookback = model.config.lookback
    _, _, stats, windows = prepare_windows(config, [horizon], read_states=False)
    test_w = windows[horizon][2]
    # any stored weights load, so weights that overflow are found here, as scores that are not finite
    with prefix_errors(f"checkpoint {args.model} does not fit {config.data_csv}: ", ShapeError):
        with np.errstate(over="ignore", invalid="ignore"):
            m, mp, mr, mpr = evaluate_forecaster(model, test_w, stats)
    if not all(map(math.isfinite, (m, mp, mr, mpr))):
        raise DataError(
            f"checkpoint {args.model} gives forecasts that are not finite on {config.data_csv}"
        )
    report = metrics.EvalReport([horizon], [m], [mp], [mr], [mpr])
    metrics.save_report_csv(report, args.out)
    print(f"wrote {args.out} (H={horizon}: mae {m:.6f}, mape_sym {mp:.6f})")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    baseline = metrics.load_report_csv(args.baseline)
    treated = metrics.load_report_csv(args.treated)
    with prefix_errors(f"{args.baseline} vs {args.treated}: "):
        improvement = metrics.percent_improvement(baseline, treated)
    metrics.save_comparison_csv(baseline, treated, improvement, args.out)
    print(
        f"wrote {args.out} (avg improvement: mae {improvement.average['mae']:.3f}%, "
        f"mape_sym {improvement.average['mape_sym']:.3f}%)"
    )
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = merge_run_config(args)
    result = run_pipeline(config)
    for name, path in result.paths.items():
        print(f"wrote {path}")
    print(
        f"avg improvement: mae {result.improvement.average['mae']:.3f}%, "
        f"mape_sym {result.improvement.average['mape_sym']:.3f}%"
    )
    return EXIT_OK


def cmd_config(args: argparse.Namespace) -> int:
    config = merge_run_config(args)
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if f.name == "horizons":
            value = ",".join(str(h) for h in value)
        print(f"{f.name}={value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --horizon must not
    # be read as another command's --horizons
    parser = argparse.ArgumentParser(
        prog="loadcast",
        description="Residential load forecasting with appliance-state labeling "
        "and event-guided training",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, allow_abbrev=False)

    p = command("synth", "generate a synthetic household data + truth CSV pair")
    p.add_argument("--out", default="data.csv")
    p.add_argument("--states-out", default="truth_states.csv")
    p.add_argument("--appliances", help="JSON appliance spec file (default: built-in household)")
    p.add_argument("--length", type=int)
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma")
    p.add_argument("--spike-rate", type=float, dest="spike_rate")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-household-total", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = command("label", "cluster per-variable states and write the label CSV")
    _add_run_flags(p)
    p.add_argument("--out", default="states.csv")
    p.set_defaults(func=cmd_label)

    p = command("train-msp", "train the state predictor at one horizon")
    _add_run_flags(p)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--out", default="msp.json")
    p.set_defaults(func=cmd_train_msp)

    p = command("train", "train a forecaster (guided when --msp is given)")
    _add_run_flags(p)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--msp", help="frozen state-predictor checkpoint for guided training")
    p.add_argument("--out", default="forecaster.json")
    p.set_defaults(func=cmd_train)

    p = command("eval", "evaluate a forecaster checkpoint on the test split")
    _add_run_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default="report.csv")
    p.set_defaults(func=cmd_eval)

    p = command("compare", "percent improvement between two report CSVs")
    p.add_argument("--baseline", required=True)
    p.add_argument("--treated", required=True)
    p.add_argument("--out", default="comparison.csv")
    p.set_defaults(func=cmd_compare)

    p = command("pipeline", "full run: teacher + plain/guided forecasters per horizon")
    _add_run_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = command("config", "print the effective configuration")
    _add_run_flags(p)
    p.set_defaults(func=cmd_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # stdout's reader left after the command's work was done
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # input files are read under errors.reading; this is an output
        print(f"configuration error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
