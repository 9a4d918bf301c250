"""Synthetic household generator tests: determinism, noise model,
trigger statistics, dwell statistics, validation."""

import json

import numpy as np
import pytest

from loadcast import cli, synth
from loadcast.errors import ConfigError

NAN, INF = float("nan"), float("inf")


def two_appliance_config(**kwargs):
    defaults = dict(
        appliances=[
            synth.ApplianceSpec("washer", [0.0, 2.0], [40.0, 8.0]),
            synth.ApplianceSpec(
                "dryer", [0.0, 2.5], [500.0, 12.0], trigger=synth.Trigger("washer", 1, 2, 0.9)
            ),
        ],
        length=2000,
        noise_sigma=0.1,
        spike_rate=0.0,
        include_household_total=True,
        seed=0,
    )
    defaults.update(kwargs)
    return synth.SynthConfig(**defaults)


def test_generate_deterministic_under_seed():
    config = two_appliance_config(spike_rate=0.02)
    f1, t1 = synth.generate(config)
    f2, t2 = synth.generate(two_appliance_config(spike_rate=0.02))
    np.testing.assert_array_equal(f1.values, f2.values)
    np.testing.assert_array_equal(t1.labels, t2.labels)


def test_noiseless_emission_equals_levels():
    config = two_appliance_config(noise_sigma=0.0, spike_rate=0.0)
    frame, truth = synth.generate(config)
    levels = np.array([[0.0, 2.0], [0.0, 2.5]])
    for i in range(2):
        np.testing.assert_array_equal(frame.values[:, i], levels[i][truth.labels[:, i]])


def test_household_total_is_exact_row_sum():
    frame, _ = synth.generate(two_appliance_config(noise_sigma=0.2, spike_rate=0.05))
    np.testing.assert_array_equal(frame.values[:, -1], frame.values[:, :-1].sum(axis=1))
    assert frame.variable_names[-1] == synth.HOUSEHOLD_COLUMN


def test_truth_recoverable_by_nearest_level():
    config = two_appliance_config(noise_sigma=0.0)
    frame, truth = synth.generate(config)
    for i, app in enumerate(config.appliances):
        levels = np.asarray(app.state_levels)
        nearest = np.abs(frame.values[:, i][:, None] - levels[None, :]).argmin(axis=1)
        np.testing.assert_array_equal(nearest, truth.labels[:, i])


def test_trigger_frequency_close_to_probability():
    config = two_appliance_config(length=50000, noise_sigma=0.0)
    _, truth = synth.generate(config)
    washer, dryer = truth.labels[:, 0], truth.labels[:, 1]
    onsets = np.nonzero((washer[1:] == 1) & (washer[:-1] == 0))[0] + 1
    onsets = onsets[onsets + 2 < len(washer)]
    assert len(onsets) > 300
    freq = float((dryer[onsets + 2] == 1).mean())
    assert abs(freq - 0.9) < 0.05


def test_dwell_length_empirical_means():
    config = synth.SynthConfig(
        appliances=[synth.ApplianceSpec("hvac", [0.0, 1.0, 2.2], [10.0, 5.0, 7.0])],
        length=50000,
        noise_sigma=0.0,
        seed=3,
        include_household_total=False,
    )
    _, truth = synth.generate(config)
    states = truth.labels[:, 0]
    change = np.nonzero(np.diff(states) != 0)[0] + 1
    bounds = np.concatenate([[0], change, [len(states)]])
    runs = {0: [], 1: [], 2: []}
    for a, b in zip(bounds[:-1], bounds[1:]):
        runs[int(states[a])].append(b - a)
    # drop the censored first/last runs
    runs[int(states[0])] = runs[int(states[0])][1:]
    runs[int(states[-1])] = runs[int(states[-1])][:-1]
    for state, mean in ((0, 10.0), (1, 5.0), (2, 7.0)):
        observed = float(np.mean(runs[state]))
        assert abs(observed - mean) / mean < 0.10


def test_cycle_detection_names_the_cycle():
    config = synth.SynthConfig(
        appliances=[
            synth.ApplianceSpec("a", [0.0, 1.0], [10.0, 5.0], trigger=synth.Trigger("b", 1, 1, 0.5)),
            synth.ApplianceSpec("b", [0.0, 1.0], [10.0, 5.0], trigger=synth.Trigger("a", 1, 1, 0.5)),
        ],
        length=10,
    )
    with pytest.raises(ConfigError, match="a -> b -> a|b -> a -> b"):
        synth.generate(config)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda c: setattr(c, "length", 0), "length"),
        (lambda c: setattr(c, "noise_sigma", -1.0), "noise_sigma"),
        (lambda c: setattr(c, "spike_rate", 1.5), "spike_rate"),
        (lambda c: setattr(c.appliances[0], "state_levels", [1.0]), "2-5 state levels"),
        (lambda c: setattr(c.appliances[0], "dwell_means", [5.0]), "dwell means"),
        (lambda c: setattr(c.appliances[1].trigger, "lag", 0), "lag"),
        (lambda c: setattr(c.appliances[1].trigger, "probability", 2.0), "probability"),
        (lambda c: setattr(c.appliances[1].trigger, "source", "ghost"), "ghost"),
        (lambda c: setattr(c, "noise_sigma", NAN), "noise_sigma must be finite"),
        (lambda c: setattr(c, "noise_sigma", INF), "noise_sigma must be finite"),
        (lambda c: setattr(c.appliances[0], "state_levels", [0.0, NAN]), "levels must be finite"),
        (lambda c: setattr(c.appliances[0], "state_levels", [0.0, INF]), "levels must be finite"),
        (lambda c: setattr(c.appliances[0], "dwell_means", [NAN, 8.0]), "means must be finite"),
        (lambda c: setattr(c.appliances[0], "dwell_means", [INF, 8.0]), "means must be finite"),
    ],
)
def test_config_validation_errors(mutate, message):
    config = two_appliance_config()
    mutate(config)
    with pytest.raises(ConfigError, match=message):
        synth.validate_config(config)


@pytest.mark.parametrize("name", ["", "a,b", 'a"b', "a\nb", "a\rb"])
def test_names_a_csv_header_cannot_carry_are_rejected(name):
    config = two_appliance_config()
    config.appliances[1].name = name
    with pytest.raises(ConfigError, match="is empty or holds"):
        synth.validate_config(config)


def test_duplicate_names_rejected():
    config = two_appliance_config()
    config.appliances[1].name = "washer"
    config.appliances[1].trigger = None
    with pytest.raises(ConfigError, match="duplicate"):
        synth.validate_config(config)


def test_config_from_json(tmp_path):
    path = tmp_path / "house.json"
    path.write_text(
        """
        {
          "appliances": [
            {"name": "washer", "state_levels": [0.0, 2.0], "dwell_means": [40, 8]},
            {"name": "dryer", "state_levels": [0.0, 2.5], "dwell_means": [500, 12],
             "trigger": {"source": "washer", "source_state": 1, "lag": 2, "probability": 0.9}}
          ],
          "length": 500,
          "noise_sigma": 0.05,
          "seed": 7
        }
        """,
        encoding="utf-8",
    )
    config = synth.config_from_json(path, seed=9)
    assert config.length == 500 and config.seed == 9
    assert config.appliances[1].trigger.lag == 2
    frame, truth = synth.generate(config)
    assert frame.length == 500 and truth.labels.shape == (500, 2)


APPLIANCE = {"name": "washer", "state_levels": [0.0, 2.0], "dwell_means": [40, 8]}


@pytest.mark.parametrize(
    "field",
    [{"length": "10"}, {"length": True}, {"length": 10.0}, {"seed": False}, {"seed": 1.5},
     {"noise_sigma": "0.1"}, {"noise_sigma": True}, {"spike_rate": None},
     {"include_household_total": 1}, {"include_household_total": "true"}],
)
def test_config_from_json_rejects_a_scalar_of_the_wrong_type(tmp_path, field):
    path = tmp_path / "house.json"
    path.write_text(json.dumps({"appliances": [APPLIANCE], **field}), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{path}: {next(iter(field))} must be of type"):
        synth.config_from_json(path)


def test_config_from_json_accepts_an_integer_where_a_number_is_due(tmp_path):
    path = tmp_path / "house.json"
    spec = {"appliances": [APPLIANCE], "length": 30, "noise_sigma": 1, "spike_rate": 0}
    path.write_text(json.dumps(spec), encoding="utf-8")
    config = synth.config_from_json(path)
    assert (config.length, config.noise_sigma, config.spike_rate) == (30, 1, 0)


TRIGGERED = {"name": "dryer", "state_levels": [0.0, 2.5], "dwell_means": [500, 12],
             "trigger": {"source": "washer", "source_state": 1, "lag": 2, "probability": 0.9}}


def with_trigger(**values):
    return {"appliances": [APPLIANCE, dict(TRIGGERED, trigger={**TRIGGERED["trigger"], **values})]}


@pytest.mark.parametrize(
    "spec, key",
    [(with_trigger(lag=2.7), "appliances[1].trigger.lag"),
     (with_trigger(source_state=1.9), "appliances[1].trigger.source_state"),
     (with_trigger(source_state=True), "appliances[1].trigger.source_state"),
     (with_trigger(probability="0.5"), "appliances[1].trigger.probability"),
     ({"appliances": [dict(APPLIANCE, state_levels=["0", True])]}, "appliances[0].state_levels"),
     ({"appliances": [dict(APPLIANCE, state_levels=[0, True])]}, "appliances[0].state_levels"),
     ({"appliances": [dict(APPLIANCE, state_levels="01")]}, "appliances[0].state_levels"),
     ({"appliances": [APPLIANCE, dict(TRIGGERED, trigger=False)]}, "appliances[1].trigger"),
     ({"appliances": [APPLIANCE], "lenght": 30}, "lenght"),
     ({"appliances": [dict(APPLIANCE, color="red")]}, "appliances[0].color"),
     (with_trigger(delay=1), "appliances[1].trigger.delay")],
)
def test_an_appliance_value_of_another_json_type_or_an_unknown_key_exits_2(
    tmp_path, capsys, spec, key
):
    """Every value of an appliance file has its exact JSON type (true is
    not a number, nothing is coerced) and every key is one the schema
    has; otherwise the exit is 2 and the message names the file and the key."""
    path = tmp_path / "house.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "data.csv"
    code = cli.main(["synth", "--appliances", str(path), "--out", str(out),
                     "--states-out", str(tmp_path / "truth.csv")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG, err
    assert err.startswith(f"configuration error: {path}: ") and key in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, flags, named",
    [({"length": 0}, {}, True),
     ({"appliances": [dict(APPLIANCE, dwell_means=[0.5, 8])]}, {}, True),
     ({"appliances": [dict(APPLIANCE, name=["washer"])]}, {}, True),
     ({}, {"length": 0}, False),  # only the flag is invalid
     ({"appliances": [dict(APPLIANCE, name="a,b")]}, {}, True),
     ({"appliances": [dict(APPLIANCE, dwell_means=[NAN, 8])]}, {}, True),
     ({"appliances": [dict(APPLIANCE, dwell_means=[40, INF])]}, {}, True),
     ({"appliances": [dict(APPLIANCE, state_levels=[0.0, NAN])]}, {}, True),
     ({"appliances": [dict(APPLIANCE, state_levels=[-INF, 2.0])]}, {}, True),
     ({"noise_sigma": NAN}, {}, True),
     ({}, {"noise_sigma": INF}, False)],
)
def test_invalid_values_name_the_file_when_it_holds_them(tmp_path, spec, flags, named):
    path = tmp_path / "house.json"
    path.write_text(json.dumps({"appliances": [APPLIANCE], **spec}), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        synth.config_from_json(path, **flags)
    assert str(err.value).startswith(f"{path}: ") == named


@pytest.mark.parametrize(
    "args",
    [["--noise-sigma", "nan"], ["--noise-sigma", "inf"], "dwell_means", "state_levels"],
)
def test_synth_rejects_non_finite_values_with_exit_2(tmp_path, capsys, args):
    if isinstance(args, str):  # one non-finite value in an appliance file
        spec = {"appliances": [dict(APPLIANCE, **{args: [40, NAN]})]}
        path = tmp_path / "house.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        args = ["--appliances", path]
    out = tmp_path / "data.csv"
    code = cli.main(["synth", *map(str, args), "--out", str(out),
                     "--states-out", str(tmp_path / "truth.csv")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG and "must be finite" in err, err
    assert args[0] != "--appliances" or f"{path}: " in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "file"])
def test_a_length_too_large_to_allocate_exits_2_naming_it(tmp_path, capsys, source):
    """Both lengths fail at the first allocation, before the simulation: four
    appliances' 10**18 steps pass numpy's size limit (ValueError), and one
    appliance's need 8e18 bytes, past any address space (MemoryError)."""
    length = 10**18
    args = ["--length", str(length)]
    if source == "file":
        path = tmp_path / "house.json"
        path.write_text(json.dumps({"appliances": [APPLIANCE], "length": length}), "utf-8")
        args = ["--appliances", str(path)]
    out = tmp_path / "data.csv"
    code = cli.main(["synth", *args, "--out", str(out), "--states-out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    named = f"{path}: " if source == "file" else ""
    assert code == cli.EXIT_CONFIG, err
    assert err.startswith(f"configuration error: {named}the series of length {length} these "
                          "settings ask for does not fit in memory: "), err
    assert not out.exists()


def test_a_flag_overrides_an_invalid_file_value(tmp_path):
    path = tmp_path / "house.json"
    path.write_text(json.dumps({"appliances": [APPLIANCE], "length": 0}), encoding="utf-8")
    assert synth.config_from_json(path, length=30).length == 30


def test_a_bad_file_value_is_named_beside_a_bad_flag(tmp_path, capsys):
    path = tmp_path / "app.json"
    path.write_text(json.dumps({"appliances": [APPLIANCE], "noise_sigma": -1}), encoding="utf-8")
    code = cli.main(["synth", "--appliances", str(path), "--length", "0",
                     "--out", str(tmp_path / "data.csv"), "--states-out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err == f"configuration error: {path}: noise_sigma must be finite and >= 0, got -1\n"
    assert not (tmp_path / "data.csv").exists()


def test_a_flag_that_makes_the_file_values_valid_is_accepted(tmp_path):
    path = tmp_path / "house.json"
    spec = {"appliances": [dict(APPLIANCE, name=synth.HOUSEHOLD_COLUMN)], "length": 30}
    path.write_text(json.dumps(spec), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{path}: appliance name 'household' collides"):
        synth.config_from_json(path)
    assert not synth.config_from_json(path, include_household_total=False).include_household_total


def test_benchmark_household_is_valid():
    config = synth.benchmark_household(seed=1, length=300)
    frame, truth = synth.generate(config)
    assert frame.n_variables == 9  # 8 appliances + household total
    assert truth.labels.shape == (300, 8)
