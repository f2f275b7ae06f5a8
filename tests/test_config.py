import pytest

from chargesim.config import (
    SCHEMA,
    SEED_ENV_VAR,
    describe_schema,
    parse_config_file,
    resolve_options,
    scenario_from_options,
)
from chargesim.errors import ConfigError


def test_parse_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment line\n"
        "\n"
        "n_ev = 250   # trailing comment\n"
        "mode = blind\n"
        "speed_thresholds_kph = 60, 40\n"
        "route_scale = 0.9\n"
    )
    vals = parse_config_file(str(cfg))
    assert vals == {
        "n_ev": 250,
        "mode": "blind",
        "speed_thresholds_kph": (60.0, 40.0),
        "route_scale": 0.9,
    }


def test_parse_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(str(tmp_path / "nope.cfg"))

    bad_key = tmp_path / "k.cfg"
    bad_key.write_text("n_ev = 5\nwheels = 4\n")
    with pytest.raises(ConfigError, match="line 2: unknown key"):
        parse_config_file(str(bad_key))

    bad_value = tmp_path / "v.cfg"
    bad_value.write_text("n_ev = lots\n")
    with pytest.raises(ConfigError, match="line 1: bad value for n_ev"):
        parse_config_file(str(bad_value))

    no_eq = tmp_path / "e.cfg"
    no_eq.write_text("just words\n")
    with pytest.raises(ConfigError, match="line 1: expected key = value"):
        parse_config_file(str(no_eq))


def test_resolution_precedence():
    opts = resolve_options({"n_ev": 50, "seed": 4}, {"n_ev": 70, "replicates": None})
    assert opts["n_ev"] == 70  # flag beats file
    assert opts["seed"] == 4  # file beats default
    assert opts["replicates"] == 1  # None overrides are ignored
    assert opts["mode"] == "aware"


def test_seed_env_var(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert resolve_options({}, {})["seed"] == 0
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    assert resolve_options({}, {})["seed"] == 99
    assert resolve_options({"seed": 3}, {})["seed"] == 3  # explicit wins
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(ConfigError, match=SEED_ENV_VAR):
        resolve_options({}, {})


def test_mode_long_forms():
    assert resolve_options({}, {"mode": "reservation-blind"})["mode"] == "blind"
    assert resolve_options({}, {"mode": "Reservation-Aware"})["mode"] == "aware"
    with pytest.raises(ConfigError, match="unknown mode"):
        scenario_from_options(resolve_options({}, {"mode": "clairvoyant"}))


def test_scenario_from_options():
    opts = resolve_options({}, {"n_ev": 5, "seed": 1, "route_scale": 0.9})
    cfg = scenario_from_options(opts)
    assert cfg.n_ev == 5
    assert cfg.ev.route_scale == 0.9
    assert cfg.speed_thresholds_kph == (60.0, 40.0, 10.0)

    bad = resolve_options({}, {"reserve_soc": 0.95})  # above charge target
    with pytest.raises(ConfigError):
        scenario_from_options(bad)


def test_describe_schema_covers_every_key():
    text = describe_schema()
    for key in SCHEMA:
        assert key in text
