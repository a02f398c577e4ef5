"""Round-trip tests for the data-file catalogue.

Every catalogue document must survive JSON and file round trips unchanged
(its build against the former python builder's digest is pinned in
``test_campaign_golden.py``).  Schema evolution is exercised too: unknown
fields fail loudly with their full path instead of being silently dropped.
"""

import json

import pytest

from repro.scale.catalogue import CATALOGUE, CATALOGUE_DATA_DIR, scenario_names
from repro.scale.config import (
    ConfigError,
    ScenarioConfig,
    dump_config,
    load_config,
)


def test_data_files_cover_the_catalogue_in_order():
    files = sorted(CATALOGUE_DATA_DIR.glob("*.json"))
    assert [load_config(path).name for path in files] == scenario_names()


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_document_round_trips_through_json(name):
    config = CATALOGUE[name]
    assert ScenarioConfig.from_json(config.to_json()) == config


def test_file_round_trip(tmp_path):
    config = CATALOGUE["flash_crowd"]
    path = tmp_path / "flash_crowd.json"
    dump_config(config, path)
    assert load_config(path) == config
    assert path.read_text(encoding="utf-8") == config.to_json()


def test_unknown_top_level_field_fails_with_path():
    data = CATALOGUE["flash_crowd"].to_dict()
    data["surprise_knob"] = 3
    with pytest.raises(ConfigError, match="surprise_knob") as excinfo:
        ScenarioConfig.from_dict(data)
    assert excinfo.value.field_path == "surprise_knob"


def test_unknown_nested_field_fails_with_path():
    data = CATALOGUE["flash_crowd"].to_dict()
    data["fleet"]["coolness"] = "max"
    with pytest.raises(ConfigError, match="unknown field") as excinfo:
        ScenarioConfig.from_dict(data)
    assert excinfo.value.field_path == "fleet.coolness"


def test_unknown_kind_fails_with_path():
    data = CATALOGUE["flash_crowd"].to_dict()
    data["load"]["kind"] = "warp_drive"
    with pytest.raises(ConfigError, match="warp_drive") as excinfo:
        ScenarioConfig.from_dict(data)
    assert excinfo.value.field_path == "load.kind"


def test_future_schema_version_is_rejected():
    data = CATALOGUE["flash_crowd"].to_dict()
    data["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema version") as excinfo:
        ScenarioConfig.from_dict(data)
    assert excinfo.value.field_path.endswith("schema_version")


def test_data_files_are_canonical_json():
    # The on-disk bytes are exactly what dump_config would write today, so
    # a codec change that silently re-shapes the documents fails here.
    for path in sorted(CATALOGUE_DATA_DIR.glob("*.json")):
        config = load_config(path)
        assert path.read_text(encoding="utf-8") == config.to_json(), path.name
        # and the document is stable plain JSON
        assert json.loads(config.to_json()) == config.to_dict()
