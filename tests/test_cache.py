"""Content-addressed artifact cache."""

from __future__ import annotations

from repro.cache import (
    artifact_path,
    cache_dir,
    cache_disabled,
    config_key,
    load_or_build,
)


def test_config_key_stable_and_order_insensitive():
    assert config_key({"a": 1, "b": 2}) == config_key({"b": 2, "a": 1})
    assert config_key({"a": 1}) != config_key({"a": 2})


def test_load_or_build_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    calls = []

    def builder():
        calls.append(1)
        return {"value": 42}

    a = load_or_build("thing", {"x": 1}, builder)
    b = load_or_build("thing", {"x": 1}, builder)
    assert a == b == {"value": 42}
    assert len(calls) == 1  # second call hit the cache


def test_different_config_rebuilds(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert load_or_build("t", {"x": 1}, lambda: 1) == 1
    assert load_or_build("t", {"x": 2}, lambda: 2) == 2


def test_cache_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert cache_dir() == tmp_path / "custom"
    assert cache_dir().is_dir()


def test_corrupt_artifact_rebuilds(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    path = artifact_path("t", {"x": 1})
    path.parent.mkdir(parents=True)
    path.write_bytes(b"\x04not a pickle")
    assert load_or_build("t", {"x": 1}, lambda: "rebuilt") == "rebuilt"
    # The corrupt file was replaced and now round-trips.
    assert load_or_build("t", {"x": 1}, lambda: "never called") == "rebuilt"


def test_cache_disable_env_bypasses_read_and_write(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    assert cache_disabled()
    calls = []

    def builder():
        calls.append(1)
        return "fresh"

    assert load_or_build("t", {"x": 1}, builder) == "fresh"
    assert load_or_build("t", {"x": 1}, builder) == "fresh"
    assert len(calls) == 2  # no read-back
    assert not artifact_path("t", {"x": 1}).exists()  # no write-through


def test_no_temp_files_left_behind(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    load_or_build("t", {"x": 1}, lambda: list(range(100)))
    leftovers = [p for p in (tmp_path / "artifacts").iterdir() if p.suffix != ".pkl"]
    assert leftovers == []
