"""Parallel session fan-out: cache-aware scheduling, identical artifacts."""

from __future__ import annotations

import ctypes
import ctypes.util
import os

import pytest

from repro.analysis import parallel
from repro.cache import artifact_path, load_or_build


def _stub_cached_session(kind, **kwargs):
    """Deterministic stand-in for experiments._cached_session that writes
    through the cache with the exact same (name, config) key scheme."""
    return load_or_build(
        f"session-{kind}",
        parallel.session_cache_key(kind, kwargs),
        lambda: {"kind": kind, "kwargs": dict(sorted(kwargs.items())), "pid_free": True},
        subdir="sessions",
    )


@pytest.fixture
def stub_sessions(monkeypatch):
    from repro.analysis import experiments

    monkeypatch.setattr(experiments, "_cached_session", _stub_cached_session)
    # workers > 1 pre-warms the shared SR weights before forking; the stub
    # sessions don't need a model.
    from repro.sr import pretrained

    monkeypatch.setattr(pretrained, "default_sr_model", lambda *a, **k: None)


TASKS = [
    ("perf", {"game_id": "G1", "device_name": "d", "design": "x", "n_frames": 4}),
    ("perf", {"game_id": "G2", "device_name": "d", "design": "x", "n_frames": 2}),
    ("quality", {"game_id": "G1", "device_name": "d", "design": "x", "n_frames": 3}),
    ("quality", {"game_id": "G2", "device_name": "d", "design": "x", "n_frames": 6}),
]


def _artifact_files(root):
    sessions = root / "sessions"
    if not sessions.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(sessions.iterdir())}


class TestWorkerCount:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SESSION_WORKERS", "3")
        assert parallel.default_worker_count() == 3

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_SESSION_WORKERS", "0")
        assert parallel.default_worker_count() == 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SESSION_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_SESSION_WORKERS"):
            parallel.default_worker_count()

    def test_default_tracks_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_SESSION_WORKERS", raising=False)
        assert 1 <= parallel.default_worker_count() <= 8


class TestRunSessionMatrix:
    def test_skips_already_cached_tasks(self, tmp_path, monkeypatch, stub_sessions):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kind, kwargs = TASKS[0]
        _stub_cached_session(kind, **kwargs)  # pre-seed one artifact
        before = artifact_path(
            f"session-{kind}", parallel.session_cache_key(kind, kwargs), subdir="sessions"
        ).stat().st_mtime_ns

        built = []
        monkeypatch.setattr(
            parallel, "_build_session", lambda task: built.append(task)
        )
        parallel.run_session_matrix(TASKS, workers=1)
        assert TASKS[0] not in built
        assert sorted(map(str, built)) == sorted(map(str, TASKS[1:]))
        after = artifact_path(
            f"session-{kind}", parallel.session_cache_key(kind, kwargs), subdir="sessions"
        ).stat().st_mtime_ns
        assert after == before  # cached artifact untouched

    def test_expensive_tasks_scheduled_first(self, tmp_path, monkeypatch, stub_sessions):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        built = []
        monkeypatch.setattr(
            parallel, "_build_session", lambda task: built.append(task)
        )
        parallel.run_session_matrix(TASKS, workers=1)
        kinds = [kind for kind, _ in built]
        assert kinds == ["quality", "quality", "perf", "perf"]
        assert built[0][1]["n_frames"] == 6  # longest quality session first

    def test_parallel_and_serial_artifacts_are_byte_identical(
        self, tmp_path, monkeypatch, stub_sessions
    ):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"

        monkeypatch.setenv("REPRO_CACHE_DIR", str(serial_dir))
        parallel.run_session_matrix(TASKS, workers=1)
        serial_files = _artifact_files(serial_dir)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(parallel_dir))
        parallel.run_session_matrix(TASKS, workers=2)
        parallel_files = _artifact_files(parallel_dir)

        # Same config keys -> same filenames; same builders -> same bytes.
        assert sorted(serial_files) == sorted(parallel_files)
        assert len(serial_files) == len(TASKS)
        for name in serial_files:
            assert serial_files[name] == parallel_files[name], name
        # No stray temp files from the worker write-through.
        assert all(name.endswith(".pkl") for name in parallel_files)

    def test_rerun_is_pure_cache_hit(self, tmp_path, monkeypatch, stub_sessions):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        parallel.run_session_matrix(TASKS, workers=2)
        built = []
        monkeypatch.setattr(
            parallel, "_build_session", lambda task: built.append(task)
        )
        parallel.run_session_matrix(TASKS, workers=2)
        assert built == []

    def test_cache_disabled_builds_everything_in_process(self, tmp_path, monkeypatch):
        """With no artifact store the driver's read-back builds every
        (design, game) cell in-process, and each exactly once."""
        from repro.analysis import experiments

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        built = []

        def run_one(game_id, device_name, design, **kwargs):
            built.append((design, game_id))
            return (design, game_id)

        monkeypatch.setattr(experiments, "_run_one_session", run_one)
        out = experiments.performance_sessions(
            "samsung_tab_s8", game_ids=("G1", "G3"), designs=("gamestreamsr", "nemo"),
            workers=4,
        )
        cells = [(d, g) for d in ("gamestreamsr", "nemo") for g in ("G1", "G3")]
        assert sorted(built) == sorted(cells)
        assert all(out[d][g] == (d, g) for d, g in cells)
        assert not (tmp_path / "sessions").exists()


def _blas_thread_getter():
    """The first loaded OpenBLAS ``*get_num_threads*`` entry point, or None."""
    for path in parallel._loaded_blas_libraries():
        lib = ctypes.CDLL(path)
        for name in parallel._OPENBLAS_THREAD_SETTERS:
            getter = getattr(lib, name.replace("set_", "get_"), None)
            if getter is not None:
                return getter
    return None


class TestBlasThreadLimit:
    def test_missing_setter_is_a_no_op(self, monkeypatch):
        # libc loads but exports no OpenBLAS setter; a missing path fails
        # to load. Neither may raise inside a pool worker's initializer.
        libc = ctypes.util.find_library("c") or "libc.so.6"
        monkeypatch.setattr(
            parallel,
            "_loaded_blas_libraries",
            lambda: [libc, "/nonexistent/libopenblas.so"],
        )
        parallel._limit_blas_threads(1)

    def test_no_blas_library_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(parallel, "_loaded_blas_libraries", lambda: [])
        parallel._limit_blas_threads(1)

    def test_sets_loaded_openblas_threads(self):
        getter = _blas_thread_getter()
        if getter is None:
            pytest.skip("numpy is not linked against an OpenBLAS with a thread setter")
        before = getter()
        try:
            parallel._limit_blas_threads(1)
            assert getter() == 1
        finally:
            parallel._limit_blas_threads(before)
        assert getter() == before


@pytest.mark.skipif(os.cpu_count() == 1, reason="needs >1 core to be meaningful")
def test_parallel_speedup_possible():  # pragma: no cover - multi-core only
    # The >= 2x-on-4-cores acceptance criterion can only be measured on a
    # multi-core machine; correctness (identical artifacts) is asserted above.
    assert parallel.default_worker_count() >= 2
