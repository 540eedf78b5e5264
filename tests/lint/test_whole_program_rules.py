"""The fork-safety pass over synthetic fixture trees.

Each fixture reproduces the real module layout the pass keys off
(worker entry points reached across modules) in miniature, then mutates
one clean source per test to introduce exactly the drift the pass
exists to catch.
"""

from __future__ import annotations

from ._fixtures import make_module

FORK_RULE = ("fork-safety",)


def _mutate(src: str, old: str, new: str) -> str:
    assert old in src, f"fixture drift target {old!r} not found"
    return src.replace(old, new)


# -- fork-safety ---------------------------------------------------------

FS_SPAWN = """\
import multiprocessing as mp

from .work import entry


def launch():
    mp.Process(target=entry, args=(1,)).start()
"""

FS_WORK = """\
from .state import lookup


def entry(i):
    return lookup(i)
"""

FS_STATE = """\
import numpy as np

CACHE = {}


def memoize(i, value):
    CACHE[i] = value


def lookup(i):
    rng = np.random.default_rng()
    return CACHE.get(i, rng.standard_normal())
"""


def _fork_modules(spawn=FS_SPAWN, work=FS_WORK, state=FS_STATE):
    return [
        make_module(spawn, name="repro.fixt.spawn"),
        make_module(work, name="repro.fixt.work"),
        make_module(state, name="repro.fixt.state"),
    ]


class TestForkSafety:
    def test_cross_module_unseeded_rng(self, lint):
        result = lint(_fork_modules(), FORK_RULE)
        assert [f for f in result.findings
                if "process-divergent randomness" in f.message
                and "reachable from worker entry point 'entry'" in f.message]

    def test_mutated_container_read(self, lint):
        result = lint(_fork_modules(), FORK_RULE)
        assert [f for f in result.findings
                if "mutable container 'CACHE'" in f.message]

    def test_seeded_rng_and_unmutated_state_clean(self, lint):
        state = _mutate(FS_STATE, "np.random.default_rng()",
                        "np.random.default_rng(1234)")
        state = _mutate(state, "    CACHE[i] = value\n", "    return (i, value)\n")
        result = lint(_fork_modules(state=state), FORK_RULE)
        assert result.ok and not result.findings

    def test_global_rebinding_in_worker(self, lint):
        work = (
            "COUNT = 0\n\n\n"
            "def entry(i):\n"
            "    global COUNT\n"
            "    COUNT = i\n"
        )
        result = lint(_fork_modules(work=work, state="X = 1\n"), FORK_RULE)
        assert [f for f in result.findings
                if "rebinds module global(s) COUNT" in f.message]

    def test_initializer_global_rebinding_flagged(self, lint):
        # No initializer exemption: a pool initializer runs in the worker
        # and its per-process globals diverge like any other.
        spawn = (
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "from .work import entry\n\n\n"
            "def launch():\n"
            "    with ProcessPoolExecutor(initializer=entry) as ex:\n"
            "        pass\n"
        )
        work = (
            "STATE = None\n\n\n"
            "def entry():\n"
            "    global STATE\n"
            "    STATE = object()\n"
        )
        result = lint(_fork_modules(spawn=spawn, work=work, state="X = 1\n"),
                      FORK_RULE)
        assert [f for f in result.findings
                if "rebinds module global(s) STATE" in f.message]

    def test_local_shadowing_not_flagged(self, lint):
        state = _mutate(
            FS_STATE,
            "def lookup(i):\n"
            "    rng = np.random.default_rng()\n"
            "    return CACHE.get(i, rng.standard_normal())\n",
            "def lookup(i):\n"
            "    CACHE = {}\n"
            "    return CACHE.get(i)\n",
        )
        result = lint(_fork_modules(state=state), FORK_RULE)
        assert result.ok and not result.findings

    def test_same_module_syntactic_entry_flagged(self, lint):
        spawn = (
            "import multiprocessing as mp\n"
            "import numpy as np\n\n\n"
            "def entry(i):\n"
            "    return np.random.default_rng().standard_normal()\n\n\n"
            "def launch():\n"
            "    mp.Process(target=entry).start()\n"
        )
        result = lint([make_module(spawn, name="repro.fixt.spawn")], FORK_RULE)
        assert [f.line for f in result.findings] == [6]
        assert "is a worker entry point" in result.findings[0].message

    def test_hot_package_callee_flagged(self, lint):
        # Codec/neural/sr/core code reached by a worker is checked like
        # any other module: there is no per-package exemption.
        work = (
            "from repro.codec.fixt_noise import noise\n\n\n"
            "def entry(i):\n"
            "    return noise(i)\n"
        )
        codec = (
            "import numpy as np\n\n\n"
            "def noise(i):\n"
            "    return np.random.default_rng().standard_normal(i)\n"
        )
        modules = _fork_modules(work=work, state="X = 1\n") + [
            make_module(codec, name="repro.codec.fixt_noise")
        ]
        result = lint(modules, FORK_RULE)
        assert [(f.path, f.line) for f in result.findings] == [
            ("repro/codec/fixt_noise.py", 5)
        ]
        assert "reachable from worker entry point 'entry'" in result.findings[0].message

    def test_no_spawns_no_findings(self, lint):
        result = lint([make_module(FS_STATE, name="repro.fixt.state")], FORK_RULE)
        assert result.ok and not result.findings

    def test_partial_alias_target_resolved(self, lint):
        spawn = (
            "import multiprocessing as mp\n"
            "from functools import partial\n\n"
            "from .work import entry\n\n\n"
            "def launch(flag):\n"
            "    build = partial(entry, 2) if flag else entry\n"
            "    mp.Process(target=build).start()\n"
        )
        result = lint(_fork_modules(spawn=spawn), FORK_RULE)
        assert [f for f in result.findings
                if "reachable from worker entry point 'entry'" in f.message]
