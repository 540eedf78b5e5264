"""Single-module fixture snippets for both rules.

Every snippet is linted in memory under a synthetic module name (see
``_fixtures.make_module``), so layer ranks and worker entry points are
exercised without touching the real tree. The violating code lives in
string literals, which the self-lint of this file never sees as calls.
"""

from __future__ import annotations

from ._fixtures import make_module


def rules(result):
    return [f.rule for f in result.findings]


class TestNondeterminism:
    """Unseeded RNG and wall-clock reads in worker entry points.

    fork-safety holds this check for everything a process-pool worker
    reaches, whatever its package.
    """

    RULE = ("fork-safety",)

    @staticmethod
    def _entry(body, name="repro.neural.fixture", header=""):
        src = (
            "import numpy as np\n"
            "from multiprocessing import Process\n"
            f"{header}"
            "def _gen():\n"
            f"{body}"
            "p = Process(target=_gen)\n"
        )
        return make_module(src, name=name)

    def test_unseeded_np_random_flagged(self, lint):
        mod = self._entry("    return np.random.rand(3)\n")
        assert rules(lint(mod, self.RULE)) == ["fork-safety"]

    def test_argless_default_rng_flagged_seeded_clean(self, lint):
        mod = self._entry(
            "    bad = np.random.default_rng()\n"
            "    good = np.random.default_rng(1234)\n"
        )
        result = lint(mod, self.RULE)
        assert [f.line for f in result.findings] == [4]

    def test_time_and_stdlib_random_flagged(self, lint):
        mod = self._entry(
            "    a = random.random()\n"
            "    b = time.time()\n"
            "    c = random.Random(42)\n",
            name="repro.core.fixture",
            header="import random\nimport time\n",
        )
        result = lint(mod, self.RULE)
        assert [f.line for f in result.findings] == [6, 7]

    def test_worker_entry_point_flagged_outside_hot_packages(self, lint):
        """Process targets are checked everywhere: wall-clock or unseeded
        RNG inside a worker silently breaks cross-process determinism."""
        src = (
            "import time\n"
            "import multiprocessing as mp\n"
            "def _worker(conn):\n"
            "    t = time.time()\n"
            "def launch():\n"
            "    mp.Process(target=_worker).start()\n"
        )
        result = lint(make_module(src, name="repro.analysis.fixture"), self.RULE)
        assert rules(result) == ["fork-safety"]
        assert [f.line for f in result.findings] == [4]
        assert "worker entry point" in result.findings[0].message

    def test_worker_entry_unseeded_rng_flagged(self, lint):
        mod = self._entry(
            "    return np.random.default_rng()\n", name="repro.streaming.fixture"
        )
        assert [f.line for f in lint(mod, self.RULE).findings] == [4]

    def test_non_entry_function_still_ignored(self, lint):
        """Spawning a process does not make *every* function a worker:
        only what the dispatched targets reach is held to the rule."""
        src = (
            "import time\n"
            "import multiprocessing as mp\n"
            "def _worker(conn):\n"
            "    pass\n"
            "def helper():\n"
            "    return time.time()\n"
            "def launch():\n"
            "    mp.Process(target=_worker).start()\n"
        )
        assert lint(make_module(src, name="repro.analysis.fixture"), self.RULE).ok

    def test_partial_wrapped_dispatch_flagged(self, lint):
        """partial(f, ...) passed to an executor resolves to f."""
        src = (
            "import time\n"
            "from functools import partial\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def _stage(flag, item):\n"
            "    return time.time()\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(partial(_stage, True), items))\n"
        )
        result = lint(make_module(src, name="repro.analysis.fixture"), self.RULE)
        assert [f.line for f in result.findings] == [5]


class TestImportHygiene:
    RULE = ("import-hygiene",)

    def test_layering_violation(self, lint):
        low = make_module(
            "from repro.streaming.fixture_hi import thing\n",
            name="repro.core.fixture_lo",
        )
        high = make_module("thing = 1\n", name="repro.streaming.fixture_hi")
        result = lint([low, high], self.RULE)
        assert rules(result) == ["import-hygiene"]
        assert "layering violation" in result.findings[0].message

    def test_legal_downward_import(self, lint):
        hi = make_module(
            "import repro.neural.fixture_b\n", name="repro.sr.fixture_a"
        )
        lo = make_module("x = 1\n", name="repro.neural.fixture_b")
        assert lint([hi, lo], self.RULE).ok

    def test_cycle_detected(self, lint):
        a = make_module(
            "import repro.core.fixture_b\n", name="repro.core.fixture_a"
        )
        b = make_module(
            "import repro.core.fixture_a\n", name="repro.core.fixture_b"
        )
        result = lint([a, b], self.RULE)
        assert any("import cycle" in f.message for f in result.findings)

    def test_function_local_import_breaks_cycle(self, lint):
        a = make_module(
            "def f():\n    import repro.core.fixture_b\n",
            name="repro.core.fixture_a",
        )
        b = make_module(
            "import repro.core.fixture_a\n", name="repro.core.fixture_b"
        )
        assert lint([a, b], self.RULE).ok

    def test_unknown_package_is_a_finding(self, lint):
        mod = make_module(
            "import repro.newpkg.fixture_t\n", name="repro.core.fixture"
        )
        target = make_module("x = 1\n", name="repro.newpkg.fixture_t")
        result = lint([mod, target], self.RULE)
        assert any("layer table" in f.message for f in result.findings)
