"""The three interprocedural passes over synthetic fixture trees.

Each fixture reproduces the *real* module layout the pass keys off
(``repro.*`` emission sites for metric-schema, worker entry points for
fork-safety) in miniature, then mutates one clean source per test to
introduce exactly the drift the pass exists to catch — including the
historical ``sr.dispatch/tiles_total`` collision.
"""

from __future__ import annotations

import pytest

from ._fixtures import make_module

CONTRACT_RULE = ("contract-consistency",)
FORK_RULE = ("fork-safety",)
METRIC_RULE = ("metric-schema",)


def _mutate(src: str, old: str, new: str) -> str:
    assert old in src, f"fixture drift target {old!r} not found"
    return src.replace(old, new)


# -- contract-consistency ------------------------------------------------

CONTRACT_OK = """\
import numpy as np

from repro.contracts import shaped


@shaped(frame="H W 3:f32", mask="?H W:b")
def consume(frame, mask=None):
    return frame


def caller_ok():
    return consume(np.zeros((4, 4, 3), dtype=np.float32))
"""


def _contract_module(src=CONTRACT_OK):
    return make_module(src, name="repro.fixt.shapes")


class TestContractConsistency:
    def test_clean_fixture(self, lint):
        result = lint(_contract_module(), CONTRACT_RULE)
        assert result.ok and not result.new

    def test_unparseable_spec(self, lint):
        src = _mutate(CONTRACT_OK, '"H W 3:f32"', '"H W 3:zz"')
        result = lint(_contract_module(src), CONTRACT_RULE)
        assert [f for f in result.new if "does not parse" in f.message]

    def test_spec_for_unknown_parameter(self, lint):
        src = _mutate(CONTRACT_OK, 'mask="?H W:b"', 'missing="?H W:b"')
        result = lint(_contract_module(src), CONTRACT_RULE)
        assert [f for f in result.new
                if "'missing'" in f.message and "no such parameter" in f.message]

    def test_dtype_code_as_dim_token(self, lint):
        # "H W f32" parses (f32 becomes a dim variable) but almost
        # certainly lost its ':'; the grammar check names that.
        src = _mutate(CONTRACT_OK, '"H W 3:f32"', '"H W f32"')
        result = lint(_contract_module(src), CONTRACT_RULE)
        assert [f for f in result.new if "missing the ':'" in f.message]

    def test_lowercase_dim_variable(self, lint):
        src = _mutate(CONTRACT_OK, '"H W 3:f32"', '"h W 3:f32"')
        result = lint(_contract_module(src), CONTRACT_RULE)
        assert [f for f in result.new
                if "lowercase dim variable 'h'" in f.message]

    def test_non_literal_spec(self, lint):
        src = _mutate(CONTRACT_OK, '"?H W:b"', "SPEC_VAR")
        src = "SPEC_VAR = object()\n" + src
        result = lint(_contract_module(src), CONTRACT_RULE)
        assert [f for f in result.new if "not a string literal" in f.message]

    def test_call_site_rank_mismatch(self, lint):
        src = _mutate(
            CONTRACT_OK,
            "np.zeros((4, 4, 3), dtype=np.float32)",
            "np.zeros((4, 4), dtype=np.float32)",
        )
        result = lint(_contract_module(src), CONTRACT_RULE)
        assert [f for f in result.new if "can never satisfy" in f.message]

    def test_call_site_dtype_mismatch(self, lint):
        src = _mutate(
            CONTRACT_OK,
            "np.zeros((4, 4, 3), dtype=np.float32)",
            "np.zeros((4, 4, 3))",  # defaults to float64, spec wants f32
        )
        result = lint(_contract_module(src), CONTRACT_RULE)
        assert [f for f in result.new if "can never satisfy" in f.message]

    def test_call_site_literal_dim_mismatch(self, lint):
        src = _mutate(
            CONTRACT_OK,
            "np.zeros((4, 4, 3), dtype=np.float32)",
            "np.zeros((4, 4, 5), dtype=np.float32)",
        )
        result = lint(_contract_module(src), CONTRACT_RULE)
        assert [f for f in result.new if "can never satisfy" in f.message]

    def test_cross_module_call_site(self, lint):
        caller = make_module(
            "import numpy as np\n\n"
            "from .shapes import consume\n\n\n"
            "def bad():\n"
            "    return consume(np.ones((2, 2), dtype=np.float32))\n",
            name="repro.fixt.user",
        )
        result = lint([_contract_module(), caller], CONTRACT_RULE)
        findings = [f for f in result.new if "can never satisfy" in f.message]
        assert findings and findings[0].path == "repro/fixt/user.py"


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
        assert [f for f in result.new
                if "process-divergent randomness" in f.message
                and "reachable from worker entry point 'entry'" in f.message]

    def test_mutated_container_read(self, lint):
        result = lint(_fork_modules(), FORK_RULE)
        assert [f for f in result.new
                if "mutable container 'CACHE'" in f.message]

    def test_seeded_rng_and_unmutated_state_clean(self, lint):
        state = _mutate(FS_STATE, "np.random.default_rng()",
                        "np.random.default_rng(1234)")
        state = _mutate(state, "    CACHE[i] = value\n", "    return (i, value)\n")
        result = lint(_fork_modules(state=state), FORK_RULE)
        assert result.ok and not result.new

    def test_global_rebinding_in_worker(self, lint):
        work = (
            "COUNT = 0\n\n\n"
            "def entry(i):\n"
            "    global COUNT\n"
            "    COUNT = i\n"
        )
        result = lint(_fork_modules(work=work, state="X = 1\n"), FORK_RULE)
        assert [f for f in result.new
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
        assert [f for f in result.new
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
        assert result.ok and not result.new

    def test_same_module_syntactic_entry_left_to_per_file_rule(self, lint):
        # When target def and spawn share a module, the nondeterminism
        # pass already sees it; fork-safety must not double-report.
        spawn = (
            "import multiprocessing as mp\n"
            "import numpy as np\n\n\n"
            "def entry(i):\n"
            "    return np.random.default_rng().standard_normal()\n\n\n"
            "def launch():\n"
            "    mp.Process(target=entry).start()\n"
        )
        result = lint([make_module(spawn, name="repro.fixt.spawn")], FORK_RULE)
        assert result.ok and not result.new

    def test_no_spawns_no_findings(self, lint):
        result = lint([make_module(FS_STATE, name="repro.fixt.state")], FORK_RULE)
        assert result.ok and not result.new

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
        assert [f for f in result.new
                if "reachable from worker entry point 'entry'" in f.message]


# -- metric-schema -------------------------------------------------------

METRIC_OK = """\
def emit(registry, spans):
    registry.counter("frames_total").inc()
    for span in spans:
        registry.histogram(f"stage_ms/{span.name}").observe(span.modeled_ms)
"""


def _metric_module(src=METRIC_OK):
    return make_module(src, name="repro.fixt.obs")


class TestMetricSchema:
    def test_clean_fixture(self, lint):
        result = lint(_metric_module(), METRIC_RULE)
        assert result.ok and not result.new

    def test_unregistered_concrete_name(self, lint):
        src = _mutate(METRIC_OK, '"frames_total"', '"bogus/name"')
        result = lint(_metric_module(src), METRIC_RULE)
        assert [f for f in result.new
                if "'bogus/name' is not a registered family" in f.message]

    def test_kind_mismatch(self, lint):
        src = _mutate(METRIC_OK, 'counter("frames_total").inc()',
                      'histogram("frames_total").observe(1.0)')
        result = lint(_metric_module(src), METRIC_RULE)
        assert [f for f in result.new
                if "registered as a counter but used here as a histogram"
                in f.message]

    def test_unregistered_dynamic_family(self, lint):
        src = _mutate(METRIC_OK, 'f"stage_ms/{span.name}"',
                      'f"bogus_family/{span.name}"')
        result = lint(_metric_module(src), METRIC_RULE)
        assert [f for f in result.new
                if "'bogus_family/*' is not registered" in f.message]

    def test_non_literal_name(self, lint):
        src = METRIC_OK + "\n\ndef probe(registry, name):\n" \
            "    registry.counter(name).inc()\n"
        result = lint(_metric_module(src), METRIC_RULE)
        assert [f for f in result.new if "not statically known" in f.message]

    def test_interpolation_only_prefix_rejected(self, lint):
        src = _mutate(METRIC_OK, 'f"stage_ms/{span.name}"', 'f"stage_ms/"')
        result = lint(_metric_module(src), METRIC_RULE)
        assert [f for f in result.new
                if "cannot reduce to a family pattern" in f.message]

    def test_tiles_total_collision_regression(self, lint):
        # The historical bug: a static aggregate and a per-backend
        # f-string sharing one prefix — a backend named "total" would
        # silently merge counts. Both sides must be reported.
        src = (
            "def emit(registry, backends):\n"
            '    registry.counter("sr.dispatch/tiles_total").inc()\n'
            "    for name, count in backends.items():\n"
            '        registry.counter(f"sr.dispatch/tiles_{name}").inc(count)\n'
        )
        result = lint(_metric_module(src), METRIC_RULE)
        assert [f for f in result.new
                if "'sr.dispatch/tiles_*' is not registered" in f.message]
        assert [f for f in result.new
                if "'sr.dispatch/tiles_total' can also be generated by the "
                "dynamic family 'sr.dispatch/tiles_*'" in f.message]

    def test_renamed_backend_family_is_clean(self, lint):
        # The shipped fix: per-backend counts live in their own
        # namespace, so the aggregate is out of the wildcard's reach.
        src = (
            "def emit(registry, backends):\n"
            '    registry.counter("sr.dispatch/tiles_total").inc()\n'
            "    for name, count in backends.items():\n"
            '        registry.counter(f"sr.dispatch/backend_tiles/{name}")'
            ".inc(count)\n"
        )
        result = lint(_metric_module(src), METRIC_RULE)
        assert result.ok and not result.new

    def test_scripts_outside_repro_ignored(self, lint):
        src = _mutate(METRIC_OK, '"frames_total"', '"anything/goes"')
        result = lint([make_module(src, name=None, rel="scripts/probe.py")],
                      METRIC_RULE)
        assert result.ok and not result.new
