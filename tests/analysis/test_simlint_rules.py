"""Each SL rule: one fixture that triggers it, one that must not."""

import textwrap

from repro.analysis import lint_source


def lint(code):
    return lint_source(textwrap.dedent(code), path="src/repro/fake/mod.py")


def codes(code):
    return [f.code for f in lint(code)]


# -- SL001: wall clock / ambient entropy -----------------------------------

class TestSL001:
    def test_time_time_flagged(self):
        assert codes("""
            import time
            def stamp():
                return time.time()
        """) == ["SL001"]

    def test_from_import_alias_resolved(self):
        assert codes("""
            from time import time as wall
            def stamp():
                return wall()
        """) == ["SL001"]

    def test_datetime_now_flagged(self):
        assert codes("""
            from datetime import datetime
            def stamp():
                return datetime.now()
        """) == ["SL001"]

    def test_module_level_random_flagged(self):
        assert codes("""
            import random
            def draw():
                return random.random()
        """) == ["SL001"]

    def test_unseeded_default_rng_flagged(self):
        assert codes("""
            import numpy as np
            def make():
                return np.random.default_rng()
        """) == ["SL001"]

    def test_seeded_default_rng_ok(self):
        assert codes("""
            import numpy as np
            def make(seed):
                return np.random.default_rng(seed)
        """) == []

    def test_registry_stream_ok(self):
        assert codes("""
            from repro.simkernel.rng import RngRegistry
            def make(seed):
                return RngRegistry(seed).stream("load", 0)
        """) == []


# -- SL002: sim coroutine discipline ----------------------------------------

class TestSL002:
    def test_yield_constant_flagged(self):
        assert codes("""
            from repro.simkernel import Simulator
            def proc(sim):
                yield 3.0
        """) == ["SL002"]

    def test_yield_event_ok(self):
        assert codes("""
            from repro.simkernel import Simulator
            def proc(sim):
                yield sim.timeout(3.0)
        """) == []

    def test_plain_generator_module_not_flagged(self):
        # No simkernel import: ordinary data generators are fine.
        assert codes("""
            def naturals():
                yield 1
                yield 2
        """) == []

    def test_return_inside_try_with_yielding_finally(self):
        assert codes("""
            from repro.simkernel import Simulator
            def proc(sim, res):
                try:
                    return 42
                finally:
                    yield res.release_event()
        """) == ["SL002"]


# -- SL003: heap encapsulation ----------------------------------------------

class TestSL003:
    def test_heapq_outside_engine_flagged(self):
        assert codes("""
            import heapq
            def push(h, x):
                heapq.heappush(h, x)
        """) == ["SL003"]

    def test_private_heap_access_flagged(self):
        assert codes("""
            def drain(sim):
                return len(sim._heap)
        """) == ["SL003"]

    def test_engine_module_exempt(self):
        findings = lint_source(
            "import heapq\n"
            "def push(h, x):\n"
            "    heapq.heappush(h, x)\n",
            path="src/repro/simkernel/engine.py")
        assert findings == []


# -- SL004: float time equality ---------------------------------------------

class TestSL004:
    def test_now_equality_flagged(self):
        assert codes("""
            def check(sim, t):
                return sim.now == t
        """) == ["SL004"]

    def test_peek_inequality_flagged(self):
        assert codes("""
            def check(sim, t):
                return sim.peek() != t
        """) == ["SL004"]

    def test_ordering_comparison_ok(self):
        assert codes("""
            def check(sim, t):
                return sim.now >= t
        """) == []


# -- SL005: raw unit literals -----------------------------------------------

class TestSL005:
    def test_raw_gigabyte_flagged(self):
        assert codes("""
            STATE = 1e9
        """) == ["SL005"]

    def test_raw_hour_flagged(self):
        assert codes("""
            def horizon():
                return 3600
        """) == ["SL005"]

    def test_units_module_exempt(self):
        assert lint_source("HOUR = 3600.0\n",
                           path="src/repro/units.py") == []

    def test_units_constant_usage_ok(self):
        assert codes("""
            from repro.units import GB
            STATE = 1 * GB
        """) == []


# -- SL006: shared mutable state --------------------------------------------

class TestSL006:
    def test_mutable_default_argument_flagged(self):
        assert codes("""
            def run(history=[]):
                history.append(1)
        """) == ["SL006"]

    def test_keyword_only_mutable_default_flagged(self):
        assert codes("""
            def run(*, cache={}):
                return cache
        """) == ["SL006"]

    def test_class_level_mutable_attribute_flagged(self):
        assert codes("""
            class Greedy:
                history = []
        """) == ["SL006"]

    def test_dataclass_field_factory_ok(self):
        assert codes("""
            from dataclasses import dataclass, field
            @dataclass
            class Stats:
                raw: list = field(default_factory=list)
        """) == []

    def test_none_default_ok(self):
        assert codes("""
            def run(history=None):
                history = history or []
        """) == []


def test_every_rule_has_a_registered_code():
    from repro.analysis import all_rules

    rules = all_rules()
    assert len(rules) >= 6
    assert sorted(r.code for r in rules) == [
        "SL001", "SL002", "SL003", "SL004", "SL005", "SL006"]
    for rule in rules:
        assert rule.summary and rule.name
