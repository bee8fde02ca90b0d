"""Registry behaviour: suites, caching, lookup errors."""

import pytest

from repro.icache import CacheGeometry
from repro.workloads import (
    REGISTRY,
    SPEC95,
    SPECFP95,
    SPECINT95,
    get_workload,
    load_fetch_input,
    load_trace,
    workload_names,
)
from repro.workloads.base import WorkloadRegistry


class TestSuites:
    def test_eight_int_programs(self):
        assert len(SPECINT95) == 8
        assert set(SPECINT95) == {"gcc", "compress", "go", "ijpeg", "li",
                                  "m88ksim", "perl", "vortex"}

    def test_ten_fp_programs(self):
        assert len(SPECFP95) == 10
        assert set(SPECFP95) == {"applu", "apsi", "fpppp", "hydro2d",
                                 "mgrid", "su2cor", "swim", "tomcatv",
                                 "turb3d", "wave5"}

    def test_spec95_is_union(self):
        assert set(SPEC95) == set(SPECINT95) | set(SPECFP95)
        assert len(SPEC95) == 18

    def test_suite_filters(self):
        assert set(workload_names("int")) == set(SPECINT95)
        assert set(workload_names("fp")) == set(SPECFP95)
        assert set(workload_names("extra")) == {"kmp"}
        assert set(workload_names()) == set(SPEC95) | {"kmp"}


class TestLookup:
    def test_get_known(self):
        w = get_workload("compress")
        assert w.name == "compress"
        assert w.suite == "int"
        assert w.description

    def test_get_unknown_raises_with_known_names(self):
        with pytest.raises(KeyError, match="compress"):
            get_workload("nonexistent")


class TestCaching:
    def test_program_cached(self):
        assert REGISTRY.program("swim") is REGISTRY.program("swim")

    def test_trace_cached_per_budget(self):
        t1 = load_trace("swim", 2_000)
        t2 = load_trace("swim", 2_000)
        t3 = load_trace("swim", 3_000)
        assert t1 is t2
        assert t3 is not t1
        assert t3.n_instructions > t1.n_instructions

    def test_fetch_input_cached_per_geometry(self):
        geo = CacheGeometry.normal(8)
        fi1 = load_fetch_input("swim", geo, 2_000)
        fi2 = load_fetch_input("swim", geo, 2_000)
        fi3 = load_fetch_input("swim", CacheGeometry.self_aligned(8), 2_000)
        assert fi1 is fi2
        assert fi3 is not fi1


class TestRegistryClass:
    def test_duplicate_rejected(self):
        reg = WorkloadRegistry()
        reg.register("x", "int", "d")(lambda: None)
        with pytest.raises(ValueError):
            reg.register("x", "int", "d")(lambda: None)

    def test_bad_suite_rejected(self):
        reg = WorkloadRegistry()
        with pytest.raises(ValueError):
            reg.register("y", "weird", "d")

    def test_clear_caches(self):
        reg = WorkloadRegistry()
        from repro.isa import ProgramBuilder

        def build():
            b = ProgramBuilder(name="t")
            with b.function("main"):
                b.asm.nop()
            return b.build()

        reg.register("t", "int", "d")(build)
        first = reg.program("t")
        reg.clear_caches()
        assert reg.program("t") is not first


def test_clear_caches_drops_shared_pht_fronts(tmp_path, monkeypatch):
    """No run after a clear may replay a front resolved before it."""
    from repro.core import fast
    from repro.workloads import clear_caches

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    fast._front_put(("probe",), object())
    clear_caches()
    assert not fast._front
