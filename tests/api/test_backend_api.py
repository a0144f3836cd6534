"""First-class kernel-backend selection: config, scopes, wire, CLI.

The selection chain (``use_backend`` scope > ``set_default_backend`` >
auto) and its surfaces: ``PipelineConfig.backend`` (excluded from
identity), ``PipelineResult`` provenance, the serve config key and the
CLI flag.
"""

import sys

import numpy as np
import pytest

from repro.api.pipeline import Pipeline, PipelineConfig
from repro.api.registry import KERNEL_BACKEND, REGISTRY
from repro.core.backend import (
    KernelBackend,
    available_backends,
    current_backend,
    get_backend,
    known_backends,
    resolve_backend_name,
    set_default_backend,
    use_backend,
)
from repro.errors import ConfigurationError
from repro.graphs import generators as gen


pytestmark = pytest.mark.usefixtures("restore_default_backend")


class _ImportCounter:
    """``sys.meta_path`` finder that counts imports of one module."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempts = 0

    def find_spec(self, fullname, path=None, target=None):
        if fullname == self.name:
            self.attempts += 1
        return None  # defer to the real finders


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(known_backends()) >= {
            "numpy", "numba", "numba-parallel", "auto",
        }

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(ValueError, match="numpy"):
            resolve_backend_name("cuda")


class TestSelectionChain:
    def test_auto_resolves_to_an_available_backend(self):
        assert resolve_backend_name() in available_backends()

    def test_unavailable_backend_degrades(self):
        # Requesting a compiled tier on a host without numba falls back
        # down the chain instead of crashing; with numba present the
        # request is honored exactly.
        resolved = resolve_backend_name("numba")
        if "numba" in available_backends():
            assert resolved == "numba"
        else:
            assert resolved == "numpy"

    def test_set_default_backend_roundtrip(self):
        set_default_backend("numpy")
        assert get_backend() == "numpy"

    def test_registration_outside_the_tiers_is_selectable(self):
        # A new backend is a registration: selectable by name, never
        # picked by auto, and degrading straight to numpy when it
        # cannot run here.
        class Extra(KernelBackend):
            name = "extra"
            usable = True

            def available(self):
                return self.usable

        extra = Extra()
        REGISTRY.register(KERNEL_BACKEND, "extra", extra)
        try:
            assert "extra" in known_backends()
            with use_backend("extra"):
                assert current_backend() is extra
            set_default_backend("extra")
            assert get_backend() == "extra"
            set_default_backend(None)
            assert resolve_backend_name() != "extra"
            extra.usable = False
            assert resolve_backend_name("extra") == "numpy"
        finally:
            REGISTRY.unregister(KERNEL_BACKEND, "extra")
        set_default_backend(None)
        assert resolve_backend_name() in available_backends()

    def test_set_default_backend_validates(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_default_backend("tpu")

    def test_use_backend_scopes_and_restores(self):
        set_default_backend("numpy")
        with use_backend("auto"):
            assert resolve_backend_name() in available_backends()
            with use_backend("numpy"):
                assert current_backend().name == "numpy"
        assert get_backend() == "numpy"

    def test_explicit_arg_wins_over_everything(self):
        set_default_backend("numpy")
        with use_backend("numpy"):
            assert resolve_backend_name("auto") in available_backends()

    def test_numba_import_probed_at_most_once(self, monkeypatch):
        # Kernels look the backend up thousands of times per run; a
        # host's numba availability cannot change, so the import is
        # tried once per process, not once per lookup.
        counter = _ImportCounter("numba")
        monkeypatch.setattr(sys, "meta_path", [counter, *sys.meta_path])
        set_default_backend(None)
        for _ in range(1000):
            current_backend()
        assert counter.attempts <= 1


class TestPipelineSurface:
    def test_config_validates_backend_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            PipelineConfig(backend="fpga")

    def test_backend_excluded_from_identity(self):
        # Byte identity across backends means the backend choice must
        # not split artifact-store cells or serve batch groups.
        plain = PipelineConfig()
        picked = PipelineConfig(backend="numpy")
        assert plain.identity() == picked.identity()
        assert "backend" not in picked.identity()

    def test_result_records_resolved_backend(self):
        ga = gen.barabasi_albert(60, 3, seed=1)
        pipe = Pipeline(
            "grid4x4",
            PipelineConfig(enhance="none", backend="numpy"),
        )
        res = pipe.run(ga, seed=0)
        assert res.backend == "numpy"

    def test_results_byte_identical_across_requested_backends(self):
        ga = gen.barabasi_albert(60, 3, seed=2)
        results = []
        for name in available_backends():
            pipe = Pipeline("grid4x4", PipelineConfig(backend=name))
            results.append(pipe.run(ga, seed=5))
        ref = results[0]
        for res in results[1:]:
            assert np.array_equal(ref.mu_final, res.mu_final)
            assert ref.coco_after == res.coco_after
            assert ref.identity_hash == res.identity_hash


class TestWireAndCli:
    def test_parse_config_accepts_backend(self):
        from repro.serve.service import parse_config

        cfg = parse_config({"backend": "numpy"})
        assert cfg.backend == "numpy"
        assert "backend" not in cfg.identity()

    def test_serve_settings_carry_backend(self):
        from repro.serve.service import ServeSettings

        assert ServeSettings().backend == ""
        assert ServeSettings(backend="numpy").backend == "numpy"

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "g", "t", "--backend", "numpy"],
            ["enhance", "g", "t", "m", "--backend", "auto"],
            ["serve", "--backend", "numba-parallel"],
        ],
    )
    def test_cli_flag_parses(self, argv):
        from repro.cli import build_parser

        args = build_parser().parse_args(argv)
        assert args.backend == argv[-1]

    def test_healthz_and_metrics_surface_backend(self):
        import asyncio

        from repro.serve.scheduler import BatchScheduler
        from repro.serve.service import MappingService

        scheduler = BatchScheduler(max_batch=4)
        try:
            svc = MappingService(scheduler)
            status, body, _ = asyncio.run(svc.handle("healthz", {}))
            assert status == 200
            assert body["kernel_backend"] in available_backends()
            status, body, _ = asyncio.run(
                svc.handle("metrics", {"format": "json"})
            )
            assert body["kernel_backend"] in available_backends()
        finally:
            scheduler.close()
