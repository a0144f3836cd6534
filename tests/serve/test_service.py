"""Front-end behavior: parsing, ops, HTTP transport, stdio, hooks."""

import asyncio
import json
import math

import numpy as np
import pytest

from repro.api.pipeline import Pipeline
from repro.api.registry import REGISTRY, VERIFY
from repro.api.stages import StageContext
from repro.api.topology import Topology
from repro.errors import MappingError, ReproError
from repro.graphs import generators as gen
from repro.serve.loadgen import http_request_json
from repro.serve.scheduler import BatchScheduler, GraphSpec
from repro.serve.service import (
    ADMISSION_HOOK,
    MAX_HIERARCHIES,
    MappingService,
    ServeSettings,
    ServerThread,
    build_service,
    parse_config,
    parse_request,
    register_admission_hook,
    serve_stdio,
)


@pytest.fixture
def service():
    scheduler = BatchScheduler(max_batch=8)
    svc = MappingService(scheduler)
    yield svc
    scheduler.close()
    register_admission_hook(None)


def _map_body(seed=0, **extra):
    return {
        "topology": "grid4x4",
        "graph": {"kind": "generate", "instance": "p2p-Gnutella", "seed": seed},
        "seed": seed,
        "config": {"nh": 1},
        **extra,
    }


class TestParsing:
    def test_unknown_request_key(self):
        with pytest.raises(ReproError, match="unknown request keys"):
            parse_request({"topology": "grid4x4", "bogus": 1})

    def test_missing_topology(self):
        with pytest.raises(ReproError, match="topology"):
            parse_request({"graph": {}})

    def test_unknown_config_key(self):
        with pytest.raises(ReproError, match="unknown config keys"):
            parse_request({"topology": "grid4x4", "config": {"zzz": 1}})

    def test_bad_deadline(self):
        with pytest.raises(ReproError, match="deadline"):
            parse_request({"topology": "grid4x4", "deadline_s": -1})

    def test_enhance_requires_mu(self):
        with pytest.raises(ReproError, match="mu"):
            parse_request({"topology": "grid4x4"}, require_mu=True)

    def test_unknown_graph_instance(self):
        with pytest.raises(ReproError, match="unknown instance"):
            parse_request(
                {"topology": "grid4x4", "graph": {"instance": "nope"}}
            )

    def test_size_limit_applies_at_parse_time(self):
        with pytest.raises(ReproError, match="admits at most"):
            parse_request(_map_body(), max_graph_n=50)  # spec n_max=192

    @pytest.mark.parametrize("mu", [7, 1.5, True, "0123", {"0": 0}])
    def test_mu_that_is_not_an_array(self, mu):
        with pytest.raises(ReproError, match="^mu must be an array"):
            parse_request(_map_body(mu=mu))

    @pytest.mark.parametrize("edges", [5, 1.5, True, "0,1", {"0": 1}])
    def test_graph_edges_that_are_not_an_array(self, edges):
        graph = {"kind": "edges", "n": 4, "edges": edges}
        with pytest.raises(ReproError, match="^graph edges must be an array"):
            parse_request({"topology": "grid4x4", "graph": graph})

    @pytest.mark.parametrize("seed", [-5, -1, -(2**70)])
    def test_negative_seeds(self, seed):
        with pytest.raises(ReproError, match="^seed must be >= 0"):
            parse_request(_map_body() | {"seed": seed})
        with pytest.raises(ReproError, match="^graph seed must be >= 0"):
            parse_request(_map_body(seed=seed) | {"seed": 0})
        request = parse_request(_map_body(seed=0))
        assert request.seed == 0 and request.graph.seed == 0

    @pytest.mark.parametrize(
        "fields,named",
        [
            ({"mu": 7}, "mu must be"),
            ({"graph": {"kind": "edges", "n": 4, "edges": 5}}, "graph edges must be"),
            ({"seed": -5}, "seed must be"),
            ({"graph": {"kind": "generate", "seed": -5}}, "graph seed must be"),
            ({"graph": {"kind": "generate", "seed": 1.5}}, "graph seed must be"),
        ],
    )
    def test_the_service_answers_400_naming_the_field(self, service, fields, named):
        status, reply, _ = asyncio.run(service.handle("enhance", _map_body(mu=[0]) | fields))
        assert status == 400 and reply["error"] == "bad_request"
        assert reply["message"].startswith(named)

    def test_config_spellings(self):
        cfg = parse_config({"case": "c3", "nh": 4, "strategy": "kl"})
        assert cfg.initial_mapping == "c3"
        assert cfg.timer.n_hierarchies == 4
        assert cfg.timer.swap_strategy == "kl"
        assert cfg.pre_verify == (ADMISSION_HOOK,)
        assert "mapping-valid" in cfg.post_verify


class TestNonIntegerWireValues:
    """``mu``, ``seed`` and inline edge endpoints are integers, never truncated."""

    _PATH = {"kind": "edges", "n": 4, "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1]]}

    def _enhance(self, service, **fields):
        body = {"topology": "grid4x4", "graph": self._PATH, "mu": [0, 1, 2, 3],
                "seed": 1, "config": {"nh": 1}} | fields
        return asyncio.run(service.handle("enhance", body))

    @pytest.mark.parametrize(
        "mu", [[0.9, 1.5, 2.2, 3.7], [True, False, True, False], ["0", 1, 2, 3]]
    )
    def test_mu(self, service, mu):
        status, reply, _ = self._enhance(service, mu=mu)
        assert status == 400 and reply["error"] == "bad_request"
        assert "mu[0]" in reply["message"]
        status, _, _ = self._enhance(service, mu=[0.0, 1.0, 2.0, 3.0])
        assert status == 200

    @pytest.mark.parametrize("seed", [1.7, True, "1"])
    def test_seed(self, service, seed):
        status, reply, _ = self._enhance(service, seed=seed)
        assert status == 400 and reply["error"] == "bad_request"
        assert "seed" in reply["message"]
        status, reply, _ = self._enhance(service, seed=1.0)
        assert status == 200 and reply["mu"] == self._enhance(service)[1]["mu"]

    @pytest.mark.parametrize("endpoint", [0.6, False, "0"])
    def test_edge_endpoint(self, service, endpoint):
        graph = {"kind": "edges", "n": 4, "edges": [[endpoint, 1, 1], [1, 2, 1]]}
        status, reply, _ = self._enhance(service, graph=graph)
        assert status == 400 and reply["error"] == "bad_request"
        assert "graph edge 0 endpoint" in reply["message"]
        graph = {"kind": "edges", "n": 4, "edges": [[0.0, 1, 1], [1, 2, 1]]}
        status, _, _ = self._enhance(service, graph=graph)
        assert status == 200


class TestMalformedGraphSpecs:
    """Malformed inline graphs and generate sizing answer a 400 naming the field."""

    _EDGES = [[0, 1, 1], [1, 2, 1], [2, 3, 1]]

    def _map(self, service, graph):
        body = {"topology": "grid4x4", "graph": graph, "seed": 1, "config": {"nh": 1}}
        return asyncio.run(service.handle("map", body))

    def _assert_bad(self, service, graph, field):
        status, reply, _ = self._map(service, graph)
        assert status == 400 and reply["error"] == "bad_request", reply
        assert field in reply["message"]

    def test_edge_with_one_entry(self, service):
        graph = {"kind": "edges", "n": 4, "edges": [[0, 1, 1], [2]]}
        self._assert_bad(service, graph, "graph edge 1")

    def test_edge_with_four_entries(self, service):
        graph = {"kind": "edges", "n": 4, "edges": [[0, 1, 1, 99], [1, 2, 1], [2, 3, 1]]}
        self._assert_bad(service, graph, "graph edge 0")
        graph["edges"][0] = [0, 1]
        status, _, _ = self._map(service, graph)
        assert status == 200

    @pytest.mark.parametrize("n", [True, "4", -1])
    def test_inline_n(self, service, n):
        self._assert_bad(service, {"kind": "edges", "n": n, "edges": []}, "graph n")

    @pytest.mark.parametrize(
        "weight",
        [True, False, "x", None, -1, float("inf"), float("nan"),
         pytest.param(10**400, id="10**400")],
    )
    def test_edge_weight(self, service, weight):
        graph = {"kind": "edges", "n": 4, "edges": [[0, 1, 1], [1, 2, weight]]}
        self._assert_bad(service, graph, "graph edge 1 weight")

    def test_inline_integral_float_n_and_valid_weights(self, service):
        graph = {"kind": "edges", "n": 4.0, "edges": self._EDGES}
        status, reply, _ = self._map(service, graph)
        assert status == 200
        plain = {"kind": "edges", "n": 4, "edges": self._EDGES}
        assert reply["mu"] == self._map(service, plain)[1]["mu"]
        # Valid bodies keep their cache keys (the parent's key for ``plain``).
        key = GraphSpec.from_wire(plain).cache_key()
        assert key == "edges:81704ac981c71117"
        assert GraphSpec.from_wire(graph).cache_key() == key
        graph = {"kind": "edges", "n": 4, "edges": [[0, 1, 0], [1, 2, 2.5]]}
        status, _, _ = self._map(service, graph)
        assert status == 200

    def _enhance(self, service, graph):
        body = {"topology": "grid4x4", "graph": graph, "mu": [0, 1, 2, 3],
                "seed": 1, "config": {"nh": 1}}
        return asyncio.run(service.handle("enhance", body))

    @pytest.mark.parametrize("route", ["map", "enhance"])
    @pytest.mark.parametrize(
        "edges",
        [
            [[0, 1, 1e308], [1, 2, 1e308], [2, 3, 1e308], [3, 0, 1]],
            [[0, 1, 2**51], [1, 2, 2**51]],  # 2 * 2**52: exactly the bound
            [[0, 1, 2**52 - 1], [1, 2]],  # a weightless edge counts 1
        ],
        ids=["overflow", "at-2**53", "weightless"],
    )
    def test_weight_sum_reaching_2_53(self, service, route, edges):
        graph = {"kind": "edges", "n": 4, "edges": edges}
        if route == "map":
            status, reply, _ = self._map(service, graph)
        else:
            status, reply, _ = self._enhance(service, graph)
        assert status == 400 and reply["error"] == "bad_request", reply
        assert "graph edges" in reply["message"]

    def test_weight_sum_just_below_2_53(self, service):
        graph = {"kind": "edges", "n": 4, "edges": [[0, 1, 2**51], [1, 2, 2**51 - 1]]}
        for status, reply, _ in (self._map(service, graph), self._enhance(service, graph)):
            assert status == 200, reply
            assert all(math.isfinite(v) for v in reply["metrics"].values()), reply

    def _generate(self, **sizing):
        return {"kind": "generate", "instance": "p2p-Gnutella", "seed": 3} | sizing

    @pytest.mark.parametrize("seed", [2.5, True, "3"])
    def test_seed(self, service, seed):
        self._assert_bad(service, self._generate(seed=seed), "seed")

    @pytest.mark.parametrize("divisor", [0, -3, 2.5, True])
    def test_divisor(self, service, divisor):
        self._assert_bad(service, self._generate(divisor=divisor), "divisor")

    @pytest.mark.parametrize("n_min", [0, 100.5, False])
    def test_n_min(self, service, n_min):
        self._assert_bad(service, self._generate(n_min=n_min), "n_min")

    @pytest.mark.parametrize("n_max", [100, 150.5])
    def test_n_max(self, service, n_max):
        graph = self._generate(n_min=128, n_max=n_max)
        self._assert_bad(service, graph, "n_max")

    def test_loadgen_sizing_and_integral_floats_stay_valid(self, service):
        graph = self._generate(divisor=1024.0, n_min=128, n_max=192.0)
        status, reply, _ = self._map(service, graph)
        assert status == 200
        plain = self._map(service, self._generate(divisor=1024, n_min=128, n_max=192))
        assert reply["mu"] == plain[1]["mu"]


class TestWireFieldValidation:
    """Request and config fields are validated on the wire, never coerced."""

    def _map(self, service, **fields):
        return asyncio.run(service.handle("map", _map_body() | fields))

    def _assert_rejected(self, reply, status, field):
        assert status == 400 and reply["error"] == "bad_request", reply
        assert field in reply["message"]

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_allow_degraded(self, service, value):
        status, reply, _ = self._map(service, allow_degraded=value)
        self._assert_rejected(reply, status, "allow_degraded")

    @pytest.mark.parametrize("key", ["nh", "n_hierarchies"])
    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_nh(self, service, key, value):
        status, reply, _ = self._map(service, config={key: value})
        self._assert_rejected(reply, status, f"config.{key}")

    @pytest.mark.parametrize(
        "value", [True, "5", "nan", "inf", float("nan"), float("inf")]
    )
    def test_deadline_s(self, service, value):
        status, reply, _ = self._map(service, deadline_s=value)
        self._assert_rejected(reply, status, "deadline_s")

    @pytest.mark.parametrize("value", [-1, float("nan"), "0.1", True])
    def test_epsilon(self, service, value):
        status, reply, _ = self._map(service, config={"nh": 1, "epsilon": value})
        self._assert_rejected(reply, status, "config.epsilon")

    @pytest.mark.parametrize("key", ["verify", "report"])
    @pytest.mark.parametrize("value", ["abc", [1]])
    def test_hook_lists(self, service, key, value):
        status, reply, _ = self._map(service, config={"nh": 1, key: value})
        self._assert_rejected(reply, status, f"config.{key}")

    @pytest.mark.parametrize("value", [None, "x", [1]])
    def test_config_object(self, service, value):
        status, reply, _ = self._map(service, config=value)
        self._assert_rejected(reply, status, "config must be an object")

    @pytest.mark.parametrize(
        "key",
        [
            "partition", "initial_mapping", "case", "enhance",
            "seed_policy", "strategy", "swap_strategy", "backend",
        ],
    )
    @pytest.mark.parametrize("value", [["kway"], None, 3])
    def test_string_fields(self, service, key, value):
        status, reply, _ = self._map(service, config={"nh": 1, key: value})
        self._assert_rejected(reply, status, f"config.{key} must be a string")

    @pytest.mark.parametrize("value", [["grid4x4"], None, 3])
    def test_topology(self, service, value):
        status, reply, _ = self._map(service, topology=value)
        self._assert_rejected(reply, status, "topology must be a string")

    @pytest.mark.parametrize("key", ["nh", "n_hierarchies"])
    def test_nh_bound(self, key):
        # Parsing only: a request past the bound must never start a compute.
        request = parse_request(_map_body() | {"config": {key: MAX_HIERARCHIES}})
        assert request.config.timer.n_hierarchies == MAX_HIERARCHIES
        for nh in (MAX_HIERARCHIES + 1, 10**30, -1):
            with pytest.raises(ReproError, match=f"^config.{key} must be in"):
                parse_request(_map_body() | {"config": {key: nh}})

    # A 400 names the field but echoes only a bounded piece of the input.

    def _assert_short(self, status, reply, field):
        self._assert_rejected(reply, status, field)
        assert len(reply["message"]) < 1024

    def test_huge_graph_list_is_not_echoed(self, service):
        status, reply, _ = self._map(service, graph=list(range(200_000)))
        self._assert_short(status, reply, "graph spec must be an object")

    def test_huge_unknown_key_set_is_not_echoed(self, service):
        extra = {f"unknown_key_{i}": i for i in range(100_000)}
        status, reply, _ = self._map(service, **extra)
        self._assert_short(status, reply, "unknown request keys")

    def test_huge_kind_string_is_not_echoed(self, service):
        graph = {"kind": "x" * 1_000_000, "n": 4, "edges": []}
        status, reply, _ = self._map(service, graph=graph)
        self._assert_short(status, reply, "graph spec kind")

    @pytest.mark.parametrize(
        "key,named",
        [
            ("topology", "unknown topology"),
            ("partition", "unknown partition"),
            ("case", "unknown initial_mapping"),
            ("enhance", "unknown enhance"),
            ("strategy", "swap_strategy must be"),
            ("seed_policy", "seed_policy must be"),
            ("backend", "unknown kernel backend"),
            ("verify", "unknown verify"),
            ("report", "unknown report"),
        ],
    )
    def test_huge_name_is_not_echoed(self, service, key, named):
        huge = "x" * 1_000_000
        if key == "topology":
            fields = {"topology": huge}
        else:
            value = [huge] if key in ("verify", "report") else huge
            fields = {"config": {"nh": 1, key: value}}
        status, reply, _ = self._map(service, **fields)
        self._assert_short(status, reply, named)

    def test_valid_values_keep_their_keys(self):
        base = parse_request(_map_body() | {"config": {"nh": 2}})
        spelled_out = {
            "nh": 2, "partition": "kway", "case": "c2", "enhance": "timer",
            "seed_policy": "stream", "strategy": "greedy", "backend": "numpy",
        }
        for config in ({"nh": 2.0}, {"nh": 2, "epsilon": 0.03}, spelled_out):
            same = parse_request(
                _map_body() | {"config": config, "allow_degraded": False}
            )
            assert same.group_key() == base.group_key()
            assert same.work_key() == base.work_key()


class TestOps:
    def test_map_round_trip_matches_direct(self, service):
        body = _map_body(seed=5)
        status, reply, _ = asyncio.run(service.handle("map", body))
        assert status == 200 and reply["ok"]
        request = parse_request(body)
        direct = Pipeline(request.topology, request.config).run(
            request.graph.build(), seed=request.seed
        )
        assert reply["mu"] == [int(x) for x in direct.mu_final]
        assert reply["identity_hash"] == direct.identity_hash
        assert reply["batch"]["size"] == 1

    def test_malformed_inline_graph_fails_alone(self, service):
        # Same group, same dispatch: the bad edge fails only its request.
        bad = {
            "topology": "grid4x4",
            "graph": {"kind": "edges", "n": 3, "edges": [[0, 7, 1]]},
            "config": {"nh": 1},
        }
        good = _map_body(seed=5)

        async def go():
            return await asyncio.wait_for(
                asyncio.gather(
                    service.handle("map", bad), service.handle("map", good)
                ),
                timeout=30,
            )

        (bad_status, bad_reply, _), (status, reply, _) = asyncio.run(go())
        assert bad_status == 400 and bad_reply["error"] == "bad_request"
        assert status == 200 and reply["batch"]["size"] == 2
        request = parse_request(good)
        direct = Pipeline(request.topology, request.config).run(
            request.graph.build(), seed=request.seed
        )
        assert reply["mu"] == [int(x) for x in direct.mu_final]
        assert service.scheduler.pending == 0

    def test_enhance_round_trip(self, service):
        status, mapped, _ = asyncio.run(service.handle("map", _map_body(seed=1)))
        assert status == 200
        body = _map_body(seed=1, mu=mapped["mu"])
        status, reply, _ = asyncio.run(service.handle("enhance", body))
        assert status == 200 and reply["ok"]
        assert reply["metrics"]["coco_after"] <= reply["metrics"]["coco_before"]
        # block sizes preserved (the balance contract TIMER keeps)
        assert sorted(np.bincount(reply["mu"])) == sorted(np.bincount(mapped["mu"]))

    def test_unknown_topology_is_400(self, service):
        status, reply, _ = asyncio.run(
            service.handle("map", _map_body() | {"topology": "nope"})
        )
        assert status == 400 and reply["error"] == "bad_request"

    def test_topology_naming_a_file_is_400_and_leaks_nothing(
        self, service, tmp_path
    ):
        from repro.graphs.io import write_metis

        secret = tmp_path / "secret.txt"
        secret.write_text("root:x:0:0:secret-token\n", encoding="utf-8")
        metis = tmp_path / "ring.graph"
        write_metis(gen.cycle(8), metis)
        for path in (secret, metis):
            status, reply, _ = asyncio.run(
                service.handle("map", _map_body() | {"topology": str(path)})
            )
            assert status == 400 and reply["error"] == "bad_request"
            assert "unknown topology" in reply["message"]
            assert "grid4x4" in reply["message"]  # lists the known names
            assert "secret-token" not in reply["message"]
            assert "METIS" not in reply["message"]

    def test_unknown_op_is_404(self, service):
        status, reply, _ = asyncio.run(service.handle("frob", {}))
        assert status == 404

    def test_healthz(self, service):
        status, reply, _ = asyncio.run(service.handle("healthz", {}))
        assert status == 200
        assert reply["status"] == "ok"
        assert "grid4x4" in reply["topologies"]
        assert "sessions" in reply["cache"]

    def test_metrics_formats(self, service):
        asyncio.run(service.handle("map", _map_body()))
        status, text, _ = asyncio.run(service.handle("metrics", {}))
        assert status == 200 and isinstance(text, str)
        assert "repro_serve_requests_total 1" in text
        assert "repro_serve_labelings_computed" in text
        status, data, _ = asyncio.run(
            service.handle("metrics", {"format": "json"})
        )
        assert data["requests_total"] == 1
        assert data["labelings_computed"] == 1

    def test_batch_op_shares_one_dispatch(self, service):
        payload = {
            "requests": [
                {**_map_body(seed=0), "id": "a"},
                {**_map_body(seed=0), "id": "b"},
                {**_map_body(seed=1), "id": "c"},
            ]
        }
        status, reply, _ = asyncio.run(service.handle("batch", payload))
        assert status == 200 and reply["ok"]
        by_id = {r["id"]: r for r in reply["results"]}
        assert set(by_id) == {"a", "b", "c"}
        assert all(r["status_code"] == 200 for r in reply["results"])
        assert by_id["a"]["batch"]["size"] == 3
        assert by_id["a"]["mu"] == by_id["b"]["mu"]  # coalesced pair

    def test_batch_op_needs_requests(self, service):
        status, reply, _ = asyncio.run(service.handle("batch", {}))
        assert status == 400

    def test_batch_op_rejects_non_object_items(self, service):
        status, reply, _ = asyncio.run(
            service.handle("batch", {"requests": ["x", _map_body()]})
        )
        assert status == 400
        assert "JSON object" in reply["message"]

    def test_batch_item_status_survives_healthz_body(self, service):
        status, reply, _ = asyncio.run(
            service.handle("batch", {"requests": [{"op": "healthz"}]})
        )
        item = reply["results"][0]
        assert item["status_code"] == 200
        assert item["status"] == "ok"  # healthz's own field intact


class TestAdmissionHook:
    def test_hook_registered_and_enforces_limit(self):
        scheduler = BatchScheduler()
        try:
            svc = MappingService(scheduler, max_graph_n=10)
            assert svc.admission_hook == f"{ADMISSION_HOOK}-10"
            hook = REGISTRY.get(VERIFY, svc.admission_hook)
            ctx = StageContext(
                ga=gen.grid(4, 4), topology=Topology.from_name("grid4x4")
            )
            with pytest.raises(MappingError, match="admits at most"):
                hook(ctx)
        finally:
            scheduler.close()
            register_admission_hook(None)

    def test_two_services_keep_distinct_limits(self):
        """The hook name encodes the limit: no cross-service clobbering."""
        s1, s2 = BatchScheduler(), BatchScheduler()
        try:
            a = MappingService(s1, max_graph_n=10)
            b = MappingService(s2)  # no limit
            assert a.admission_hook != b.admission_hook
            ctx = StageContext(
                ga=gen.grid(4, 4), topology=Topology.from_name("grid4x4")
            )
            REGISTRY.get(VERIFY, b.admission_hook)(ctx)  # no-op
            with pytest.raises(MappingError):
                REGISTRY.get(VERIFY, a.admission_hook)(ctx)  # still 10
        finally:
            s1.close()
            s2.close()
            register_admission_hook(None)

    @staticmethod
    def _assert_limit_served(svc, limit):
        """A small /map matches a direct run; an oversized one gets 400."""
        body = _map_body(seed=5)
        status, reply, _ = asyncio.run(svc.handle("map", body))
        assert status == 200, reply
        request = parse_request(body, admission_hook=svc.admission_hook)
        direct = Pipeline(request.topology, request.config).run(
            request.graph.build(), seed=request.seed
        )
        assert reply["mu"] == [int(x) for x in direct.mu_final]
        assert reply["identity_hash"] == direct.identity_hash
        big = _map_body(seed=5)
        big["graph"]["n_max"] = limit + 1
        status, reply, _ = asyncio.run(svc.handle("map", big))
        assert status == 400
        assert "admits at most" in reply["message"]

    def test_limit_resolves_in_pool_workers(self):
        # Pool workers fork when the scheduler starts and look the
        # suffixed hook up by name, so it must exist before they do.
        svc = build_service(ServeSettings(workers=1, max_graph_n=500))
        try:
            self._assert_limit_served(svc, 500)
        finally:
            svc.scheduler.close()
            register_admission_hook(None)

    @pytest.mark.parametrize("start", ["fork", "spawn"])
    def test_limit_resolves_when_pool_starts_first(self, start, monkeypatch):
        """Library order: the pool starts before the service registers.

        Forked workers miss the hook registered after them, and spawned
        workers import a fresh registry; each registers the name on
        demand before it rebuilds the pipeline.
        """
        if start == "spawn":
            import multiprocessing as mp

            import repro.serve.pool as pool_mod

            monkeypatch.setattr(
                pool_mod, "preferred_mp_context", lambda: mp.get_context("spawn")
            )
        limit = 499
        name = f"{ADMISSION_HOOK}-{limit}"
        REGISTRY.unregister(VERIFY, name)  # no earlier test may leak it
        scheduler = BatchScheduler(workers=1)
        try:
            svc = MappingService(scheduler, max_graph_n=limit)
            assert svc.admission_hook == name
            self._assert_limit_served(svc, limit)
        finally:
            scheduler.close()
            REGISTRY.unregister(VERIFY, name)
            register_admission_hook(None)

    def test_oversized_request_rejected_before_compute(self):
        scheduler = BatchScheduler()
        try:
            svc = MappingService(scheduler, max_graph_n=50)
            status, reply, _ = asyncio.run(svc.handle("map", _map_body()))
            assert status == 400
            assert "admits at most" in reply["message"]
            assert scheduler.metrics.render_json()["requests_total"] == 0
        finally:
            scheduler.close()
            register_admission_hook(None)


class TestHTTP:
    @pytest.fixture(scope="class")
    def server(self):
        with ServerThread(
            ServeSettings(port=0, max_batch=8)
        ) as srv:
            yield srv
        register_admission_hook(None)

    def _call(self, server, method, path, body=None):
        return asyncio.run(
            http_request_json(server.host, server.port, method, path, body)
        )

    def test_map_over_http(self, server):
        status, reply = self._call(server, "POST", "/map", _map_body(seed=2))
        assert status == 200 and reply["ok"]
        assert len(reply["mu"]) > 0

    def test_healthz_and_metrics(self, server):
        status, reply = self._call(server, "GET", "/healthz")
        assert status == 200 and reply["status"] == "ok"
        status, text = self._call(server, "GET", "/metrics")
        assert status == 200 and "repro_serve_uptime_seconds" in text

    def test_unknown_path_404(self, server):
        status, reply = self._call(server, "GET", "/nope")
        assert status == 404

    def test_wrong_method_405(self, server):
        status, reply = self._call(server, "GET", "/map")
        assert status == 405

    def test_invalid_json_400(self, server):
        async def go():
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(
                b"POST /map HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                b"Content-Length: 9\r\n\r\nnot json!"
            )
            await writer.drain()
            data = await reader.read()
            writer.close()
            return data

        raw = asyncio.run(go())
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"invalid JSON" in raw

    @pytest.mark.parametrize(
        "body", [b"[" * 200_000, b'{"topology": "\xff"}'],
        ids=["deep-nesting", "invalid-utf8"],
    )
    def test_undecodable_body_400(self, server, body):
        async def go():
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(
                b"POST /map HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            await writer.drain()
            data = await reader.read()
            writer.close()
            return data

        responses = server.service.metrics.counter("responses_total")
        before = responses.labels().get("400", 0)
        raw = asyncio.run(go())
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"invalid JSON" in raw
        assert responses.labels()["400"] == before + 1

    def test_oversized_headers_rejected(self, server):
        # The server may reset the connection while the client is still
        # writing (it responds 400 and closes at the 64KB cap, mid-way
        # through our ~96KB of headers).  Both observations -- a 400
        # status line or a connection reset before one could be read --
        # prove the rejection; which one the client sees is a TCP race.
        async def go():
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                writer.write(b"GET /healthz HTTP/1.1\r\n")
                filler = b"X-Filler: " + b"a" * 8000 + b"\r\n"
                for _ in range(12):  # ~96KB of headers > the 64KB cap
                    writer.write(filler)
                await writer.drain()
                return await reader.read()
            except ConnectionResetError:
                return None
            finally:
                writer.close()

        raw = asyncio.run(go())
        assert raw is None or b"400" in raw.split(b"\r\n", 1)[0]

    def test_keep_alive_two_requests_one_connection(self, server):
        async def go():
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            req = (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            out = []
            for _ in range(2):
                writer.write(req)
                await writer.drain()
                status_line = await reader.readline()
                out.append(status_line)
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n"):
                        break
                    if line.lower().startswith(b"content-length"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)
            writer.close()
            return out

        lines = asyncio.run(go())
        assert all(b"200" in line for line in lines)


class TestStdio:
    def test_json_lines_round_trip(self, service):
        lines = [
            json.dumps({"op": "healthz", "id": 1}),
            json.dumps({"op": "map", "id": 2, **_map_body(seed=3)}),
            "not json",
            "5",  # valid JSON, not an object: must not kill the loop
            json.dumps({"op": "metrics", "format": "json", "id": 4}),
        ]
        out: list[str] = []

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(("\n".join(lines) + "\n").encode())
            reader.feed_eof()
            await serve_stdio(service, reader, out.append)

        asyncio.run(go())
        replies = [json.loads(line) for line in out]
        assert len(replies) == 5
        # Requests are pipelined, so responses are matched by echoed id,
        # not by position (only the malformed-line errors, answered
        # inline by the read loop, keep their relative input order).
        by_id = {r["id"]: r for r in replies if "id" in r}
        errors = [r for r in replies if "id" not in r]
        assert by_id[1]["status_code"] == 200 and by_id[1]["status"] == "ok"
        assert isinstance(by_id[2]["mu"], list)
        assert [e["error"] for e in errors] == ["bad_request", "bad_request"]
        # The map line precedes the metrics line, and dispatch tasks
        # start in admission order, so the metrics snapshot sees it.
        assert by_id[4]["requests_total"] == 1

    def test_in_flight_pipelining_returns_out_of_order(self, service):
        # A map line waits for its compute; a healthz line sent right
        # behind it must NOT wait for it -- its response overtakes the
        # map's.  This is the contract that makes many back-to-back map
        # lines share one dispatch.
        lines = [
            json.dumps({"op": "map", "id": "slow", **_map_body(seed=11)}),
            json.dumps({"op": "healthz", "id": "quick"}),
        ]
        out: list[str] = []

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(("\n".join(lines) + "\n").encode())
            reader.feed_eof()
            await serve_stdio(service, reader, out.append)

        asyncio.run(go())
        replies = [json.loads(line) for line in out]
        assert [r["id"] for r in replies] == ["quick", "slow"]
        assert all(r["status_code"] == 200 for r in replies)
        assert isinstance(replies[1]["mu"], list)

    def test_concurrent_map_lines_share_a_batch(self, service):
        # Two identical-config map lines admitted in one tick leave in
        # one dispatch -- the whole point of pipelining stdio.
        lines = [
            json.dumps({"op": "map", "id": i, **_map_body(seed=i)})
            for i in (1, 2)
        ]
        out: list[str] = []

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(("\n".join(lines) + "\n").encode())
            reader.feed_eof()
            await serve_stdio(service, reader, out.append)

        asyncio.run(go())
        replies = [json.loads(line) for line in out]
        assert {r["id"] for r in replies} == {1, 2}
        assert all(r["batch"]["size"] == 2 for r in replies)

    def test_oversized_line_answers_error_and_continues(self, service):
        # A line beyond the reader's limit must not kill the session:
        # structured error out, and the *next* line is still served.
        lines = [
            "x" * 4096,  # oversized garbage (no JSON needed)
            json.dumps({"op": "healthz", "id": 9}),
        ]
        out: list[str] = []

        async def go():
            reader = asyncio.StreamReader(limit=256)
            reader.feed_data(("\n".join(lines) + "\n").encode())
            reader.feed_eof()
            await serve_stdio(service, reader, out.append)

        asyncio.run(go())
        replies = [json.loads(line) for line in out]
        assert replies[0]["error"] == "bad_request"
        assert "size limit" in replies[0]["message"]
        assert replies[1]["status_code"] == 200 and replies[1]["id"] == 9

    def test_too_deeply_nested_line_answers_error_and_continues(self, service):
        lines = ["[" * 100_000, json.dumps({"op": "healthz", "id": 9})]
        out: list[str] = []

        async def go():
            reader = asyncio.StreamReader(limit=1 << 20)  # holds the line
            reader.feed_data(("\n".join(lines) + "\n").encode())
            reader.feed_eof()
            await serve_stdio(service, reader, out.append)

        asyncio.run(go())
        replies = [json.loads(line) for line in out]
        assert replies[0]["error"] == "bad_request"
        assert "invalid JSON" in replies[0]["message"]
        assert replies[1]["status_code"] == 200 and replies[1]["id"] == 9

    def test_oversized_final_line_without_newline(self, service):
        out: list[str] = []

        async def go():
            reader = asyncio.StreamReader(limit=256)
            reader.feed_data(b"y" * 4096)  # torn stream, no terminator
            reader.feed_eof()
            await serve_stdio(service, reader, out.append)

        asyncio.run(go())
        assert json.loads(out[0])["error"] == "bad_request"


class TestFailureStatusMapping:
    def test_breaker_open_maps_to_503_with_retry_after(self, service):
        body = _map_body(seed=2)
        gkey = parse_request(body).group_key()
        breaker = service.scheduler.breaker_for(gkey)
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        status, reply, headers = asyncio.run(service.handle("map", body))
        assert status == 503
        assert reply["error"] == "circuit_open"
        assert float(headers["Retry-After"]) > 0

    def test_transient_exhaustion_maps_to_503(self, service):
        from repro.errors import TransientError
        from repro.serve.retry import RetryPolicy

        service.scheduler.retry = RetryPolicy(max_attempts=2, base_delay=0.001)
        body = _map_body(seed=2)
        pipe = service.scheduler.pipeline_for(parse_request(body))

        def explode(*_a, **_k):
            raise TransientError("injected")

        pipe.run = explode
        status, reply, headers = asyncio.run(service.handle("map", body))
        assert status == 503 and reply["error"] == "transient"
        assert float(headers["Retry-After"]) > 0

    def test_permanent_failure_maps_to_500(self, service):
        from repro.errors import PermanentError

        body = _map_body(seed=2)
        pipe = service.scheduler.pipeline_for(parse_request(body))

        def explode(*_a, **_k):
            raise PermanentError("unrecoverable")

        pipe.run = explode
        status, reply, _ = asyncio.run(service.handle("map", body))
        assert status == 500 and reply["error"] == "permanent"

    def test_allow_degraded_parses_and_flags_response(self, service):
        request = parse_request(_map_body(allow_degraded=True))
        assert request.allow_degraded
        # a healthy group serves the full result: no degraded flag leaks
        status, reply, _ = asyncio.run(
            service.handle("map", _map_body(seed=3, allow_degraded=True))
        )
        assert status == 200 and "degraded" not in reply

    def test_repeat_response_carries_cached_flag(self, service):
        # A replayed identity is answered by the response cache before
        # the breaker is consulted: full fidelity, flagged "cached",
        # never "degraded".
        body = _map_body(seed=6, allow_degraded=True)
        status, first, _ = asyncio.run(service.handle("map", body))
        assert status == 200 and "cached" not in first
        gkey = parse_request(body).group_key()
        breaker = service.scheduler.breaker_for(gkey)
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        status, reply, _ = asyncio.run(service.handle("map", body))
        assert status == 200
        assert reply["cached"] is True and "degraded" not in reply
        assert reply["mu"] == first["mu"]

    def test_healthz_exposes_breakers_and_faults(self, service):
        status, reply, _ = asyncio.run(service.handle("healthz", {}))
        assert status == 200
        assert reply["faults_active"] is False
        assert isinstance(reply["breakers"], dict)
