"""Tests for the top-level file-based CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.graphs import generators as gen
from repro.graphs.io import write_metis


@pytest.fixture
def graph_file(tmp_path):
    g = gen.barabasi_albert(200, 3, seed=1)
    path = tmp_path / "app.graph"
    write_metis(g, path)
    return str(path)


@pytest.fixture
def torus_file(tmp_path):
    g = gen.torus(4, 4)
    path = tmp_path / "torus.graph"
    write_metis(g, path)
    return str(path)


class TestInfoRecognize:
    def test_info(self, graph_file, capsys):
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "vertices: 200" in out

    def test_recognize_positive(self, torus_file, capsys):
        assert main(["recognize", torus_file]) == 0
        assert "dimension 4" in capsys.readouterr().out

    def test_recognize_labels(self, torus_file, capsys):
        assert main(["recognize", torus_file, "--labels"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1 + 16

    def test_recognize_negative(self, graph_file, capsys):
        assert main(["recognize", graph_file]) == 1
        assert "NOT a partial cube" in capsys.readouterr().out


class TestPartitionMapEnhance:
    def test_partition_to_file(self, graph_file, tmp_path):
        out = tmp_path / "part.txt"
        assert main(["partition", graph_file, "8", "-o", str(out)]) == 0
        values = [int(x) for x in out.read_text().split()]
        assert len(values) == 200
        assert set(values) == set(range(8))

    def test_map_by_topology_name(self, graph_file, tmp_path):
        out = tmp_path / "mu.txt"
        assert main(["map", graph_file, "grid4x4", "--case", "c3", "-o", str(out)]) == 0
        values = [int(x) for x in out.read_text().split()]
        assert len(values) == 200 and max(values) < 16

    def test_map_by_topology_file(self, graph_file, torus_file, tmp_path):
        out = tmp_path / "mu.txt"
        assert main(["map", graph_file, torus_file, "-o", str(out)]) == 0
        assert len(out.read_text().split()) == 200

    def test_map_rejects_non_partial_cube_topology_file(
        self, graph_file, tmp_path, capsys
    ):
        """Historical contract: map validates the topology up front."""
        from repro.graphs import generators as gen
        from repro.graphs.io import write_metis

        bad = tmp_path / "c5.graph"
        write_metis(gen.cycle(5), bad)  # odd cycle: not even bipartite
        rc = main(["map", graph_file, str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_map_unknown_topology_name(self, graph_file, capsys):
        rc = main(["map", graph_file, "klein-bottle"])
        assert rc == 2
        assert "unknown topology" in capsys.readouterr().err

    def test_enhance_round_trip(self, graph_file, tmp_path, capsys):
        mu_file = tmp_path / "mu.txt"
        out_file = tmp_path / "mu2.txt"
        main(["map", graph_file, "grid4x4", "-o", str(mu_file)])
        rc = main(
            ["enhance", graph_file, "grid4x4", str(mu_file),
             "--nh", "4", "-o", str(out_file)]
        )
        assert rc == 0
        before = [int(x) for x in mu_file.read_text().split()]
        after = [int(x) for x in out_file.read_text().split()]
        assert sorted(np.bincount(before, minlength=16)) == sorted(
            np.bincount(after, minlength=16)
        )
        assert "Coco" in capsys.readouterr().err

    def test_enhance_kl_strategy(self, graph_file, tmp_path):
        mu_file = tmp_path / "mu.txt"
        main(["map", graph_file, "grid4x4", "-o", str(mu_file)])
        rc = main(
            ["enhance", graph_file, "grid4x4", str(mu_file),
             "--nh", "2", "--strategy", "kl", "-o", str(tmp_path / "o.txt")]
        )
        assert rc == 0

    def test_enhance_bad_mu_length(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0\n1\n")
        rc = main(["enhance", graph_file, "grid4x4", str(bad), "--nh", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestPipelineByteEquivalence:
    """`map`/`enhance` ride repro.api.Pipeline now; on fixed seeds their
    output files must be byte-identical to the pre-redesign hand-wired
    sequence (partition_kway -> compute_initial_mapping -> timer_enhance
    with the CLI's historical raw per-stage seeding)."""

    @pytest.mark.parametrize("case", ["c1", "c2", "c3", "c4"])
    def test_map_output_bytes(self, graph_file, tmp_path, case):
        from repro.experiments.topologies import make_topology
        from repro.graphs.io import read_metis
        from repro.mapping.mapper import compute_initial_mapping
        from repro.partitioning.kway import partition_kway

        out = tmp_path / "mu.txt"
        assert main(
            ["map", graph_file, "grid4x4", "--case", case,
             "--seed", "17", "-o", str(out)]
        ) == 0
        g = read_metis(graph_file, name="app")
        gp, _pc = make_topology("grid4x4")
        part = partition_kway(g, gp.n, epsilon=0.03, seed=17)
        mu, _ = compute_initial_mapping(case, part, gp, seed=17)
        expected = "\n".join(str(int(v)) for v in mu) + "\n"
        assert out.read_text() == expected

    @pytest.mark.parametrize("strategy", ["greedy", "kl"])
    def test_enhance_output_bytes(self, graph_file, tmp_path, strategy):
        from repro.core.config import TimerConfig
        from repro.core.enhancer import timer_enhance
        from repro.experiments.topologies import make_topology
        from repro.graphs.io import read_metis

        mu_file = tmp_path / "mu.txt"
        out = tmp_path / "enh.txt"
        main(["map", graph_file, "grid4x4", "-o", str(mu_file)])
        assert main(
            ["enhance", graph_file, "grid4x4", str(mu_file),
             "--nh", "3", "--strategy", strategy, "--seed", "8",
             "-o", str(out)]
        ) == 0
        g = read_metis(graph_file, name="app")
        gp, pc = make_topology("grid4x4")
        mu0 = np.asarray(
            [int(x) for x in mu_file.read_text().split()], dtype=np.int64
        )
        res = timer_enhance(
            g, gp, pc, mu0, seed=8,
            config=TimerConfig(n_hierarchies=3, swap_strategy=strategy),
        )
        expected = "\n".join(str(int(v)) for v in res.mu_after) + "\n"
        assert out.read_text() == expected


class TestVerifyReportFlags:
    def test_map_with_hooks(self, graph_file, tmp_path, capsys):
        out = tmp_path / "mu.txt"
        assert main(
            ["map", graph_file, "grid4x4", "--verify", "labeling-isometric",
             "--report", "summary", "--report", "quality", "-o", str(out)]
        ) == 0
        err = capsys.readouterr().err
        assert "[report summary]" in err and "[report quality]" in err

    def test_enhance_with_hooks(self, graph_file, tmp_path, capsys):
        mu_file = tmp_path / "mu.txt"
        out = tmp_path / "enh.txt"
        main(["map", graph_file, "grid4x4", "-o", str(mu_file)])
        assert main(
            ["enhance", graph_file, "grid4x4", str(mu_file), "--nh", "1",
             "--verify", "labeling-isometric", "--report", "summary",
             "-o", str(out)]
        ) == 0
        assert "[report summary]" in capsys.readouterr().err

    def test_unknown_verify_lists_known_names(self, graph_file, capsys):
        assert main(["map", graph_file, "grid4x4", "--verify", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown verify 'nope'" in err
        assert "labeling-isometric" in err  # the known names are listed

    def test_unknown_report_lists_known_names(self, graph_file, capsys):
        assert main(["map", graph_file, "grid4x4", "--report", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown report 'nope'" in err and "summary" in err

    def test_hooks_do_not_change_output_bytes(self, graph_file, tmp_path):
        plain = tmp_path / "plain.txt"
        hooked = tmp_path / "hooked.txt"
        main(["map", graph_file, "grid4x4", "--seed", "3", "-o", str(plain)])
        main(
            ["map", graph_file, "grid4x4", "--seed", "3", "-o", str(hooked),
             "--verify", "labeling-isometric", "--report", "quality"]
        )
        assert plain.read_text() == hooked.read_text()


class TestWideTopologyEndToEnd:
    """fattree2x7 (255 PEs, 254 classes) through the full CLI pipeline."""

    @pytest.fixture
    def big_graph_file(self, tmp_path):
        g = gen.barabasi_albert(520, 3, seed=2)
        path = tmp_path / "big.graph"
        write_metis(g, path)
        return str(path)

    def test_map_and_enhance_fattree2x7(self, big_graph_file, tmp_path, capsys):
        mu_file = tmp_path / "mu.txt"
        out = tmp_path / "enh.txt"
        assert main(
            ["map", big_graph_file, "fattree2x7", "--seed", "1",
             "--verify", "labeling-isometric", "-o", str(mu_file)]
        ) == 0
        values = [int(x) for x in mu_file.read_text().split()]
        assert len(values) == 520 and max(values) < 255
        assert main(
            ["enhance", big_graph_file, "fattree2x7", str(mu_file),
             "--nh", "2", "--seed", "1", "-o", str(out)]
        ) == 0
        err = capsys.readouterr().err
        assert "accepted" in err
        enhanced = [int(x) for x in out.read_text().split()]
        assert np.array_equal(
            np.bincount(values, minlength=255),
            np.bincount(enhanced, minlength=255),
        )  # TIMER preserves per-PE block sizes exactly


class TestServeLoadgenCommands:
    """The serving subcommands: parsing, and loadgen against a live server."""

    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-batch", "4",
             "--max-sessions", "2", "--warm", "grid4x4", "--stdio"]
        )
        assert args.max_batch == 4 and args.stdio
        assert args.warm == ["grid4x4"]
        with pytest.raises(SystemExit):  # the batching window is gone
            build_parser().parse_args(["serve", "--window-ms", "10"])

    def test_loadgen_against_live_server(self, tmp_path, capsys):
        from repro.api.topology import Topology, session_cache
        from repro.serve.service import ServeSettings, ServerThread

        limit = session_cache().max_sessions
        out = tmp_path / "loadgen.json"
        try:
            with ServerThread(
                ServeSettings(port=0, max_batch=8)
            ) as srv:
                rc = main(
                    ["loadgen", srv.url, "--requests", "6", "--rate", "200",
                     "--nh", "1", "--seed-pool", "1", "--out", str(out)]
                )
        finally:
            session_cache().set_limit(limit)
            Topology.clear_sessions()
        assert rc == 0
        err = capsys.readouterr().err
        assert "6/6 ok" in err
        import json

        report = json.loads(out.read_text())
        assert report["ok"] == 6
        assert report["latency"]["p95"] > 0
