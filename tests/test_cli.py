import json
import multiprocessing
import os
from pathlib import Path

import pytest

from edgebetti import betti, cli
from edgebetti.cli import main
from edgebetti.graph6 import graph6_encode
from edgebetti.graphs import complete, isolated, join, path
from edgebetti.reports import strip_timing

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.lstrip().startswith("{") else out


class TestCompute:
    def test_complete_four(self, capsys):
        code, doc = run(capsys, ["compute", "--graph6", "C~"])
        assert code == 0
        assert doc["results"]["pd"] == 2 and doc["results"]["reg"] == 2

    def test_path_five(self, capsys):
        code, doc = run(capsys, ["compute", "--graph6", graph6_encode(path(5))])
        assert code == 0
        assert (doc["results"]["pd"], doc["results"]["reg"]) == (3, 5)

    def test_edge_list_input(self, capsys):
        code, doc = run(capsys, ["compute", "--edges", "1-2,2-3"])
        assert code == 0
        assert (doc["results"]["pd"], doc["results"]["reg"]) == (1, 3)

    def test_betti_triples_sorted(self, capsys):
        code, doc = run(capsys, ["compute", "--graph6", "C~", "--betti"])
        triples = doc["results"]["betti"]
        assert triples == sorted(triples)
        assert triples[0] == [0, 0, 1]

    def test_betti_runs_hochster_once(self, capsys, monkeypatch):
        calls = []
        hochster = betti.betti_table_hochster

        def counted(*args, **kwargs):
            calls.append(args)
            return hochster(*args, **kwargs)

        monkeypatch.setattr(betti, "betti_table_hochster", counted)
        g6 = graph6_encode(path(5))
        code, doc = run(capsys, ["compute", "--graph6", g6, "--betti"])
        assert code == 0
        assert len(calls) == 1
        assert (doc["results"]["pd"], doc["results"]["reg"]) == (3, 5)
        code, plain = run(capsys, ["compute", "--graph6", g6])
        assert len(calls) == 2
        del doc["results"]["betti"]
        assert strip_timing(plain)["results"] == strip_timing(doc)["results"]

    def test_edgeless_is_a_structured_error(self, capsys):
        code, doc = run(capsys, ["compute", "--graph6", "C?"])
        assert code == 2
        assert "error" in doc["results"]

    def test_over_budget_exits_2(self, capsys):
        edges = ",".join(f"{i}-{j}" for i, j in complete(12).edges())
        code, doc = run(capsys, ["compute", "--edges", edges])
        assert code == 2
        assert "active slots exceed the exhaustive budget" in doc["results"]["error"]

    def test_isolated_vertex_rejected(self, capsys):
        code, doc = run(capsys, ["compute", "--edges", "1-2", "--n", "3"])
        assert code == 2
        assert "isolated" in doc["results"]["error"]

    def test_bad_graph6(self, capsys):
        code, _ = run(capsys, ["compute", "--graph6", "B~"])
        assert code == 2

    @pytest.mark.parametrize(
        "g, depth",
        [
            (complete(3), 4),
            (path(4), 5),
            # a join with two independent universal vertices has minimal depth
            (join(path(3), isolated(2)), 4),
        ],
        ids=["K3", "P4", "P3_join_2K1"],
    )
    def test_depth_of_quotient(self, capsys, g, depth):
        code, doc = run(capsys, ["compute", "--graph6", graph6_encode(g)])
        assert code == 0
        assert doc["results"]["depth_of_quotient"] == depth


class TestConstruct:
    def test_witness_verified(self, capsys):
        code, doc = run(capsys, ["construct", "--n", "6", "--pd", "7", "--reg", "3"])
        assert code == 0
        assert doc["results"]["claimed_pd"] == 7
        assert doc["results"]["claimed_reg"] == 3
        assert doc["results"]["verified"] is True
        assert doc["field"] == "q"  # realize verifies over Q

    def test_large_n_skips_certificate(self, capsys):
        code, doc = run(capsys, ["construct", "--n", "9", "--pd", "7", "--reg", "2"])
        assert code == 0
        assert doc["results"]["verified"] is False

    def test_undetermined_slice(self, capsys):
        code, doc = run(capsys, ["construct", "--n", "6", "--pd", "5", "--reg", "5"])
        assert code == 2
        assert "undetermined" in doc["results"]["error"]

    @pytest.mark.parametrize("n, pd, reg", [(32, 30, 32), (40, 38, 2)])
    def test_above_the_vertex_ceiling_is_a_structured_error(self, capsys, n, pd, reg):
        argv = ["construct", "--n", str(n), "--pd", str(pd), "--reg", str(reg)]
        code, doc = run(capsys, argv)
        assert code == 2
        assert "vertex ceiling 31" in doc["results"]["error"]

    def test_connected_flag(self, capsys):
        code, doc = run(
            capsys,
            ["construct", "--n", "5", "--pd", "3", "--reg", "3", "--connected"],
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--n", "6", "--pd", "7", "--reg", "3", "--field", "f2"],
            ["construct", "--n", "6", "--pd", "7", "--reg", "3", "--jobs", "1"],
            ["compute", "--graph6", "C~", "--jobs", "1"],
        ],
    )
    def test_options_it_would_ignore_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestVerifyAndAtlas:
    def test_verify_n3(self, capsys):
        code, doc = run(capsys, ["verify", "--n", "3", "--jobs", "1"])
        assert code == 0
        assert doc["results"]["passed"] is True

    @staticmethod
    def assert_atlas_matches_golden(capsys, tmp_path, n):
        out = tmp_path / f"atlas{n}.json"
        code = main(["atlas", "--n", str(n), "--jobs", "1", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        got = strip_timing(json.loads(out.read_text()))
        want = strip_timing(json.loads((FIXTURES / f"atlas_n{n}_report.json").read_text()))
        assert got == want

    def test_atlas_n4_matches_golden(self, capsys, tmp_path):
        self.assert_atlas_matches_golden(capsys, tmp_path, 4)

    def test_atlas_n5_matches_golden(self, capsys, tmp_path):
        # nine witnesses, each the first class in canonical-key order with its pair
        self.assert_atlas_matches_golden(capsys, tmp_path, 5)

    def test_atlas_report_roundtrips(self, capsys):
        code, doc = run(capsys, ["atlas", "--n", "3", "--jobs", "1"])
        assert code == 0
        assert json.loads(json.dumps(doc)) == doc

    def test_n7_gated(self, capsys):
        code, doc = run(capsys, ["atlas", "--n", "7"])
        assert code == 2
        assert "slow" in doc["results"]["error"]

    def test_conjecture_n5(self, capsys):
        code, doc = run(capsys, ["conjecture", "--n", "5", "--jobs", "1"])
        assert code == 0
        assert doc["results"]["passed"] is True


class TestOneAtlasPerCommand:
    @pytest.fixture
    def atlas_calls(self, monkeypatch):
        calls = []
        compute_atlas = cli.compute_atlas

        def counted(*args, **kwargs):
            calls.append(args)
            return compute_atlas(*args, **kwargs)

        monkeypatch.setattr(cli, "compute_atlas", counted)
        return calls

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["verify", "--n", "5"], 1),
            (["verify", "--n", "5", "--suite", "compositions"], 0),
            (["conjecture", "--n", "5"], 1),
            (["atlas", "--n", "5"], 1),
        ],
    )
    def test_compute_atlas_calls(self, capsys, atlas_calls, argv, want):
        code, _ = run(capsys, argv + ["--jobs", "1"])
        assert code == 0
        assert len(atlas_calls) == want

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two cores")
    def test_verify_report_independent_of_jobs(self, capsys):
        _, serial = run(capsys, ["verify", "--n", "5", "--jobs", "1"])
        _, pooled = run(capsys, ["verify", "--n", "5", "--jobs", "2"])
        assert strip_timing(serial) == strip_timing(pooled)
        assert serial["results"]["checks_run"] == 71  # 1 + 23 + 23 + 24


class TestJobsValidation:
    @pytest.mark.parametrize("cmd", ["atlas", "verify", "conjecture"])
    def test_out_of_range_refused_before_any_pool(self, capsys, monkeypatch, cmd):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        for jobs in (0, (os.cpu_count() or 1) + 1):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--n", "5", "--jobs", str(jobs)])
            assert exc.value.code == 2
            assert "--jobs must be between 1 and" in capsys.readouterr().err
