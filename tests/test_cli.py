import dataclasses
import json
import time

import numpy as np
import pytest

from suffreduce.cli import main
from suffreduce.estimators import (
    ConvergenceError,
    EstimatorSpec,
    Family,
    SolverOptions,
    solve_decomposed,
)
from suffreduce.io import read_matrix_csv, write_matrix_csv
from suffreduce.penalty import PenaltyKind, PenaltySpec


def write_lines(path, text):
    path.write_text(text)
    return str(path)


def load_strict_json(path):
    """JSON from path, refusing the NaN/Infinity literals strict JSON lacks."""
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture
def matrix3(tmp_path):
    return write_lines(tmp_path / "m.csv", "1,0.8,0.1\n0.8,1,0.5\n0.1,0.5,1\n")


class TestCov:
    def test_round_trip(self, tmp_path):
        votes = write_lines(tmp_path / "v.csv", "1,1\n1,-1\n")
        out = tmp_path / "cov.csv"
        assert main(["cov", votes, "-o", str(out)]) == 0
        assert np.array_equal(read_matrix_csv(out), np.eye(2))

    def test_entry_domain_enforced(self, tmp_path, capsys):
        votes = write_lines(tmp_path / "v.csv", "1,0.5\n-1,1\n")
        out = tmp_path / "cov.csv"
        assert main(["cov", votes, "-o", str(out)]) == 2
        assert "general" in capsys.readouterr().err
        assert main(["cov", votes, "-o", str(out), "--general"]) == 0

    def test_empty_input(self, tmp_path):
        votes = write_lines(tmp_path / "v.csv", "")
        assert main(["cov", votes, "-o", str(tmp_path / "c.csv")]) == 2

    def test_ragged_input(self, tmp_path):
        votes = write_lines(tmp_path / "v.csv", "1,1\n1\n")
        assert main(["cov", votes, "-o", str(tmp_path / "c.csv")]) == 2

    def test_single_row(self, tmp_path):
        votes = write_lines(tmp_path / "v.csv", "1,-1\n")
        out = tmp_path / "c.csv"
        assert main(["cov", votes, "-o", str(out)]) == 0
        assert np.array_equal(read_matrix_csv(out), [[1.0, -1.0], [-1.0, 1.0]])


class TestCluster:
    def test_dendrogram_and_cut(self, tmp_path, matrix3):
        dj = tmp_path / "d.json"
        cc = tmp_path / "c.csv"
        assert main(["cluster", matrix3, "--lam", "0.6",
                     "--dendrogram", str(dj), "--clusters", str(cc)]) == 0
        d = json.loads(dj.read_text())
        assert d["leaves"] == 3
        assert [m["height"] for m in d["merges"]] == [0.8, 0.5]
        assert np.array_equal(
            read_matrix_csv(cc), [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
        )

    def test_dendrogram_only(self, tmp_path, matrix3):
        dj = tmp_path / "d.json"
        assert main(["cluster", matrix3, "--dendrogram", str(dj)]) == 0
        assert dj.exists()

    def test_clusters_need_level(self, tmp_path, matrix3):
        dj = tmp_path / "d.json"
        assert main(["cluster", matrix3, "--dendrogram", str(dj),
                     "--clusters", str(tmp_path / "c.csv")]) == 2
        assert not dj.exists()

    def test_asymmetric_input_rejected(self, tmp_path):
        bad = write_lines(tmp_path / "bad.csv", "1,0.9\n0.1,1\n")
        assert main(["cluster", bad, "--dendrogram", str(tmp_path / "d.json")]) == 2

    def test_nan_level_rejected(self, tmp_path, matrix3):
        cc, dj = tmp_path / "c.csv", tmp_path / "d.json"
        for lam in ("nan", "-1"):
            assert main(["cluster", matrix3, "--dendrogram", str(dj),
                         "--lam", lam, "--clusters", str(cc)]) == 2
            assert not cc.exists() and not dj.exists()

    def test_p1(self, tmp_path):
        one = write_lines(tmp_path / "one.csv", "2.0\n")
        dj = tmp_path / "d.json"
        assert main(["cluster", one, "--dendrogram", str(dj)]) == 0
        assert json.loads(dj.read_text()) == {"leaves": 1, "merges": []}


class TestThreshold:
    def test_l1_mode(self, tmp_path, matrix3):
        out, mask = tmp_path / "t.csv", tmp_path / "m.csv"
        assert main(["threshold", matrix3, "--lam", "0.6",
                     "-o", str(out), "--mask", str(mask)]) == 0
        assert np.allclose(
            read_matrix_csv(out), [[1, 0.8, 0], [0.8, 1, 0], [0, 0, 1]]
        )
        assert np.array_equal(
            read_matrix_csv(mask), [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
        )

    def test_l1_needs_level(self, tmp_path, matrix3):
        assert main(["threshold", matrix3, "-o", str(tmp_path / "t.csv")]) == 2

    def test_positive_mode(self, tmp_path):
        src = write_lines(tmp_path / "x.csv", "2,-0.5\n-0.5,3\n")
        out = tmp_path / "t.csv"
        assert main(["threshold", src, "--mode", "positive", "-o", str(out)]) == 0
        assert np.array_equal(read_matrix_csv(out), [[2, 0], [0, 3]])


class TestSolve:
    def test_glasso_identity(self, tmp_path):
        src = write_lines(tmp_path / "i.csv", "1,0\n0,1\n")
        out, rep = tmp_path / "e.csv", tmp_path / "r.json"
        assert main(["solve", src, "--estimator", "glasso", "--lam", "0",
                     "-o", str(out), "--report", str(rep)]) == 0
        assert np.allclose(read_matrix_csv(out), np.eye(2), atol=1e-8)
        r = json.loads(rep.read_text())
        assert r["converged"] is True
        assert r["estimator"] == "glasso"
        assert r["kkt_residual"] <= 1e-8

    def test_report_is_strict_json(self, tmp_path, matrix3):
        rep = tmp_path / "r.json"
        assert main(["solve", matrix3, "--estimator", "glasso", "--lam", "inf",
                     "-o", str(tmp_path / "e.csv"), "--report", str(rep)]) == 0

        r = load_strict_json(rep)
        assert r["lam"] == "inf" and r["converged"] is True

    def test_fps_rank_one(self, tmp_path):
        src = write_lines(tmp_path / "d.csv", "3,0\n0,1\n")
        out = tmp_path / "e.csv"
        assert main(["solve", src, "--estimator", "fps", "--lam", "0", "--k", "1",
                     "-o", str(out)]) == 0
        assert np.allclose(read_matrix_csv(out), np.diag([1.0, 0.0]), atol=1e-6)

    def test_decomposed_matches(self, tmp_path, rng):
        from suffreduce.instances import random_instance

        x = random_instance(rng, 12, n_blocks=3, cross=0.0)
        src = tmp_path / "x.csv"
        write_matrix_csv(src, x.dense())
        e1, e2, rep = tmp_path / "e1.csv", tmp_path / "e2.csv", tmp_path / "r.json"
        args = ["solve", str(src), "--estimator", "glasso", "--lam", "0.3"]
        assert main(args + ["-o", str(e1)]) == 0
        assert main(args + ["--decompose", "on", "-o", str(e2), "--report", str(rep)]) == 0
        assert np.max(np.abs(read_matrix_csv(e1) - read_matrix_csv(e2))) <= 1e-5
        blocks = json.loads(rep.read_text())["blocks"]
        assert len(blocks) >= 2
        assert all("seconds" in b and "iterations" in b for b in blocks)

    def test_ising_p_cap(self, tmp_path):
        src = tmp_path / "big.csv"
        write_matrix_csv(src, np.eye(20))
        assert main(["solve", str(src), "--estimator", "ising", "--lam", "0.1",
                     "-o", str(tmp_path / "e.csv")]) == 2

    def test_solver_failure_exit_code(self, tmp_path):
        # unpenalized diagonal cannot match a zero diagonal entry
        src = write_lines(tmp_path / "z.csv", "0,0\n0,1\n")
        assert main(["solve", src, "--estimator", "glasso", "--lam", "0.5",
                     "-o", str(tmp_path / "e.csv")]) == 3

    def test_infinite_weight_without_solution_exit_code(self, tmp_path, matrix3):
        # no feasible point has a finite objective: a solver failure, not a usage error
        assert main(["solve", matrix3, "--estimator", "sparse_cov", "--eps", "0.1",
                     "--lam", "inf", "-o", str(tmp_path / "e.csv")]) == 3

    def test_nonconvergence_exit_code(self, tmp_path):
        # at lam 0.2 the thresholded graph is the 4-cycle 0-1-2-3, which is not
        # chordal, so the solve has no closed form and must iterate (8 times)
        src = tmp_path / "x.csv"
        write_matrix_csv(src, np.array([[1.0, 0.4, 0.1, 0.4], [0.4, 1.0, 0.4, 0.1],
                                        [0.1, 0.4, 1.0, 0.4], [0.4, 0.1, 0.4, 1.0]]))
        args = ["solve", str(src), "--estimator", "glasso", "--lam", "0.2",
                "-o", str(tmp_path / "e.csv")]
        assert main(args + ["--max-iter", "2"]) == 3
        assert main(args + ["--max-iter", "8"]) == 0

    def test_uncertified_closed_form_exit_code(self, tmp_path, ill_conditioned):
        src = tmp_path / "ill.csv"
        write_matrix_csv(src, ill_conditioned)
        args = ["solve", str(src), "--estimator", "glasso", "--lam", "0",
                "-o", str(tmp_path / "e.csv")]
        assert main(args + ["--tol", "1e-9"]) == 3
        assert main(args + ["--tol", "1e-6"]) == 0

    @pytest.mark.parametrize("flag, value", [
        ("--max-iter", "0"), ("--tol", "-1"), ("--tol", "0"),
    ])
    def test_invalid_solver_options_are_usage_errors(self, tmp_path, matrix3, flag, value):
        assert main(["solve", matrix3, "--estimator", "glasso", "--lam", "0.3",
                     flag, value, "-o", str(tmp_path / "e.csv")]) == 2

    def test_unknown_estimator(self, tmp_path, matrix3, capsys):
        assert main(["solve", matrix3, "--estimator", "magic",
                     "-o", str(tmp_path / "e.csv")]) == 2


class TestVerifyCommand:
    def test_green_run(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main(["verify", "--suite", "minimality", "--seed", "0",
                     "--sizes", "4,5", "-o", str(out)])
        assert code == 0
        s = json.loads(out.read_text())
        assert s["passed"] == s["trials"] > 0
        assert "checks passed" in capsys.readouterr().out

    def test_failed_solve_summary_is_strict_json(self, tmp_path, monkeypatch):
        from suffreduce import verify

        def fail(spec, x, tol):
            raise ConvergenceError("forced")

        monkeypatch.setattr(verify, "check_sufficiency", fail)
        out = tmp_path / "s.json"
        assert main(["verify", "--suite", "sufficiency", "--families", "glasso",
                     "--sizes", "4", "-o", str(out)]) == 1

        s = load_strict_json(out)
        assert s["failures"][0]["deviation"] == "inf"
        assert s["worst_deviation"]["sufficiency"] == "inf"

    def test_bad_sizes(self, tmp_path):
        assert main(["verify", "--sizes", "1", "-o", str(tmp_path / "s.json")]) == 2

    def test_unknown_family_name(self, capsys):
        # "fps" is the solve --estimator name; verify takes family values
        assert main(["verify", "--suite", "sufficiency", "--families", "glaso,fps",
                     "--sizes", "4"]) == 2
        err = capsys.readouterr().err
        assert "unknown families: ['fps', 'glaso']" in err
        assert "valid: fantope_spca, glasso, ising_pmle, positive_invcov, sparse_cov" in err

    def test_bad_suite_name(self, tmp_path):
        assert main(["verify", "--suite", "bogus"]) == 2


class TestBench:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        start = time.perf_counter()
        assert main(["bench", "--p", "50", "--blocks", "5", "--lam", "0.3",
                     "-o", str(out)]) == 0
        assert time.perf_counter() - start < 10.0
        b = json.loads(out.read_text())
        assert b["max_deviation"] <= 1e-5
        assert b["seconds_direct"] > 0 and b["seconds_decomposed"] > 0
        assert b["speedup"] == pytest.approx(
            b["seconds_direct"] / b["seconds_decomposed"], rel=1e-6
        )

    def test_blocks_at_start(self, tmp_path):
        """The payload counts the decomposed blocks that left at 0
        iterations, as the decomposed solve of the same planted input
        reports them; at lam 0.3 most blocks do, and the rest iterate."""
        from suffreduce.instances import random_instance

        out = tmp_path / "b.json"
        assert main(["bench", "--p", "50", "--blocks", "5", "--lam", "0.3",
                     "-o", str(out)]) == 0
        b = json.loads(out.read_text())
        x = random_instance(np.random.default_rng(0), 50, n_blocks=5, within=0.6, cross=0.0)
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3),
                             opts=SolverOptions(tol=1e-7))
        rep = solve_decomposed(spec, x)
        at_start = sum(blk.iterations == 0 for blk in rep.blocks)
        assert b["blocks_at_start"] == at_start == 4 < len(rep.blocks)
        assert b["iterations_decomposed"] == rep.iterations > 0

    def test_ising_above_the_enumeration_cap(self, tmp_path, monkeypatch, capsys):
        """At p = 24 only the decomposed path can solve planted sign data;
        the payload says the direct solve was skipped, and an uncertified
        decomposed solve still exits 3."""
        out = tmp_path / "b.json"
        argv = ["bench", "--estimator", "ising", "--p", "24", "--blocks", "2", "-o", str(out)]
        assert main(argv) == 0
        b = json.loads(out.read_text())
        assert b["estimator"] == "ising" and b["solved_directly"] is False
        assert b["seconds_direct"] is None and b["max_deviation"] is None
        assert b["seconds_decomposed"] > 0 and b["iterations_decomposed"] > 0
        assert "no direct solve" in capsys.readouterr().out

        from suffreduce import cli

        solver = cli.solve_decomposed
        monkeypatch.setattr(cli, "solve_decomposed", lambda spec, x: dataclasses.replace(
            solver(spec, x), converged=False))
        assert main(argv) == 3
        assert "decomposed ising: kkt residual" in capsys.readouterr().err

    def test_ising_within_the_cap_solves_both_ways(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bench", "--estimator", "ising", "--p", "12", "--blocks", "2",
                     "-o", str(out)]) == 0
        b = json.loads(out.read_text())
        assert b["solved_directly"] is True and b["max_deviation"] <= 1e-5

    @pytest.mark.parametrize("entry", ["solve", "solve_decomposed"])
    def test_uncertified_solve_exit_code(self, monkeypatch, capsys, entry):
        from suffreduce import cli

        solver = getattr(cli, entry)
        monkeypatch.setattr(cli, entry, lambda spec, x: dataclasses.replace(
            solver(spec, x), converged=False))
        assert main(["bench", "--p", "30", "--blocks", "3", "--lam", "0.3"]) == 3
        assert "kkt residual" in capsys.readouterr().err


class TestRoundTrip:
    def test_csv_bit_exact(self, tmp_path, rng):
        a = rng.standard_normal((7, 7))
        path = tmp_path / "a.csv"
        write_matrix_csv(path, a)
        assert np.array_equal(read_matrix_csv(path), a)

    def test_usage_errors(self):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        assert main(["solve"]) == 2
