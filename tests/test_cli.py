"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.api import AdvisorSession, SolveRequest, SolverResponse
from repro.cli import build_graph, build_parser, build_solver, main
from repro.core import DeploymentProblem
from repro.solvers.mip.deployment import MipDeploymentSolver


class TestParserAndBuilders:
    def test_parser_rejects_missing_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_rejects_unknown_provider(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise", "--provider", "unknown-cloud"])

    @pytest.mark.parametrize("argv, removed", [
        (["solve", "--problem", "problem.json"], ["--eval-workers", "2"]),
        (["solve-batch", "--problem", "problem.json"],
         ["--eval-workers", "2"]),
        (["watch", "--problem", "problem.json", "--trace", "trace.json"],
         ["--eval-workers", "2"]),
        (["serve"], ["--eval-workers", "2"]),
        (["watch", "--problem", "problem.json", "--trace", "trace.json"],
         ["--cache-dir", "cache"]),
        (["solve", "--problem", "problem.json"], ["--peek-block", "8"]),
        (["solve-batch", "--problem", "problem.json"],
         ["--peek-block", "8"]),
        (["solve-batch", "--problem", "problem.json"], ["--workers", "2"]),
    ], ids=["solve", "solve-batch", "watch", "serve", "watch-cache-dir",
            "solve-peek-block", "solve-batch-peek-block",
            "solve-batch-workers"])
    def test_parser_rejects_removed_flags(self, argv, removed, capsys):
        # Evaluation is serial, batches run in order, the local-search
        # block size is a constant and the SQLite store (--store) is the
        # only result cache: a script still passing an old flag fails at
        # parse time instead of having it silently ignored.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*argv, *removed])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in \
            capsys.readouterr().err

    def test_build_graph_templates(self):
        parser = build_parser()
        mesh = build_graph(parser.parse_args(["advise", "--template", "mesh",
                                              "--rows", "3", "--cols", "4"]))
        assert mesh.num_nodes == 12
        tree = build_graph(parser.parse_args(["advise", "--template", "tree",
                                              "--branching", "2", "--depth", "2"]))
        assert tree.num_nodes == 7
        bipartite = build_graph(parser.parse_args(["advise", "--template", "bipartite",
                                                   "--frontends", "2",
                                                   "--storage", "3"]))
        assert bipartite.num_nodes == 5
        ring = build_graph(parser.parse_args(["advise", "--template", "ring",
                                              "--nodes", "6"]))
        assert ring.num_nodes == 6
        cube = build_graph(parser.parse_args(["advise", "--template", "hypercube",
                                              "--dimension", "3"]))
        assert cube.num_nodes == 8

    def test_build_solver_names(self):
        assert build_solver("auto") is None
        assert build_solver("cp") == "cp"
        assert build_solver("mip") == "mip"
        assert build_solver("greedy") == "greedy"
        assert build_solver("random") == "r2"
        assert build_solver("portfolio") == "portfolio"
        with pytest.raises(SystemExit):
            build_solver("cplex")


class TestCommands:
    def test_templates_command(self, capsys):
        assert main(["templates"]) == 0
        output = capsys.readouterr().out
        assert "mesh" in output and "bipartite" in output

    def test_providers_command(self, capsys):
        assert main(["providers", "--instances", "10", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "ec2" in output and "rackspace" in output

    def test_measure_command(self, capsys):
        assert main(["measure", "--instances", "6", "--samples", "4",
                     "--seed", "2"]) == 0
        output = capsys.readouterr().out
        assert "probes sent" in output
        assert "p90 / p10 spread" in output

    def test_advise_command_with_greedy_solver(self, capsys):
        exit_code = main([
            "advise", "--template", "mesh", "--rows", "3", "--cols", "3",
            "--solver", "greedy", "--samples", "4", "--time-limit", "1",
            "--show-plan", "--seed", "3",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "ClouDiA recommendation" in output
        assert "deployment plan" in output
        assert "predicted improvement" in output

    def test_advise_mip_above_the_ceiling_exits_2_before_any_solve(
            self, capsys):
        # 127 nodes: a named MIP is refused by its 64-node ceiling exactly
        # like ``auto`` on the same problem, and never reaches the solver
        # (token passing is the quickest measurement of 140 instances).
        with mock.patch.object(MipDeploymentSolver, "_solve",
                               side_effect=AssertionError("MIP reached")
                               ) as solve:
            exit_code = main([
                "advise", "--template", "tree", "--branching", "2",
                "--depth", "6", "--objective", "longest_path",
                "--solver", "mip", "--samples", "1", "--seed", "1",
                "--measurement", "token-passing",
            ])
        assert exit_code == 2
        assert "solver mip handles at most 64 nodes" in capsys.readouterr().err
        solve.assert_not_called()

    def test_advise_command_longest_path_random_solver(self, capsys):
        exit_code = main([
            "advise", "--template", "tree", "--branching", "2", "--depth", "2",
            "--objective", "longest_path", "--solver", "random",
            "--samples", "4", "--time-limit", "1", "--seed", "4",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "longest_path" in output

    def test_solvers_command_lists_registry(self, capsys):
        assert main(["solvers"]) == 0
        output = capsys.readouterr().out
        for key in ("cp", "mip", "greedy", "portfolio"):
            assert key in output

    def test_solvers_json_is_machine_readable(self, capsys):
        assert main(["solvers", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = {entry["key"]: entry for entry in payload["solvers"]}
        assert {"cp", "mip", "greedy", "portfolio"} <= set(entries)
        greedy = entries["greedy"]
        assert set(greedy) == {
            "key", "summary", "objectives", "max_nodes",
            "supports_warm_start", "config_fields"}
        assert isinstance(greedy["objectives"], list)
        assert isinstance(greedy["config_fields"], list)


class TestJsonWorkflow:
    """The serialized problem -> solve -> response pipeline."""

    @pytest.fixture
    def problem_path(self, tmp_path):
        path = tmp_path / "problem.json"
        exit_code = main([
            "make-problem", "--template", "mesh", "--rows", "3", "--cols", "3",
            "--seed", "0", "--samples", "4", "--out", str(path),
        ])
        assert exit_code == 0
        return path

    def test_make_problem_writes_valid_problem(self, problem_path):
        problem = DeploymentProblem.from_dict(
            json.loads(problem_path.read_text()))
        assert problem.num_nodes == 9
        assert problem.num_instances == 10
        assert problem.metadata["template"] == "mesh"
        assert problem.metadata["provider"] == "ec2"

    def test_solve_writes_valid_response(self, problem_path, tmp_path, capsys):
        out = tmp_path / "response.json"
        exit_code = main([
            "solve", "--problem", str(problem_path), "--solver", "greedy",
            "--seed", "0", "--time-limit", "1", "--out", str(out),
        ])
        assert exit_code == 0
        response = SolverResponse.from_dict(json.loads(out.read_text()))
        assert response.ok
        assert response.solver == "greedy"
        problem = DeploymentProblem.from_dict(
            json.loads(problem_path.read_text()))
        assert response.plan.covers(problem.graph)
        assert "solver response" in capsys.readouterr().out

    def test_cli_solve_bit_identical_to_in_process_api(
            self, problem_path, tmp_path, capsys):
        """Acceptance criterion: solving a serialized problem through the
        CLI yields a plan and cost bit-identical to the in-process API on
        the same solver and seed."""
        out = tmp_path / "response.json"
        assert main([
            "solve", "--problem", str(problem_path), "--solver", "cp",
            "--seed", "7", "--time-limit", "2", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        cli_response = SolverResponse.from_dict(json.loads(out.read_text()))

        problem = DeploymentProblem.from_dict(
            json.loads(problem_path.read_text()))
        from repro.solvers import SearchBudget
        in_process = AdvisorSession().solve(SolveRequest(
            problem, solver="cp", config={"seed": 7},
            budget=SearchBudget.seconds(2),
        ))
        assert cli_response.plan == in_process.plan
        assert cli_response.cost == in_process.cost

    def test_solve_batch_requests_file(self, problem_path, tmp_path, capsys):
        problem_payload = json.loads(problem_path.read_text())
        requests = {
            "requests": [
                {"problem": problem_payload, "solver": "greedy",
                 "request_id": "a"},
                {"problem": problem_payload, "solver": "r1",
                 "config": {"num_samples": 50, "seed": 1},
                 "request_id": "b"},
            ],
        }
        requests_path = tmp_path / "batch.json"
        requests_path.write_text(json.dumps(requests))
        out = tmp_path / "responses.json"
        exit_code = main([
            "solve-batch", "--requests", str(requests_path),
            "--out", str(out),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "hit rate" in output
        payload = json.loads(out.read_text())
        responses = [SolverResponse.from_dict(entry)
                     for entry in payload["responses"]]
        assert [r.request_id for r in responses] == ["a", "b"]
        assert all(r.ok for r in responses)
        # Both requests describe the same instance: the second must have
        # reused the first's compilation.
        assert not responses[0].telemetry.compile_cache_hit
        assert responses[1].telemetry.compile_cache_hit

    def test_solve_batch_repeated_problem_flags(self, problem_path, tmp_path,
                                                capsys):
        out = tmp_path / "responses.json"
        exit_code = main([
            "solve-batch", "--problem", str(problem_path),
            "--problem", str(problem_path), "--solver", "greedy",
            "--out", str(out),
        ])
        assert exit_code == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert len(payload["responses"]) == 2

    def test_solve_batch_without_input_exits(self, capsys):
        assert main(["solve-batch"]) == 2
        assert "error" in capsys.readouterr().err

    def test_solver_config_honoured_for_auto(self, problem_path, tmp_path,
                                             capsys):
        """--solver-config must reach the resolved solver even when
        --solver is left at its default 'auto'."""
        out = tmp_path / "response.json"
        exit_code = main([
            "solve", "--problem", str(problem_path), "--seed", "0",
            "--time-limit", "1", "--solver-config", '{"bogus_field": 1}',
            "--out", str(out),
        ])
        # The config is not dropped: the resolved CP solver rejects the
        # unknown field and the CLI reports the solver failure (exit 1).
        assert exit_code == 1
        assert "bogus_field" in capsys.readouterr().err

    def test_solve_above_the_mip_ceiling_exits_1(self, oversized_dag_problem,
                                                 tmp_path, capsys):
        path = tmp_path / "dag65.json"
        path.write_text(json.dumps(oversized_dag_problem.to_dict()))
        exit_code = main(["solve", "--problem", str(path),
                          "--time-limit", "2"])
        assert exit_code == 1
        assert "at most 64 nodes" in capsys.readouterr().err

    def test_solve_batch_seed_reaches_auto_solver(self, problem_path,
                                                  tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([
                "solve-batch", "--problem", str(problem_path),
                "--seed", "7", "--out", str(out),
            ]) == 0
            outs.append(json.loads(out.read_text())["responses"][0])
        capsys.readouterr()
        a, b = (SolverResponse.from_dict(entry) for entry in outs)
        assert a.solver == "cp"  # auto resolved to the paper default
        assert a.plan == b.plan  # the seed made the run reproducible
        assert a.cost == b.cost

    def test_solve_accepts_plain_random_key(self, problem_path, tmp_path,
                                            capsys):
        """'random' on solve/solve-batch is the registered solver, not the
        advise-only 'r2' alias, so its own config fields work."""
        out = tmp_path / "response.json"
        exit_code = main([
            "solve", "--problem", str(problem_path), "--solver", "random",
            "--seed", "2", "--solver-config", '{"num_samples": 40}',
            "--out", str(out),
        ])
        assert exit_code == 0
        capsys.readouterr()
        response = SolverResponse.from_dict(json.loads(out.read_text()))
        assert response.ok
        assert response.result.solver_name == "random"

    @pytest.mark.parametrize("payload", [
        {"request": []},          # typo for "requests"
        {"requests": "notalist"},
        ["notadict"],
    ], ids=["typo-key", "non-list", "non-dict-entry"])
    def test_malformed_requests_file_exits_cleanly(self, payload, tmp_path,
                                                   capsys):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(payload))
        exit_code = main(["solve-batch", "--requests", str(path)])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_budget_in_requests_file_exits_cleanly(self, problem_path,
                                                       tmp_path, capsys):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"requests": [{
            "problem": json.loads(problem_path.read_text()),
            "solver": "greedy", "budget": {"time_limit_s": "5"},
        }]}))
        exit_code = main(["solve-batch", "--requests", str(path)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "time_limit_s" in err

    def test_non_object_problem_file_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps([1, 2, 3]))
        exit_code = main(["solve", "--problem", str(path)])
        assert exit_code == 2
        assert "JSON object" in capsys.readouterr().err

    def test_malformed_solver_config_exits_cleanly(self, problem_path,
                                                   capsys):
        exit_code = main([
            "solve", "--problem", str(problem_path),
            "--solver-config", "{not json",
        ])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_problem_file_exits_cleanly(self, tmp_path, capsys):
        exit_code = main([
            "solve", "--problem", str(tmp_path / "nope.json"),
        ])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_solve_error_exit_code(self, problem_path, tmp_path, capsys):
        # The serialized problem's objective is longest_link; the MIP
        # longest-path solver refuses it (objective-capability mismatch)
        # and the CLI must exit 1 (solver failure) with a clean message,
        # distinct from exit 2 (usage / IO errors).
        exit_code = main([
            "solve", "--problem", str(problem_path), "--solver", "mip",
        ])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_problem_payload_exit_code(self, problem_path, tmp_path,
                                               capsys):
        # A cyclic graph with the longest-path objective is rejected while
        # deserializing the problem (InvalidGraphError), which is a usage
        # error: exit 2.
        payload = json.loads(problem_path.read_text())
        payload["objective"] = "longest_path"  # mesh graphs are cyclic
        bad = tmp_path / "bad_problem.json"
        bad.write_text(json.dumps(payload))
        exit_code = main(["solve", "--problem", str(bad)])
        assert exit_code == 2
        assert "acyclic" in capsys.readouterr().err


def test_start_up_loads_neither_scipy_stats_nor_scipy_optimize():
    # Both modules are most of a cold start; the functions that use them
    # import them on first use.  A fresh interpreter shows what
    # `repro serve` and a new session load.
    script = (
        "import sys\n"
        "import repro.api, repro.store, repro.cli, repro.serve\n"
        "repro.api.AdvisorSession()\n"
        "print([name for name in ('scipy.stats', 'scipy.optimize')\n"
        "       if name in sys.modules])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
