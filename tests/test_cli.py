"""Command-line surface: parsing, serialization, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import glmdopt
from glmdopt import SolverError, cli, full_factorial_design
from glmdopt.cli import main

PROB_22 = {
    "link": "logit",
    "beta": [-2.0, 1.0, 0.5],
    "design_points": [[1, 1], [1, -1], [-1, 1], [-1, -1]],
}


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def example2_problem():
    """Tabulated-link file realizing the 8-point integer-coefficient instance."""
    import itertools

    terms = [[]]
    for size in (1, 2):
        terms.extend([list(t) for t in itertools.combinations(range(3), size)])
    points = [list(t) for t in itertools.product([1.0, -1.0], repeat=3)]
    beta = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    X = np.array([[np.prod([row[j] for j in t]) for t in terms] for row in points])
    eta = X @ np.array(beta)
    c = (np.prod(np.arange(1.0, 9.0)) / 2.0**18) ** (1.0 / 7.0)
    w = c / np.arange(1.0, 9.0)
    order = np.argsort(eta)
    return {
        "link": {"kind": "tabulated", "eta": eta[order].tolist(), "w": w[order].tolist()},
        "beta": beta,
        "design_points": points,
        "model_terms": terms,
    }


class TestSolve:
    def test_json_output_and_roundtrip(self, tmp_path, capsys):
        path = write_problem(tmp_path, PROB_22)
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert sum(payload["allocation"]) == pytest.approx(1.0, abs=1e-12)
        assert payload["case_label"].startswith("twofactor-")
        assert {"equivalence_gap", "log_objective"} <= set(payload["diagnostics"])
        redumped = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert redumped == out

    def test_agrees_with_liftone(self, tmp_path, capsys):
        path = write_problem(tmp_path, PROB_22)
        main(["solve", path])
        analytic = json.loads(capsys.readouterr().out)
        main(["solve", path, "--method", "liftone"])
        lifted = json.loads(capsys.readouterr().out)
        assert lifted["case_label"] == "liftone"
        assert analytic["objective"] == pytest.approx(lifted["objective"], rel=1e-9)

    def test_eight_point_golden_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, example2_problem())
        assert main(["solve", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case_label"] == "saturated-h1"
        assert payload["diagnostics"]["mu"] == pytest.approx(0.09260780863811838, abs=1e-9)
        expected_p = (
            0.1394693827, 0.1359038626, 0.1321292663, 0.1281038353,
            0.1237697284, 0.1190427279, 0.1137915161, 0.1077896806,
        )
        # point order in the file follows the sign pattern, coefficient j+1
        # belongs to the j-th largest eta... the allocation is reported in
        # file order, so compare as sorted multisets against the reference
        assert sorted(payload["allocation"], reverse=True) == pytest.approx(
            expected_p, abs=1e-8
        )
        assert payload["objective"] == pytest.approx(1.7530190502344328e-05, rel=1e-8)

    def test_csv_format(self, tmp_path, capsys):
        path = write_problem(tmp_path, PROB_22)
        assert main(["solve", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "case_label,objective,p1,p2,p3,p4"
        cells = lines[1].split(",")
        assert sum(float(x) for x in cells[2:]) == pytest.approx(1.0, abs=1e-12)

    def test_large_intercept_fourpoint(self, tmp_path, capsys):
        # the weights are near exp(-200); unnormalized quartic coefficients overflow
        path = write_problem(tmp_path, dict(PROB_22, beta=[200.0, 0.5, 0.3]))
        assert main(["solve", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case_label"] == "twofactor-case-v"
        assert payload["diagnostics"]["equivalence_gap"] <= 1e-9

    def test_near_dominance_certified(self, tmp_path, capsys):
        # v = (1e-8, 0.3, 0.7, 1) up to order and scale; the paper's closed forms
        # printed a gap of 7.1e-2 here
        link = {"kind": "tabulated", "eta": [-3, -1, 1, 3], "w": [1, 1 / 0.7, 1 / 0.3, 1e8]}
        path = write_problem(tmp_path, dict(PROB_22, link=link, beta=[0, 1, 2]))
        assert main(["solve", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case_label"] == "twofactor-case-v"
        assert payload["diagnostics"]["equivalence_gap"] <= 1e-12
        assert main(["solve", path, "--method", "liftone"]) == 0
        lift = json.loads(capsys.readouterr().out)
        assert payload["objective"] == pytest.approx(lift["objective"], rel=1e-12)

    def test_non_finite_values_print_as_null(self, tmp_path, capsys):
        # mu on the true scale is exp(897) times mu_scaled: past the float range
        prob = dict(
            PROB_22,
            beta=[-130.0, 0.1, 0.2, 0.1, 0.0, 0.0, 0.0],
            design_points=[[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)],
            model_terms=[[], [0], [1], [2], [0, 1], [0, 2], [1, 2]],
        )
        assert main(["solve", write_problem(tmp_path, prob)]) == 0

        def reject(name):
            raise AssertionError(f"non-JSON constant {name} in the output")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        diag = payload["diagnostics"]
        assert diag["mu"] is None
        for key in ("mu_scaled", "log_scale", "log_objective"):
            assert np.isfinite(diag[key]), key

    def test_malformed_beta_exits_2(self, tmp_path, capsys):
        bad = dict(PROB_22, beta=[-2.0, 1.0])
        path = write_problem(tmp_path, bad)
        assert main(["solve", path]) == 2
        assert "beta" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["solve", "/nonexistent/problem.json"]) == 2

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["solve", str(path)]) == 2

    def test_analytic_method_fails_loudly_on_unsupported_shape(self, tmp_path, capsys):
        prob = {
            "link": "logit",
            "beta": [0.0, 0.5],
            "design_points": [[-1], [-0.5], [0.0], [0.5], [1.0]],
        }
        path = write_problem(tmp_path, prob)
        assert main(["solve", path, "--method", "analytic"]) == 2
        assert "analytic" in capsys.readouterr().err
        assert main(["solve", path, "--method", "liftone"]) == 0

    def test_auto_falls_back_to_liftone(self, tmp_path, capsys):
        prob = {
            "link": "logit",
            "beta": [0.0, 0.5],
            "design_points": [[-1], [-0.5], [0.0], [0.5], [1.0]],
        }
        path = write_problem(tmp_path, prob)
        assert main(["solve", path]) == 0
        auto = capsys.readouterr().out
        assert json.loads(auto)["case_label"] == "liftone"
        assert main(["solve", path, "--method", "liftone"]) == 0
        assert capsys.readouterr().out == auto

    def test_overflowing_weights_print_one_line(self, tmp_path, capsys):
        # under the default warning filters, not only the suite's error filter, the weight
        # call warns of no overflow, which would print before the error line
        path = write_problem(tmp_path, dict(PROB_22, link="log_poisson", beta=[800.0, 1.0, -0.7]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert main(["solve", path]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "input error: weights must be positive and finite\n"

    @pytest.mark.parametrize("b", [187.0, 300.0])
    def test_weights_beyond_float_span(self, tmp_path, capsys, b):
        path = write_problem(tmp_path, dict(PROB_22, link="log_poisson", beta=[0.0, b, b]))
        assert main(["solve", path]) == 0
        analytic = json.loads(capsys.readouterr().out)
        assert main(["solve", path, "--method", "liftone"]) == 0
        lift = json.loads(capsys.readouterr().out)
        assert analytic["case_label"] == "twofactor-case-2a"
        assert analytic["allocation"] == pytest.approx(lift["allocation"], abs=1e-9)
        assert analytic["diagnostics"]["log_objective"] == pytest.approx(
            lift["diagnostics"]["log_objective"], abs=1e-12
        )

    def test_log_objective_beyond_float_range(self, tmp_path, capsys):
        # 2^3 main effects run through auto to lift-one; det(X'WX) = exp(800.28)
        points = [[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)]
        prob = {"link": "log_poisson", "beta": [200.0, 0.3, -0.2, 0.1], "design_points": points}
        assert main(["solve", write_problem(tmp_path, prob)]) == 0
        payload = json.loads(capsys.readouterr().out)
        diag = payload["diagnostics"]
        assert payload["case_label"] == "liftone" and payload["objective"] is None
        assert diag["log_objective"] == pytest.approx(800.2835472475884, rel=1e-14)
        assert diag["converged"] == 1.0 and diag["equivalence_gap"] < 1e-12

    def test_solver_error_exits_3(self, tmp_path, capsys, monkeypatch):
        import glmdopt.cli as cli

        def boom(problem, method, tol):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "dispatch_solve", boom)
        path = write_problem(tmp_path, PROB_22)
        assert main(["solve", path]) == 3
        assert "synthetic" in capsys.readouterr().err

    def test_continuous_problem_verdict(self, tmp_path, capsys):
        prob = {"link": "logit", "beta": [-1.0, 0.2, 0.1], "bounds": [0.0, 2.0, -1.0, 3.0]}
        path = write_problem(tmp_path, prob)
        assert main(["solve", path, "--grid-steps", "51"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case_label"] == "boundary-check"
        assert isinstance(payload["boundary_optimal"], bool)
        assert payload["design_points"][0] == [2.0, 3.0]
        assert payload["design_points"][3] == [0.0, -1.0]

    def test_both_points_and_bounds_rejected(self, tmp_path):
        bad = dict(PROB_22, bounds=[0, 1, 0, 1])
        path = write_problem(tmp_path, bad)
        assert main(["solve", path]) == 2


class TestSweepBeta:
    def test_rows_and_consistency(self, tmp_path, capsys):
        path = write_problem(tmp_path, PROB_22)
        assert main(["sweep-beta", path, "--vary", "2", "--range=-1:1:5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "beta_value,p1,p2,p3,p4,objective,case_label"
        assert len(lines) == 6
        # endpoint row equals a direct solve at the same coefficients
        endpoint = dict(PROB_22, beta=[-2.0, 1.0, 1.0])
        main(["solve", write_problem(tmp_path, endpoint, "endpoint.json")])
        direct = json.loads(capsys.readouterr().out)
        cells = lines[5].split(",")
        assert [float(c) for c in cells[1:5]] == pytest.approx(direct["allocation"], abs=1e-14)
        assert float(cells[5]) == pytest.approx(direct["objective"], rel=1e-14)

    def test_zero_slope_row_is_symmetric(self, tmp_path, capsys):
        path = write_problem(tmp_path, PROB_22)
        main(["sweep-beta", path, "--vary", "2", "--range=-1:1:3"])
        mid = capsys.readouterr().out.splitlines()[2].split(",")
        assert float(mid[0]) == 0.0
        p = [float(c) for c in mid[1:5]]
        # without the second factor the two x2-levels at each x1 tie
        assert p[0] == pytest.approx(p[1], abs=1e-12)
        assert p[2] == pytest.approx(p[3], abs=1e-12)

    def test_bad_vary_index(self, tmp_path, capsys):
        path = write_problem(tmp_path, PROB_22)
        assert main(["sweep-beta", path, "--vary", "7", "--range=0:1:3"]) == 2

    def test_bad_range_spec(self, tmp_path):
        path = write_problem(tmp_path, PROB_22)
        assert main(["sweep-beta", path, "--vary", "1", "--range=0:1"]) == 2


class TestRegion:
    def test_grid_rows_and_symmetry(self, tmp_path, capsys):
        assert (
            main(
                ["region", "--beta0=-1", "--range=-1:1", "--steps", "3", "--grid-steps", "41"]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "beta1,beta2,min_s,verdict"
        assert len(lines) == 10
        rows = {}
        for line in lines[1:]:
            b1, b2, _, verdict = line.split(",")
            rows[(b1, b2)] = verdict
        for (b1, b2), verdict in rows.items():
            assert rows[(b2, b1)] == verdict

    def test_failed_node_prints_failed_token(self, capsys, monkeypatch):
        import glmdopt.boundary as boundary

        corner_steps = boundary._corner_steps

        def fail_one(beta, weight_fn):
            steps = corner_steps(beta, weight_fn)
            fail = SolverError("synthetic node failure")
            return [fail if b[1] > 0.0 and b[2] < 0.0 else s for b, s in zip(beta, steps)]

        monkeypatch.setattr(boundary, "_corner_steps", fail_one)
        argv = ["region", "--beta0=-1", "--range=-1:1", "--steps", "2", "--grid-steps", "21"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 4
        assert [row for row in rows if row.endswith(",failed")] == ["1,-1,nan,failed"]

    def test_overflowing_margins_print_failed(self, capsys):
        # log_poisson margins beyond the float range: every node but the centre fails
        argv = ["region", "--link", "log_poisson", "--beta0", "0", "--range=-400:400", "--steps", "3"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[4] == "0,0,0,1"
        assert all(row.endswith(",nan,failed") for row in rows[:4] + rows[5:])

    def test_subnormal_corner_weights_print_failed(self, capsys):
        # logit weights near 2e-313 at the four corner nodes: 1/w would overflow, and
        # those nodes fail without a warning
        assert main(["region", "--beta0", "0", "--range=-360:360", "--steps", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        failed = [row.split(",")[:2] for row in rows if row.endswith(",failed")]
        assert failed == [["-360", "-360"], ["-360", "360"], ["360", "-360"], ["360", "360"]]

    def test_single_step_single_row(self, capsys):
        assert main(["region", "--beta0=-1", "--range=-2:2", "--steps", "1", "--grid-steps", "41"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2

    def test_boundary_file_output(self, tmp_path, capsys):
        out = tmp_path / "edges.csv"
        assert (
            main(
                [
                    "region",
                    "--beta0=-1",
                    "--range=-2:2",
                    "--steps",
                    "9",
                    "--grid-steps",
                    "41",
                    "--boundary",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x1,y1,x2,y2"
        assert len(lines) > 1


class TestBench:
    def test_deterministic_under_seed(self, capsys):
        args = ["bench", "--n-instances", "60", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out

        def strip_time(text):
            rows = [line.split(",") for line in text.splitlines()]
            return [r[:3] + r[4:] for r in rows]

        assert strip_time(first) == strip_time(second)

    def test_efficiency_columns(self, capsys):
        assert main(["bench", "--n-instances", "40", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        head = lines[0].split(",")
        analytic = dict(zip(head, lines[1].split(",")))
        liftone = dict(zip(head, lines[2].split(",")))
        assert analytic["failures"] == "0"
        assert liftone["failures"] == "0"
        assert float(liftone["efficiency_min"]) > 0.9999

    def test_factorial_model_runs(self, capsys):
        assert main(["bench", "--model", "2^3", "--dist", "normal:1", "--n-instances", "25", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        analytic = lines[1].split(",")
        assert analytic[2] == "0"

    def test_two_by_two_model_is_the_two_level_factorial(self):
        X, _ = full_factorial_design(2)
        assert cli._parse_model("2x2").tobytes() == X.tobytes()

    def test_bad_model_and_dist(self, capsys):
        assert main(["bench", "--model", "3x3", "--n-instances", "1"]) == 2
        assert main(["bench", "--dist", "cauchy:1", "--n-instances", "1"]) == 2

    def test_efficiency_pairs_instances_despite_failures(self, capsys, monkeypatch):
        # analytic solves of chosen instances fail; the efficiency must still
        # compare the two methods on the same instance
        calls = {"analytic": 0, "liftone": 0}
        dispatch = cli.dispatch_rows

        def failing_dispatch(problem, betas, method, tol):
            out = []
            for row in dispatch(problem, betas, method, tol):
                calls[method] += 1
                if method == "analytic" and calls[method] in (1, 4, 5, 9):
                    row = SolverError("injected failure")
                out.append(row)
            return out

        monkeypatch.setattr(cli, "dispatch_rows", failing_dispatch)
        args = ["bench", "--dist", "uniform:-3:3", "--n-instances", "20", "--seed", "2"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        head = lines[0].split(",")
        analytic = dict(zip(head, lines[1].split(",")))
        liftone = dict(zip(head, lines[2].split(",")))
        assert calls == {"analytic": 20, "liftone": 20}
        assert analytic["failures"] == "4"
        assert liftone["failures"] == "0"
        assert float(liftone["efficiency_mean"]) == pytest.approx(1.0, abs=1e-10)
        assert float(liftone["efficiency_min"]) == pytest.approx(1.0, abs=1e-10)

    def test_wide_probit_efficiency(self, capsys):
        # weights spanning many decades: every analytic solve succeeds and the
        # log-space objectives keep the efficiencies exact
        args = ["bench", "--link", "probit", "--dist", "uniform:-8:8", "--n-instances", "200"]
        assert main(args + ["--seed", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        head = lines[0].split(",")
        analytic = dict(zip(head, lines[1].split(",")))
        liftone = dict(zip(head, lines[2].split(",")))
        assert analytic["failures"] == "0"
        assert liftone["failures"] == "0"
        for column in ("efficiency_mean", "efficiency_p01", "efficiency_min"):
            assert float(liftone[column]) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["bench", "--dist", "uniform:x:1", "--n-instances", "1"], None),
        (["bench", "--dist", "normal:abc", "--n-instances", "1"], None),
        (["bench", "--n-instances", "-1"], None),
        (["solve"], {"model_terms": [[], ["a"], [1]]}),
        (["solve"], {"model_terms": [[], 1, [1]]}),
        (["region", "--beta0=-1", "--range=-1:1", "--steps", "2", "--grid-steps", "1"], None),
        (["solve"], {"link": {"kind": "constant", "value": "abc"}}),
        (["solve"], {"link": {"kind": "constant", "value": None}}),
        (["solve"], {"link": {"kind": "tabulated", "eta": "ab", "w": [1.0, 2.0]}}),
        (["solve"], {"link": {"kind": "tabulated", "eta": [0.0, 1.0], "w": {"a": 1}}}),
        (["solve"], {"beta": [10**400, 0.5, 0.3]}),
        (["solve"], {"link": {"kind": "constant", "value": 10**400}}),
        (["region", "--beta0=-1", "--range=nan:1", "--steps", "2", "--grid-steps", "11"], None),
        (["region", "--beta0=inf", "--range=-1:1", "--steps", "2", "--grid-steps", "11"], None),
        (["bench", "--tol", "0", "--n-instances", "1"], None),
        (["solve", "--method", "liftone", "--tol", "inf"], {}),
        (["bench", "--seed", "-1", "--n-instances", "1"], None),
        (["solve"], {"model_terms": [[], [0], [1], [0.7, 1.2]], "beta": [0.0, 1.0, 0.5, 0.2]}),
        (["solve"], {"model_terms": [[], [0], [1.0]]}),
        (["sweep-beta", "--vary", "0", "--range=0:1:0"], {}),
        (["sweep-beta", "--vary", "3", "--range=0:1:2"], {}),
        (["solve", "--tol", "nan"], {}),
        (["solve", "--tol", "inf"], {}),
        (["solve", "--tol", "0"], {}),
        (["sweep-beta", "--vary", "1", "--range=0:1:3", "--tol", "-5"], {}),
        (["sweep-beta", "--vary", "1", "--range=0:1:3", "--tol", "nan"], {}),
    ],
)
def test_bad_input_exits_2(tmp_path, capsys, argv, fields):
    if fields is not None:
        argv = argv + [write_problem(tmp_path, dict(PROB_22, **fields))]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_seventeen_digit_serialization(tmp_path, capsys):
    path = write_problem(tmp_path, PROB_22)
    main(["solve", path, "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    objective = lines[1].split(",")[1]
    assert float(objective) == pytest.approx(0.0014560789064650484, rel=1e-16)
    assert len(objective.replace("0.", "")) >= 16


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # main() reuses one parser; parsing must leave it as build_parser() made it
    build = cli.build_parser
    calls = []
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(None) or build())
    cli._parser.cache_clear()
    try:
        argv = ["bench", "--n-instances", "3", "--seed", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(["bench", "--model", "2^3", "--n-instances", "1"]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        again = capsys.readouterr().out

        def without_time(text):
            return [row[:3] + row[4:] for row in (line.split(",") for line in text.splitlines())]

        assert without_time(again) == without_time(first)
        assert len(calls) == 1
        assert cli._parser().format_help() == build().format_help()
    finally:
        cli._parser.cache_clear()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # in a fresh process: only solve_quartic's fallback and the benchmark tracer's
    # patch of boundary.optimize load scipy.optimize, never an import
    src = str(Path(glmdopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, glmdopt.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
