"""CLI contract tests: flags, formats, exit codes, determinism."""

import json

import pytest

from cyclic_bounds import MinimizeConfig, minimize
from cyclic_bounds.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_csv_matches_reference_floors(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--k-max", "7", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,lower,upper,gap"
        want = {2: 0.82843, 3: 0.77976, 4: 0.75683, 5: 0.74349, 6: 0.73477, 7: 0.72863}
        for line in lines[1:-1]:
            fields = line.split(",")
            k = int(fields[0])
            assert abs(float(fields[1]) - want[k]) < 5e-6
        assert lines[-1].split(",")[0] == "inf"

    def test_json_upper_column(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--k-max", "4", "--format", "json")
        assert code == 0
        recs = json.loads(out)
        uppers = [r["upper"] for r in recs if r["k"] != "inf"]
        for got, wanted in zip(uppers, (0.98913, 0.97793, 0.96994)):
            assert abs(got - wanted) < 5e-6

    def test_k_max_one_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--k-max", "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv", [["bounds", "--k-max", "3"], ["tangent", "--k", "3"]], ids=["bounds", "tangent"]
)
def test_tol_flag_is_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


class TestTangentCommand:
    def test_drinfeld(self, capsys):
        code, out, _ = run_cli(capsys, "tangent", "--k", "2")
        assert code == 0
        gamma_line = [l for l in out.splitlines() if l.startswith("gamma")][0]
        assert abs(float(gamma_line.split()[1]) - 0.989133634447) < 1e-11

    def test_inf(self, capsys):
        code, out, _ = run_cli(capsys, "tangent", "--k", "inf")
        assert code == 0
        gamma_line = [l for l in out.splitlines() if l.startswith("gamma")][0]
        assert abs(float(gamma_line.split()[1]) - 0.930498) < 1e-6

    def test_k3_high_precision_digits_visible(self, capsys):
        code, out, _ = run_cli(capsys, "tangent", "--k", "3")
        assert code == 0
        gamma_line = [l for l in out.splitlines() if l.startswith("gamma")][0]
        # twelve significant digits of the solved intercept
        assert gamma_line.split()[1] == "0.977927798177"

    def test_k_below_two_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tangent", "--k", "1"])
        assert exc.value.code == 2

    def test_k_nan_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tangent", "--k", "nan"])
        assert exc.value.code == 2
        assert "--k must be >= 2" in capsys.readouterr().err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "tangent", "--k", "2", "--format", "json")
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["k"] == 2
        assert rec["lambda"] < 0
        assert 0 < rec["mu"] < 1


class TestWitnessCommand:
    def test_k2_eps001_report(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--k", "2", "--eps", "0.01")
        assert code == 0
        value_line = [l for l in out.splitlines() if l.startswith("value")][0]
        assert float(value_line.split()[1]) < 0.99913363 + 1e-6

    def test_k3_large_eps_fast(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--k", "3", "--eps", "0.1")
        assert code == 0
        value_line = [l for l in out.splitlines() if l.startswith("value")][0]
        assert float(value_line.split()[1]) < 0.97793 + 0.1

    @pytest.mark.parametrize("eps", ["inf", "1e309", "nan", "-inf", "0"])
    def test_nonfinite_or_nonpositive_eps_is_usage_error(self, capsys, eps):
        with pytest.raises(SystemExit) as exc:
            main(["witness", "--k", "2", f"--eps={eps}", "--format", "json"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--eps must be positive and finite" in err

    def test_capacity_error_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "witness", "--k", "2", "--eps", "1e-9")
        assert code == 1
        assert "needed n" in err or "needs n" in err

    def test_n_cap_refusal_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "witness", "--k", "2", "--eps", "0.01", "--n-cap", "100"
        )
        assert code == 1
        assert out == ""
        assert "(needed n = 424)" in err

    def test_unwritable_out_is_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "w.txt"
        code, out, err = run_cli(
            capsys, "witness", "--k", "2", "--eps", "0.01", "--out", str(path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(path) in err
        assert not path.exists()

    def test_vector_streams_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "witness.txt"
        code, out, _ = run_cli(
            capsys, "witness", "--k", "2", "--eps", "0.05", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        n_line = [l for l in out.splitlines() if l.startswith("n ")][0]
        assert len(lines) == int(n_line.split()[1])
        # recompute the certified value from the emitted file
        from cyclic_bounds import diananda_sum, vector_from_lines

        v = vector_from_lines(out_path.read_text())
        k, n = 2, len(v)
        value_line = [l for l in out.splitlines() if l.startswith("value")][0]
        assert (k / n) * diananda_sum(v, k) == pytest.approx(
            float(value_line.split()[1]), rel=1e-5
        )

    def test_out_builds_the_vector_once(self, capsys, tmp_path, monkeypatch):
        from cyclic_bounds import cli, witness

        calls = []

        def counted(spec, build=witness.build_witness):
            calls.append(spec)
            return build(spec)

        monkeypatch.setattr(cli, "build_witness", counted)
        monkeypatch.setattr(witness, "build_witness", counted)
        out_path = tmp_path / "witness.txt"
        code, _, _ = run_cli(
            capsys, "witness", "--k", "2", "--eps", "0.05", "--out", str(out_path)
        )
        assert code == 0
        assert len(calls) == 1

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "witness", "--k", "2", "--eps", "0.05", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["certified"] is True
        assert rec["value"] <= rec["analytic_bound"] < rec["gamma_plus_eps"]


class TestMinimizeCommand:
    def test_nesbitt_json(self, capsys):
        code, out, _ = run_cli(capsys, "minimize", "--n", "3", "--k", "2", "--seed", "7")
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["value"] - 1.0) < 1e-6
        assert rec["certified_floor"] == pytest.approx(0.8284271247461901)
        assert len(rec["x_best"]) == 3

    def test_k1(self, capsys):
        code, out, _ = run_cli(capsys, "minimize", "--n", "5", "--k", "1")
        assert code == 0
        assert abs(json.loads(out)["value"] - 1.0) < 1e-6

    def test_bad_shape_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--n", "2", "--k", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--seed", "--max-iters", "--restarts"])
    def test_negative_count_is_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--n", "4", "--k", "2", flag, "-1"])
        assert exc.value.code == 2
        assert f"{flag} must be >= 0, got -1" in capsys.readouterr().err

    def test_max_iters_reaches_the_config(self, capsys):
        argv = ["minimize", "--n", "14", "--k", "2", "--restarts", "2"]
        code, out, _ = run_cli(capsys, *argv, "--max-iters", "0")
        assert code == 0
        want = minimize(14, 2, MinimizeConfig(restarts=2, seed=0, max_iters=0))
        assert out == want.to_json() + "\n"
        # Shapiro's n = 14 dips below 1 only after descending, so the flag shows
        assert out != run_cli(capsys, *argv)[1]

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(
            capsys, "minimize", "--n", "6", "--k", "2", "--restarts", "4", "--seed", "9"
        )
        _, out2, _ = run_cli(
            capsys, "minimize", "--n", "6", "--k", "2", "--restarts", "4", "--seed", "9"
        )
        assert out1 == out2


class TestVerifyCommand:
    def test_fast_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "fast")
        assert code == 0
        rec = json.loads(out)
        assert rec["passed"] is True
        names = {g["name"] for g in rec["groups"]}
        assert {"kernel_shape", "kernel_growth_in_k", "kernel_ordering_in_k"} <= names

    def test_all_suite_includes_gradient_and_floor(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", )
        assert code == 0
        rec = json.loads(out)
        names = {g["name"] for g in rec["groups"]}
        assert {"gradient_euler", "floor_sweep"} <= names
        assert rec["total_cases"] >= 10_000

    def test_byte_identical_for_same_seed(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "fast", "--seed", "5")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "fast", "--seed", "5")
        assert out1.encode() == out2.encode()

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err

    def test_different_seed_changes_draws(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "fast", "--seed", "1")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "fast", "--seed", "2")
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["passed"] and r2["passed"]
        assert out1 != out2
