import json

import pytest

from fuzzychern.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fuzzy_json(capsys):
    code, out, _ = run(capsys, "fuzzy", "--N", "2", "--sign", "plus", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["N"] == 2
    assert row["sign"] == "plus"
    assert row["c1_computed"] == pytest.approx(2.5980762, abs=1e-7)
    assert row["gamma_formula"] == pytest.approx(2.5980762, abs=1e-7)
    assert row["abs_error"] <= 1e-9
    # >= 15 significant digits survive serialization
    assert abs(row["c1_computed"] - 2.598076211353316) <= 1e-14


def test_fuzzy_both_signs_table(capsys):
    code, out, _ = run(capsys, "fuzzy", "--N", "3", "--sign", "both")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + two rows
    assert "1.39675" in out and "-0.55870" in out


def test_fuzzy_invalid_n(capsys):
    code, _, err = run(capsys, "fuzzy", "--N", "1")
    assert code == 2
    assert "error" in err


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--from", "2", "--to", "16", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,sign,ch0,c1_computed,gamma_formula,abs_error,residual"
    assert len(lines) == 1 + 30  # 15 values of N, both signs
    row2minus = lines[2].split(",")
    assert row2minus[0] == "2" and row2minus[1] == "minus"
    assert abs(float(row2minus[3])) <= 1e-9
    for line in lines[1:]:
        assert float(line.split(",")[5]) <= 1e-9


def test_sweep_deterministic(capsys):
    _, out1, _ = run(capsys, "sweep", "--from", "2", "--to", "6", "--format", "csv")
    _, out2, _ = run(capsys, "sweep", "--from", "2", "--to", "6", "--format", "csv")
    assert out1 == out2


def test_sweep_monotone_approach(capsys):
    _, out, _ = run(capsys, "sweep", "--from", "2", "--to", "16", "--format", "csv")
    c1 = {}
    for line in out.strip().splitlines()[1:]:
        parts = line.split(",")
        if parts[1] == "plus":
            c1[int(parts[0])] = float(parts[3])
    assert abs(c1[16] - 1.0) < abs(c1[8] - 1.0)


def test_sweep_empty_range(capsys):
    code, _, _ = run(capsys, "sweep", "--from", "5", "--to", "4")
    assert code == 2


def test_sweep_out_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--from", "2", "--to", "3",
                       "--format", "csv", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().startswith("N,sign,")


def test_commutative_charge_one(capsys):
    code, out, _ = run(capsys, "commutative", "--k", "1", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["c1"] == pytest.approx(1.0, abs=1e-10)
    assert row["volume_integral"] == pytest.approx(1.0, abs=1e-12)


def test_commutative_transposed(capsys):
    code, out, _ = run(capsys, "commutative", "--k", "2", "--transpose",
                       "--format", "json", "--grid", "32x64")
    assert code == 0
    assert json.loads(out)["c1"] == pytest.approx(-2.0, abs=1e-8)


def test_commutative_k_out_of_range(capsys):
    code, _, _ = run(capsys, "commutative", "--k", "13")
    assert code == 2


def test_commutative_bad_grid(capsys):
    code, _, _ = run(capsys, "commutative", "--grid", "banana")
    assert code == 2


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-N", "8")
    assert code == 0
    passed = [l for l in out.splitlines() if " PASS " in l]
    assert len(passed) >= 6
    assert "all suites passed" in out


def test_verify_negative_control(capsys):
    code, out, _ = run(capsys, "verify", "--max-N", "4", "--perturb-kappa", "0.05")
    assert code == 1
    assert any("bundles" in l and "FAIL" in l for l in out.splitlines())


@pytest.mark.parametrize("argv", [
    ("commutative", "--grid", "1x4"),
    ("verify", "--max-N", "1"),
    ("fuzzy", "--N", "2", "--out", "/nonexistent/x"),
])
def test_domain_errors_exit_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
