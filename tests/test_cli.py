import json
import warnings

import numpy as np
import pytest

from genus5chain import lattice, thermo
from genus5chain.cli import main
from genus5chain.errors import NoConvergence
from genus5chain.tables import extrapolate_gap, fit_threshold


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("to_file", [False, True])
def test_embedded_config_bytes(to_file, tmp_path, capsys):
    argv = ["ybe-check", "--samples", "2"]
    path = tmp_path / "out.json"
    assert main(argv + ["--out", str(path)] if to_file else argv) == 0
    text = path.read_text() if to_file else capsys.readouterr().out
    assert json.loads(text)["config"] == (
        '{"command": "ybe-check", "fmt": "json", "out": null, '
        '"params": {"U": 5.0, "eps_sign": "plus", "samples": 2, "seed": 7}}'
    )


def test_ybe_check_command(capsys):
    code, out = run(["ybe-check", "--U", "5", "--samples", "5", "--seed", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["max_residual"] < 1e-10
    assert data["passed"]


def test_ybe_check_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["ybe-check", "--U", "0", "--samples", "4", "--seed", "9",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ybe_check_bad_eps_sign_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ybe-check", "--eps-sign", "circle"])
    assert exc.value.code == 2


def test_format_option_is_usage_error(capsys):
    # each command has one output format
    with pytest.raises(SystemExit) as exc:
        main(["ybe-check", "--format", "json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ed", "--L", "-3", "--U", "1"],
    ["reality-threshold", "--L", "0"],
    ["symmetry-check", "--L", "-2", "--U", "1"],
    ["bethe-solve", "--L", "0", "--U", "5"],
    ["roots", "--L", "0", "--U", "5"],
    ["aba-verify", "--L", "0", "--m", "0"],
])
def test_chain_length_below_one_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "need at least one site" in captured.err


@pytest.mark.parametrize("argv", [
    ["ybe-check", "--U", "nan"],
    ["ed", "--L", "4", "--U", "nan"],
    ["symmetry-check", "--L", "4", "--U", "nan"],
    ["bethe-solve", "--L", "8", "--U", "nan"],
    ["roots", "--L", "6", "--U", "nan"],
    ["roots", "--L", "6", "--U", "inf"],
    ["roots", "--L", "6", "--U", "3", "--u-start=-inf"],
    ["thermo", "--U", "nan"],
    ["gap", "--U", "inf"],
    ["density-profile", "--U", "inf"],
    ["aba-verify", "--U", "1e999"],
    # beyond 1e100, ed's eig returned rescaled levels and the Bethe pair
    # denominators overflowed
    ["ed", "--L", "4", "--U", "1e140", "--n", "0"],
    ["bethe-solve", "--L", "4", "--U=-1e140"],
    ["roots", "--L", "6", "--U", "3", "--u-start=1e140"],
])
def test_non_finite_coupling_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "need a finite coupling" in captured.err


@pytest.mark.parametrize("Q", ["nan", "inf", "2,nan"])
def test_non_finite_branch_numbers_are_refused(Q, capsys):
    # these used to end as "log form did not converge (last step nan)", exit 1
    n = 2 - len(Q.split(","))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bethe-solve", "--L", "2", "--n", str(n), "--U", "5", "--Q", Q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refused: branch numbers must be finite\n"


@pytest.mark.parametrize("Q", ["0.5", "1", "3"])
def test_branch_numbers_of_wrong_parity_are_refused(Q, capsys):
    # one root (M = L - n = 1) takes integer branch numbers
    code = main(["bethe-solve", "--L", "2", "--n", "1", "--U", "5", "--Q", Q])
    captured = capsys.readouterr()
    if Q == "0.5":
        assert code == 2 and captured.out == ""
        assert captured.err == "refused: branch numbers must be integers when M = L - n = 1 is odd\n"
    else:
        assert code == 0 and json.loads(captured.out)["Q"] == [float(Q)]


@pytest.mark.parametrize("L, Q, code, err", [
    ("2", "1e20", 2, "must lie below 2**52 in magnitude"),
    ("3", "1e20,-0.5", 2, "must lie below 2**52 in magnitude"),
    ("3", "4503599627370496,-0.5", 2, "must be half-odd integers when M = L - n = 2 is even"),
    ("3", "0.5,-0.5", 0, None),
])
def test_branch_numbers_beyond_decidable_parity_are_refused(L, Q, code, err, capsys):
    # from 2**52 up a double is never half-odd, from 2**53 up never odd;
    # the first two used to end as a numerical failure, exit 1
    assert main(["bethe-solve", "--L", L, "--n", "1", "--U", "5", "--Q", Q]) == code
    captured = capsys.readouterr()
    if err is None:
        assert json.loads(captured.out)["Q"] == [0.5, -0.5]
    else:
        assert captured.out == "" and err in captured.err


@pytest.mark.parametrize("command", ["thermo", "gap", "density-profile"])
@pytest.mark.parametrize("k0", ["inf", "-inf", "nan", "1e300", "-1e4"])
def test_non_finite_grid_start_is_usage_error(command, k0, capsys):
    # a non-finite --k0 used to reach thermo._grid (an OverflowError traceback
    # for inf and 1e300); from |k0| ~ 3000 the nodes lose the reflection
    # symmetry sigma relies on
    with pytest.raises(SystemExit) as exc:
        main([command, "--U", "5", "--N", "256", f"--k0={k0}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --k0: need a finite grid start" in captured.err


@pytest.mark.parametrize("k0", ["100", "-100"])
def test_grid_start_at_its_bound_is_accepted(k0, capsys):
    assert main(["thermo", "--U", "5", "--N", "256", f"--k0={k0}"]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 256


@pytest.mark.parametrize("tol", ["-1", "-1e-12", "nan", "inf"])
def test_bad_reality_tolerance_is_usage_error(tol, capsys):
    # these were refused as "predicate does not change sign", blaming the bracket
    with pytest.raises(SystemExit) as exc:
        main(["reality-threshold", "--L", "4", f"--tol={tol}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    message = captured.err.strip().splitlines()[-1]  # the lines above are the usage
    assert "argument --tol:" in message and "tolerance" in message
    assert "bracket" not in message and "change sign" not in message


def test_valid_reality_tolerance_keeps_output(capsys):
    assert main(["reality-threshold", "--L", "4"]) == 0
    default = capsys.readouterr().out
    assert main(["reality-threshold", "--L", "4", "--tol", "1e-8"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["threshold"] == pytest.approx(2.99684, abs=1e-4)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_ybe_check_refuses_no_samples(count, capsys):
    # a check over no samples would pass without testing anything
    with pytest.raises(SystemExit) as exc:
        main(["ybe-check", "--samples", count])
    assert exc.value.code == 2
    assert "need at least one sample" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["ed", "--L", "1", "--U", "1"], ["reality-threshold", "--L", "1"]])
def test_two_site_commands_refuse_one_site(argv, capsys):
    assert main(argv) == 2
    assert "need at least two sites" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ybe-check", "--samples", "2"],
    ["density-profile", "--U", "4", "--N", "256"],
])
def test_out_file_matches_stdout(argv, tmp_path, capsys):
    path = tmp_path / "out"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    code, out = run(argv, capsys)
    assert code == 0
    assert path.read_bytes() == out.encode("utf-8")


def test_ed_command_single_sector(capsys):
    code, out = run(["ed", "--L", "4", "--U", "4.0", "--n", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    vals = data["sectors"]["4"]["eigenvalues"]
    assert len(vals) == 1
    assert abs(vals[0]["re"] - 8.0) < 1e-12


def test_ed_command_lowest_mode(capsys):
    code, out = run(["ed", "--L", "6", "--U", "2.0", "--n", "0", "--mode", "lowest",
                     "--k", "3"], capsys)
    assert code == 0
    vals = json.loads(out)["sectors"]["0"]["eigenvalues"]
    assert len(vals) == 3
    assert vals[0]["re"] <= vals[1]["re"] <= vals[2]["re"]


def test_ed_prints_conjugate_pairs_minus_im_first(capsys):
    # real blocks give conjugate pairs with equal real parts, so (Re, Im) order is fixed
    code, out = run(["ed", "--L", "7", "--U", "1", "--mode", "lowest", "--k", "4"], capsys)
    assert code == 0
    sectors = json.loads(out)["sectors"]
    for n in ("0", "2", "-2"):
        vals = sectors[n]["eigenvalues"]
        pair = [i for i, v in enumerate(vals) if v["im"] != 0]
        assert len(pair) == 2 and pair[1] == pair[0] + 1
        low, high = vals[pair[0]], vals[pair[1]]
        assert low["re"] == high["re"] and low["im"] == -high["im"] < 0


def test_ed_mirrors_minus_n_from_n(capsys, monkeypatch):
    # at L = 7, U = 1 the sectors +-1 hold the defective level 3.5
    solves = []
    diagonalize = lattice.diagonalize
    monkeypatch.setattr(lattice, "diagonalize",
                        lambda op, **kw: solves.append(op.sector.n) or diagonalize(op, **kw))
    code, out = run(["ed", "--L", "7", "--U", "1"], capsys)
    assert code == 0
    assert sorted(solves) == list(range(8))
    sectors = json.loads(out)["sectors"]
    assert set(sectors) == {str(n) for n in range(-7, 8)}
    for n in range(1, 8):
        assert sectors[str(-n)] == sectors[str(n)]
    code, out = run(["ed", "--L", "7", "--U", "1", "--n", "-1"], capsys)
    assert code == 0
    assert json.loads(out)["sectors"] == {"-1": sectors["1"]}
    assert main(["ed", "--L", "7", "--U", "1", "--n", "-8"]) == 2
    assert "sector n=-8 out of range" in capsys.readouterr().err


@pytest.mark.parametrize("L", ["4", "8"])  # block and ARPACK sizes
@pytest.mark.parametrize("k", ["0", "-1"])
def test_ed_lowest_mode_refuses_nonpositive_k(L, k, capsys):
    code = main(["ed", "--L", L, "--U", "1", "--n", "0", "--mode", "lowest", "--k", k])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "k >= 1" in captured.err


def test_bethe_solve_command(tmp_path, capsys):
    out_file = tmp_path / "roots.json"
    code = main(["bethe-solve", "--L", "8", "--n", "0", "--U", "5", "--out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["L"] == 8 and data["n"] == 0
    assert len(data["roots"]) == 8
    assert data["residual"] < 1e-10
    assert abs(data["energy_per_site"] - (-0.204464228606)) < 1e-10
    # deterministic rerun
    out2 = tmp_path / "roots2.json"
    main(["bethe-solve", "--L", "8", "--n", "0", "--U", "5", "--out", str(out2)])
    assert out_file.read_bytes() == out2.read_bytes()


def test_roots_command_log_mode(capsys):
    code, out = run(["roots", "--L", "4", "--U", "5"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["classification"]["n_strings"] == 0
    assert len(data["classification"]["reals"]) == 4


def test_roots_command_continuation(capsys):
    code, out = run(["roots", "--L", "4", "--U", "-1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["classification"]["n_strings"] >= 1


def test_thermo_and_gap_commands(capsys):
    code, out = run(["thermo", "--U", "5"], capsys)
    assert code == 0
    assert abs(json.loads(out)["e0"] + 0.200733056598) < 1e-9
    code, out = run(["gap", "--U", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["gap"] - data["closed_form"]) < 1e-10
    assert data["nilpotency_defect"] < 1e-14
    assert "spectral_radius" not in data


def test_thermo_singular_grid_is_numerical_failure(capsys):
    # k0 one grid step below 2 pi/3 puts a node on the critical kernel's pole
    k0 = 2 * np.pi / 3 - 2 * np.pi / 256
    code = main(["thermo", "--U", "3.4641016151377544", "--N", "256", "--k0", repr(k0)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("numerical failure: kernel denominator vanishes")
    assert captured.out == ""


@pytest.mark.parametrize("residual, tail", [(3.25e-9, " (last residual 3.25e-09)"), (None, "")])
def test_numerical_failure_shows_the_last_residual(residual, tail, monkeypatch, capsys):
    def fail(U, N, k0):
        raise NoConvergence("sigma stalled", last=np.zeros(N), residual=residual)

    monkeypatch.setattr(thermo, "solve_sigma", fail)
    assert main(["thermo", "--U", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: sigma stalled{tail}\n"
    assert captured.out == ""


def test_density_profile_refusal(capsys):
    assert main(["density-profile", "--U", "1"]) == 2


def test_density_profile_csv(tmp_path):
    path = tmp_path / "sigma.csv"
    assert main(["density-profile", "--U", "4", "--N", "512", "--out", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,sigma"
    assert len(lines) == 513
    sigma = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.all(sigma > 0)
    h = 2 * np.pi / 512
    assert abs(np.sum(sigma) * h - 1.0) < 1e-9


def test_fit_threshold_insufficient_data(capsys):
    assert main(["fit-threshold", "--data", "4:2.99684,5:3.1637"]) == 2
    capsys.readouterr()
    # a NaN U printed invalid JSON, L = 0 reached LAPACK, one repeated L fit a rank-deficient system
    for data, reason in (("4:nan,5:3.0,6:3.1", "finite couplings"),
                         ("4:3.0,5:inf,6:3.1", "finite couplings"),
                         ("0:3.0,5:3.0,6:3.1", "lengths L >= 1"),
                         ("4:3.0,4:3.0,4:3.0", "two distinct lengths")):
        assert main(["fit-threshold", "--data", data]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("refused: threshold fit needs") and reason in captured.err


@pytest.mark.parametrize("ls", ["4,5,9", "4,5,10"])
def test_fit_threshold_compute_refuses_long_scans(ls, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(lattice, "reality_threshold", lambda L: calls.append(L) or 3.0)
    code = main(["fit-threshold", "--compute", "--Ls", ls])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert calls == []


def test_fit_threshold_refusal_names_the_heavy_command(capsys):
    assert main(["fit-threshold", "--compute", "--Ls", "4,5,9"]) == 2
    assert capsys.readouterr().err == (
        "refused: L=9 takes long; run reality-threshold --L 9 --heavy"
        " and pass 9:U through --data\n"
    )
    assert main(["reality-threshold", "--L", "9"]) == 2
    assert capsys.readouterr().err == "refused: L=9 takes long; rerun with --heavy\n"


def test_fit_threshold_constant_series():
    u_inf, slope = fit_threshold([(4, 3.0), (5, 3.0), (6, 3.0)])
    assert abs(u_inf - 3.0) < 1e-12
    assert abs(slope) < 1e-9


def test_fit_threshold_reference_data(capsys):
    code, out = run(["fit-threshold"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["U_infinity"] - data["U_critical"]) < 0.05


def test_reality_threshold_command(capsys):
    code, out = run(["reality-threshold", "--L", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["threshold"] - 2.99684) < 1e-4


def test_reality_threshold_heavy_flag_leaves_output(capsys):
    assert run(["reality-threshold", "--L", "4"], capsys) == run(
        ["reality-threshold", "--L", "4", "--heavy"], capsys
    )


def test_reality_threshold_refuses_large_l(capsys):
    assert main(["reality-threshold", "--L", "9"]) == 2


def test_reality_threshold_accepts_l8(monkeypatch, capsys):
    from genus5chain import lattice, thermo

    monkeypatch.setattr(lattice, "reality_threshold", lambda L, tol, bracket: 3.34602)
    code, out = run(["reality-threshold", "--L", "8"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["L"] == 8 and data["threshold"] == 3.34602


def test_symmetry_check_command(capsys):
    code, out = run(["symmetry-check", "--L", "4", "--U", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["f0_per_site"] + 0.002502617524) < 1e-9
    assert data["spectral_distance"] < 1e-9


def test_aba_verify_command(capsys):
    code, out = run(["aba-verify", "--L", "4", "--U", "5"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["exchange_defect"] < 1e-10
    assert data["eigenstate_residuals"]["1"] < 1e-8
    assert data["eigenstate_residuals"]["2"] < 1e-8


def test_table_command_five(tmp_path):
    path = tmp_path / "t5.csv"
    assert main(["table", "5", "--out", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("L,F0(U=4)")
    assert len(lines) == 5  # header + L in {4, 6, 8, 10}
    worst = max(float(v) for line in lines[1:] for v in line.split(",")[2::2])
    assert worst < 1e-8


def test_table_bad_index(capsys):
    assert main(["table", "9"]) == 2


@pytest.mark.parametrize("k, label, last, bound", [
    ("2", "E/L", "bulk", 1e-9),
    ("3", "gap", "conjecture", 1e-8),
])
def test_table_command_grids(k, label, last, bound, capsys):
    code, out = run(["table", k], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    keys = ["5", "4.5", "4", "2sqrt3"]
    assert lines[0] == "L," + ",".join(f"{label}(U={u}),dev(U={u})" for u in keys)
    assert lines[-1].split(",")[0] == last
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 9
        for col in range(2, 9, 2):
            # the critical bulk energy is quadrature-limited (5.9e-8 at N = 8192)
            critical_bulk = cells[0] == "bulk" and col == 8
            assert float(cells[col]) < (1e-7 if critical_bulk else bound), (line, col)


@pytest.mark.heavy
def test_table_two_heavy_adds_the_large_rows(capsys):
    code, out = run(["table", "2", "--heavy"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["8", "12", "16", "24", "64", "128", "256", "516",
                                        "1024", "bulk"]
    for row in rows[5:9]:
        assert max(float(v) for v in row[2::2]) < 1e-9, row


def test_extrapolate_gap_recovers_cubic_intercept():
    ls = np.arange(4, 11)
    gaps = {int(L): 0.1 + 0.5 / L - 0.3 / L**2 + 0.2 / L**3 for L in ls}
    value, err = extrapolate_gap(gaps)
    assert abs(value - 0.1) < 1e-12
    quadratic = np.polyfit(1.0 / ls, [gaps[int(L)] for L in ls], 2)[-1]
    assert err == pytest.approx(abs(value - quadratic), rel=1e-9)
