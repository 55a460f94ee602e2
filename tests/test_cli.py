import csv
import io
import json
import math

import pytest

from itsub.cli import build_parser, main, parse_grid


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(out):
    return list(csv.DictReader(io.StringIO(out)))


def test_parse_grid():
    assert parse_grid("1.5") == [1.5]
    assert parse_grid("0:1:0.25") == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])
    assert parse_grid("2:2:0.1") == []
    grid = parse_grid("0:4:0.01")
    assert len(grid) == 401


def test_density_profile(capsys):
    code, out, _ = _run(capsys, "density", "--beta", "0.4", "--lambda", "1",
                        "--t", "1", "--x", "0:4:0.1")
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 41
    assert list(rows[0]) == ["x", "h", "err", "method"]
    hs = [float(r["h"]) for r in rows]
    assert all(h >= 0 for h in hs)
    # unimodal: increases to a single peak, then decreases
    peak = hs.index(max(hs))
    assert 0 < peak < len(hs) - 1
    assert all(a <= b + 1e-12 for a, b in zip(hs[:peak], hs[1:peak + 1]))
    assert all(a >= b - 1e-12 for a, b in zip(hs[peak:], hs[peak + 1:]))


def test_density_untempered_origin_value(capsys):
    code, out, _ = _run(capsys, "density", "--beta", "0.5", "--lambda", "0",
                        "--t", "1", "--x", "0:4:0.5")
    assert code == 0
    rows = _rows(out)
    assert float(rows[0]["h"]) == pytest.approx(1.0 / math.sqrt(math.pi),
                                                rel=1e-9)
    assert rows[0]["method"] == "boundary"
    assert all(r["method"] in ("series", "integral") for r in rows[1:])


@pytest.mark.parametrize("beta, t, x, ref", [
    ("0.7", "1", "4", 2.5269874360819177e-06),
    ("0.3", "0.001", "1.4027482089114776", 5.545167621946654e-06)])
def test_density_untempered_reference_values(capsys, beta, t, x, ref):
    # the Wright series summed by mpmath at 60 digits; each row reports
    # the error and method that computed it
    code, out, _ = _run(capsys, "density", "--beta", beta, "--lambda", "0",
                        "--t", t, "--x", x)
    assert code == 0
    row = _rows(out)[0]
    assert float(row["h"]) == pytest.approx(ref, rel=1e-8)
    assert abs(float(row["h"]) - ref) <= float(row["err"])
    assert row["method"] == "integral"


def test_density_empty_grid(capsys):
    code, out, _ = _run(capsys, "density", "--beta", "0.5", "--lambda", "1",
                        "--t", "1", "--x", "1:1:0.5")
    assert code == 0
    assert out == "x,h,err,method\n"


def test_density_csv_roundtrip(capsys):
    code, out, _ = _run(capsys, "density", "--beta", "0.6", "--lambda", "2",
                        "--t", "1", "--x", "0.5:1.5:0.5")
    assert code == 0
    for row in _rows(out):
        assert float(row["x"]) > 0
        assert math.isfinite(float(row["h"]))
        assert math.isfinite(float(row["err"]))


def test_density_json_format(capsys):
    code, out, _ = _run(capsys, "density", "--beta", "0.5", "--lambda", "1",
                        "--t", "1", "--x", "0.5:1.0:0.5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 2
    assert set(data[0]) == {"x", "h", "err", "method"}


def test_invalid_beta_exits_2(capsys):
    code, _, err = _run(capsys, "density", "--beta", "1.5", "--lambda", "1",
                        "--t", "1", "--x", "0:1:0.5")
    assert code == 2
    assert "beta" in err


def test_tol_is_a_pde_check_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--beta", "0.5", "--lambda", "1", "--t", "1",
              "--x", "1", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    args = build_parser().parse_args(
        ["pde-check", "--beta", "0.5", "--tol", "1e-3"])
    assert args.tol == 1e-3


def test_bad_grid_exits_2(capsys):
    code, _, _ = _run(capsys, "density", "--beta", "0.5", "--lambda", "1",
                      "--t", "1", "--x", "2:1:0.5")
    assert code == 2


def test_moments_untempered_closed_form(capsys):
    code, out, _ = _run(capsys, "moments", "--beta", "0.5", "--lambda", "0",
                        "--q", "1", "--t", "0.5:2:0.5")
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 4
    from scipy.special import gamma as G

    for row in rows:
        t = float(row["t"])
        ref = G(2.0) / G(1.5) * t ** 0.5
        assert float(row["exact"]) == pytest.approx(ref, rel=1e-8)
        assert float(row["ratio_small"]) == pytest.approx(1.0, rel=1e-8)


def test_moments_single_t(capsys):
    code, out, _ = _run(capsys, "moments", "--beta", "0.5", "--lambda", "1",
                        "--q", "1", "--t", "1")
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 1
    assert float(rows[0]["exact"]) == pytest.approx(2.4716049381348697,
                                                    rel=1e-6)


def test_simulate_deterministic(capsys):
    argv = ["simulate", "--beta", "0.5", "--lambda", "1", "--t", "1",
            "--paths", "50", "--seed", "42", "--horizon", "60"]
    code1, out1, err1 = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = _rows(out1)
    assert len(rows) == 50
    assert list(rows[0]) == ["path_id", "t", "E_lambda"]
    assert "mean=" in err1


def test_pde_check_passes(capsys):
    code, out, _ = _run(capsys, "pde-check", "--beta", "0.5", "--lambda", "1",
                        "--m", "2")
    assert code == 0
    rows = _rows(out)
    assert all(float(r["rel_residual"]) < 1e-3 for r in rows)


def test_selfcheck_filter(capsys):
    code, out, _ = _run(capsys, "selfcheck", "--only",
                        "stable_family.half_closed_form")
    assert code == 0
    assert out == "stable_family.half_closed_form,PASS\n"


def test_selfcheck_negative_control(capsys):
    code, out, _ = _run(capsys, "selfcheck", "--beta", "0.45",
                        "--only", "pde", "--lambda", "1")
    assert code == 0
    assert out == "pde.negative_control,PASS\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "dump.csv"
    code, out, _ = _run(capsys, "density", "--beta", "0.5", "--lambda", "1",
                        "--t", "1", "--x", "0.5:1.0:0.5",
                        "--out", str(target))
    assert code == 0
    assert out == ""
    rows = list(csv.DictReader(target.read_text().splitlines()))
    assert len(rows) == 2


def test_out_file_is_written_only_for_valid_input(tmp_path, capsys):
    target = tmp_path / "keep.csv"
    target.write_bytes(b"x,h,err,method\n1,2,3,series\n")
    before = target.read_bytes()
    code, out, _ = _run(capsys, "density", "--beta", "1.5", "--t", "1",
                        "--x", "1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert target.read_bytes() == before
    code, out, _ = _run(capsys, "density", "--beta", "0.5", "--lambda", "1",
                        "--t", "1", "--x", "0.5:1.0:0.5", "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("x,h,err,method\n")
    assert [float(r["x"]) for r in _rows(text)] == [0.5, 1.0]


def test_density_unconverged_point_fails(capsys):
    code, out, _ = _run(capsys, "density", "--beta", "0.95", "--lambda", "1",
                        "--t", "0.001", "--x", "0.5")
    assert code == 3
    assert _rows(out)[0]["method"] == "failed"


def test_density_large_lam_t(capsys):
    code, out, _ = _run(capsys, "density", "--beta", "0.5", "--lambda", "1",
                        "--t", "1000", "--x", "0.5")
    assert code == 0
    row = _rows(out)[0]
    assert float(row["h"]) == 0.0
    assert row["method"] == "integral"


def test_simulate_exit_codes(capsys):
    base = ["simulate", "--beta", "0.5", "--lambda", "1", "--t", "1"]
    for bad in (["--paths", "0"], ["--step", "-1"]):
        code, _, err = _run(capsys, *base, *bad)
        assert code == 2
        assert "error:" in err
    # paths that cannot cross t = 1 within the horizon
    code, _, err = _run(capsys, *base, "--paths", "5", "--horizon", "0.01")
    assert code == 3
    assert "simulation failed" in err


@pytest.mark.parametrize("bad", [["--q", "60"], ["--t", "-1"],
                                 ["--t", "0:1:0.5"], ["--t", "one"]])
def test_moments_bad_parameter_exits_2(capsys, bad):
    code, out, err = _run(capsys, "moments", "--beta", "0.5", "--lambda",
                          "1", "--q", "1", *bad)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_selfcheck_negative_control_refuses_bad_beta(capsys):
    code, out, err = _run(capsys, "selfcheck", "--beta", "1.5", "--only",
                          "pde", "--lambda", "0")
    assert code == 2
    assert "beta" in err
    assert out == ""


@pytest.mark.parametrize("removed", [["--check", "pde"],
                                     ["--format", "json"]])
def test_selfcheck_has_no_duplicate_options(capsys, removed):
    with pytest.raises(SystemExit) as exc:
        main(["selfcheck", *removed])
    assert exc.value.code == 2
    assert removed[0] in capsys.readouterr().err


def test_simulate_reports_ks_untempered(capsys):
    code, _, err = _run(capsys, "simulate", "--beta", "0.6", "--lambda", "0",
                        "--t", "1", "--paths", "200")
    assert code == 0
    ks = float(err.split("ks=")[1].split()[0])
    assert 0.0 < ks < 0.2


def test_pde_check_zero_tol_fails(capsys):
    code, out, _ = _run(capsys, "pde-check", "--beta", "0.5", "--lambda", "1",
                        "--tol", "0")
    assert code == 3
    assert len(_rows(out)) == 16


def test_moments_untempered_has_no_large_t_form(capsys):
    code, out, _ = _run(capsys, "moments", "--beta", "0.5", "--lambda", "0",
                        "--q", "1", "--t", "1")
    assert code == 0
    row = _rows(out)[0]
    assert math.isnan(float(row["large_t_asym"]))
    assert math.isnan(float(row["ratio_large"]))
    assert math.isfinite(float(row["exact"]))
