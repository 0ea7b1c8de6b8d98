import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import spheremv
from spheremv import cli, solver
from spheremv.cli import EXIT_CONFIG, EXIT_NUMERICAL, main
from spheremv.meanfield import free_energy
from spheremv.specfun import bessel_i

ONSAGER = '{"n": 3, "family": "onsager"}'
TRANSFORMER = '{"n": 4, "family": "transformer", "beta": 1.0}'
# W = -1: only W_hat_0 is nonzero, so the kernel is stable
CONSTANT = '{"n": 3, "family": "custom", "profile": [[-1, -1], [0, -1], [1, -1]]}'
# W(t) = -0.5 - 1.5 t: W_hat_1 = -1/2 alone is negative, and equals W_hat_0
LINEAR = '{"n": 3, "family": "custom", "profile": [[-1, 1.0], [0, -0.5], [1, -2.0]]}'
STABLE = json.dumps(
    {
        "n": 3,
        "family": "custom",
        "profile": [[float(t), float(t * t)] for t in np.linspace(-1, 1, 41)],
    }
)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_table(text):
    """(header, columns, rows as floats) of a CSV artifact."""
    lines = text.strip().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return json.loads(lines[0][2:]), lines[1].split(","), rows


GAMMA_SHARP_ONSAGER = 32.0 / math.pi
BOTH_FORMATS = {
    "decompose": ["--kernel", ONSAGER, "--K", "10"],
    "bifurcations": ["--kernel", TRANSFORMER, "--K", "8"],
    "spectrum": ["--kernel", ONSAGER, "--K", "6", "--gamma", "12.5"],
    "solve": ["--kernel", ONSAGER, "--K", "24", "--gamma", repr(1.2 * GAMMA_SHARP_ONSAGER),
              "--mode", "2"],
    "branch": ["--kernel", ONSAGER, "--K", "16", "--mode", "2", "--gamma-min",
               repr(1.05 * GAMMA_SHARP_ONSAGER), "--gamma-max", repr(1.3 * GAMMA_SHARP_ONSAGER),
               "--gamma-steps", "3"],
    "simulate": ["--kernel", ONSAGER, "--gamma", "2.0", "--particles", "32", "--steps", "200",
                 "--seed", "3"],
}


@pytest.mark.parametrize("command", sorted(BOTH_FORMATS))
def test_both_formats_carry_the_same_numbers(capsys, command):
    argv = [command, *BOTH_FORMATS[command]]
    code, csv_out, _ = _run(capsys, argv)
    assert code == 0
    header, columns, rows = _csv_table(csv_out)
    assert rows
    code, json_out, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    payload = json.loads(json_out)
    assert set(payload) == {"config", "rows"}
    assert {**payload["config"], "format": "csv"} == header
    assert all(set(row) == set(columns) for row in payload["rows"])
    assert [[float(row[c]) for c in columns] for row in payload["rows"]] == rows


def test_only_cli_and_kernels_import_json():
    # the output format lives in cli.py; kernels.py reads kernel JSON input
    source = Path(spheremv.__file__).parent
    importers = {
        path.name for path in source.glob("*.py")
        if re.search(r"^\s*(import json\b|from json\b)", path.read_text(), re.MULTILINE)
    }
    assert importers == {"cli.py", "kernels.py"}


class TestDecompose:
    def test_onsager_row_values(self, capsys):
        code, out, err = _run(capsys, ["decompose", "--kernel", ONSAGER, "--K", "6"])
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "k,coeff"
        rows = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[2:]}
        assert rows[0] == pytest.approx(math.pi / 4.0, rel=1e-12)
        assert rows[2] == pytest.approx(-math.pi / 32.0, rel=1e-10)
        assert rows[1] == 0.0

    def test_json_format(self, capsys):
        code, out, _ = _run(
            capsys, ["decompose", "--kernel", ONSAGER, "--K", "4", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "rows"}
        assert float(payload["rows"][0]["coeff"]) == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_output_file_and_determinism(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        argv = ["decompose", "--kernel", ONSAGER, "--K", "10", "--out", str(path)]
        assert _run(capsys, argv)[0] == 0
        first = path.read_bytes()
        assert _run(capsys, argv)[0] == 0
        assert path.read_bytes() == first


class TestBifurcations:
    def test_transformer_matches_bessel_formula(self, capsys):
        code, out, _ = _run(capsys, ["bifurcations", "--kernel", TRANSFORMER, "--K", "8"])
        assert code == 0
        rows = {}
        for line in out.strip().splitlines()[2:]:
            k, g = line.split(",")
            rows[int(k)] = float(g)
        n, beta = 4, 1.0
        amp = 2 ** (0.5 * (n - 2)) * beta ** (-0.5 * n) * math.gamma(0.5 * n)
        for k in range(1, 9):
            expected = 1.0 / (amp * bessel_i(k + 0.5 * (n - 2), beta))
            assert rows[k] == pytest.approx(expected, rel=1e-11)

    def test_stable_kernel_emits_note(self, capsys):
        code, out, _ = _run(capsys, ["bifurcations", "--kernel", STABLE, "--K", "8"])
        assert code == 0
        header = json.loads(out.splitlines()[0][2:])
        assert header["note"] == "stable kernel"
        assert out.strip().splitlines()[-1] == "k,gamma_k"

    def test_constant_kernel_is_stable(self, capsys):
        code, out, _ = _run(capsys, ["bifurcations", "--kernel", CONSTANT, "--K", "8"])
        assert code == 0
        header, columns, rows = _csv_table(out)
        assert header["note"] == "stable kernel" and rows == []

    def test_tie_with_mode_zero_keeps_the_point(self, capsys):
        code, out, _ = _run(capsys, ["bifurcations", "--kernel", LINEAR, "--K", "8"])
        assert code == 0
        header, columns, rows = _csv_table(out)
        assert "ties" not in header
        assert len(rows) == 1 and rows[0][0] == 1
        assert rows[0][1] == pytest.approx(2.0, rel=1e-12)


class TestSpectrum:
    def test_zero_mode_and_onsager_crossing(self, capsys):
        gamma = 32.0 / math.pi
        code, out, _ = _run(
            capsys, ["spectrum", "--kernel", ONSAGER, "--K", "6", "--gamma", str(gamma)]
        )
        assert code == 0
        rows = {int(l.split(",")[0]): float(l.split(",")[1]) for l in out.strip().splitlines()[2:]}
        assert rows[0] == 0.0
        assert rows[2] == pytest.approx(0.0, abs=1e-10)


class TestSolve:
    def test_supercritical_solve(self, capsys):
        gamma = 1.2 * 32.0 / math.pi
        code, out, _ = _run(
            capsys,
            [
                "solve", "--kernel", ONSAGER, "--K", "24", "--gamma", str(gamma),
                "--mode", "2", "--format", "json",
            ],
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert int(row["mode"]) == 2
        assert abs(float(row["amplitude"])) > 0.1
        assert float(row["residual"]) <= 1e-11


class TestBranch:
    def test_one_free_energy_per_point(self, capsys, monkeypatch):
        calls = []

        def spied(*args, **kwargs):
            calls.append(args[2])
            return free_energy(*args, **kwargs)

        monkeypatch.setattr(solver, "free_energy", spied)
        monkeypatch.setattr(cli, "free_energy", spied)
        argv = ["branch", *BOTH_FORMATS["branch"][:-1], "5"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        rows = _csv_table(out)[2]
        assert len(rows) == 5
        assert calls == [row[0] for row in rows]


class TestTransition:
    def test_stable_kernel_reports_none(self, capsys):
        code, out, _ = _run(capsys, ["transition", "--kernel", STABLE, "--K", "8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["type"] == "none"
        assert payload["gamma_c_bracket"] is None

    def test_constant_kernel_reports_none(self, capsys):
        code, out, _ = _run(capsys, ["transition", "--kernel", CONSTANT, "--K", "8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["type"] == "none"
        assert payload["witness"] == {"reason": "stable kernel"}

    @pytest.mark.parametrize(
        "partial",
        [
            ["--gamma-min", "9.9"],
            ["--gamma-max", "20"],
            ["--gamma-steps", "5"],
            ["--gamma-min", "9.9", "--gamma-steps", "5"],
        ],
    )
    def test_partial_grid_is_config_error(self, capsys, partial):
        code, out, err = _run(capsys, ["transition", "--kernel", ONSAGER, "--K", "8", *partial])
        assert code == EXIT_CONFIG and out == ""
        assert "--gamma-min and --gamma-max" in json.loads(err)["message"]


class TestSimulate:
    def test_deterministic_run(self, capsys, tmp_path):
        argv = [
            "simulate", "--kernel", ONSAGER, "--K", "8", "--gamma", "2.0",
            "--particles", "64", "--steps", "30", "--seed", "5",
        ]
        code, out1, _ = _run(capsys, argv)
        assert code == 0
        code, out2, _ = _run(capsys, argv)
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "step,moment_1,moment_2"

    def test_heat_kernel_run(self, capsys):
        heat = '{"n": 3, "family": "heat", "epsilon": 0.3}'
        argv = ["simulate", "--kernel", heat, "--K", "8", "--gamma", "2.0",
                "--particles", "32", "--steps", "5"]
        code, out, err = _run(capsys, argv)
        assert code == 0 and err == ""
        assert out.strip().splitlines()[1] == "step,moment_1,moment_2"


class TestErrors:
    def test_malformed_kernel_json_is_config_error(self, capsys):
        code, _, err = _run(capsys, ["decompose", "--kernel", "{not json", "--K", "4"])
        assert code == EXIT_CONFIG
        assert json.loads(err)["error"] == "config"

    def test_unknown_family_is_config_error(self, capsys):
        code, _, err = _run(
            capsys, ["decompose", "--kernel", '{"n": 3, "family": "bogus"}', "--K", "4"]
        )
        assert code == EXIT_CONFIG

    def test_bad_truncation_is_config_error(self, capsys):
        code, _, err = _run(
            capsys, ["solve", "--kernel", ONSAGER, "--K", "8", "--M", "4", "--gamma", "1.0"]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_is_config_error(self, capsys, gamma):
        code, _, err = _run(
            capsys, ["solve", "--kernel", ONSAGER, "--K", "8", "--gamma", gamma, "--mode", "2"]
        )
        assert code == EXIT_CONFIG
        assert "gamma" in json.loads(err)["message"]

    def test_nan_spectrum_gamma_is_config_error(self, capsys):
        code, out, err = _run(
            capsys, ["spectrum", "--kernel", ONSAGER, "--K", "4", "--gamma", "nan"]
        )
        assert code == EXIT_CONFIG and out == ""
        assert "gamma" in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "kernel", ['{"n": 3, "family": "opinion", "p": 5.0}', TRANSFORMER]
    )
    def test_overflowing_solve_fails_at_once(self, capsys, kernel):
        argv = ["solve", "--kernel", kernel, "--gamma", "1e308", "--mode", "1",
                "--K", "16", "--M", "24"]
        # -gamma W*rho overflows in the first Gibbs image for opinion; for the
        # transformer it stays finite there and overflows in the second
        index = 1 if kernel == TRANSFORMER else 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = _run(capsys, argv)
        assert code == EXIT_NUMERICAL
        assert f"non-finite residual at iteration {index}" in json.loads(err)["message"]

    @pytest.mark.parametrize("flag,value", [("--gamma", "nan"), ("--dt", "nan"), ("--dt", "inf")])
    def test_non_finite_simulate_config_is_config_error(self, capsys, flag, value):
        argv = ["simulate", "--kernel", ONSAGER, "--K", "8", "--particles", "16", "--steps", "3",
                flag, value]
        code, out, err = _run(capsys, argv)
        assert code == EXIT_CONFIG and out == ""
        assert flag[2:] in json.loads(err)["message"]

    def test_overflowing_simulate_step_is_numerical_failure(self, capsys):
        argv = ["simulate", "--kernel", TRANSFORMER, "--K", "8", "--particles", "16", "--steps", "3",
                "--dt", "1e300"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = _run(capsys, argv)
        assert code == EXIT_NUMERICAL and out == ""
        assert "non-finite" in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "kernel",
        [
            "3",
            "[1, 2]",
            '{"n": null, "family": "onsager"}',
            '{"n": 3, "family": "opinion", "p": "5"}',
            '{"n": 3.7, "family": "onsager"}',
            '{"n": 3, "family": "transformer", "beta": true}',
            '{"n": 3, "family": "heat", "epsilon": Infinity}',
            '{"n": 3, "family": "custom", "profile": {"t": 1}}',
            '{"n": 1e300, "family": "onsager"}',
        ],
    )
    def test_malformed_kernel_document_is_config_error(self, capsys, kernel):
        code, out, err = _run(capsys, ["decompose", "--kernel", kernel, "--K", "4"])
        assert code == EXIT_CONFIG and out == ""
        assert json.loads(err)["error"] == "config"

    @pytest.mark.parametrize("mode", ["-3", "99"])
    def test_solve_mode_outside_truncation_is_config_error(self, capsys, mode):
        argv = ["solve", "--kernel", ONSAGER, "--K", "16", "--M", "28", "--gamma", "12.0",
                "--mode", mode]
        code, out, err = _run(capsys, argv)
        assert code == EXIT_CONFIG and out == ""
        assert "--mode" in json.loads(err)["message"]

    @pytest.mark.parametrize("mode", ["0", "99"])
    def test_branch_mode_outside_truncation_is_config_error(self, capsys, mode):
        argv = ["branch", "--kernel", ONSAGER, "--K", "16", "--mode", mode,
                "--gamma-min", "11", "--gamma-max", "12", "--gamma-steps", "2"]
        code, out, err = _run(capsys, argv)
        assert code == EXIT_CONFIG and out == ""
        assert "--mode" in json.loads(err)["message"]

    @pytest.mark.parametrize("command,extra", [("transition", []), ("branch", ["--mode", "2"])])
    def test_empty_gamma_grid_is_config_error(self, capsys, command, extra):
        argv = [command, "--kernel", ONSAGER, "--K", "8", *extra, "--gamma-min", "1",
                "--gamma-max", "5", "--gamma-steps", "0"]
        code, out, err = _run(capsys, argv)
        assert code == EXIT_CONFIG and out == ""
        assert "--gamma-steps" in json.loads(err)["message"]

    @pytest.mark.parametrize("command,extra", [("transition", []), ("branch", ["--mode", "2"])])
    @pytest.mark.parametrize(
        "bounds,flag",
        [(["-1", "12"], "--gamma-min"), (["0", "12"], "--gamma-min"),
         (["1", "inf"], "--gamma-max"), (["nan", "12"], "--gamma-min")],
    )
    def test_gamma_bounds_must_be_positive_and_finite(self, capsys, command, extra, bounds, flag):
        argv = [command, "--kernel", ONSAGER, "--K", "8", *extra,
                "--gamma-min", bounds[0], "--gamma-max", bounds[1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, argv)
        assert code == EXIT_CONFIG and out == ""
        assert flag in json.loads(err)["message"]

    def test_single_particle_is_config_error(self, capsys):
        argv = ["simulate", "--kernel", ONSAGER, "--K", "8", "--particles", "1", "--steps", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, argv)
        assert code == EXIT_CONFIG and out == ""
        assert "--particles" in json.loads(err)["message"]

    def test_malformed_inline_kernel_reports_the_json_error(self, capsys):
        code, _, err = _run(capsys, ["decompose", "--kernel", '{"n": 3,', "--K", "4"])
        message = json.loads(err)["message"]
        assert code == EXIT_CONFIG
        assert "malformed kernel JSON" in message and "No such file" not in message

    @pytest.mark.parametrize("key", ["n", "family"])
    def test_missing_kernel_key_is_named(self, capsys, key):
        kernel = json.dumps({k: v for k, v in {"n": 3, "family": "onsager"}.items() if k != key})
        code, _, err = _run(capsys, ["decompose", "--kernel", kernel, "--K", "4"])
        assert code == EXIT_CONFIG
        assert json.loads(err)["message"] == f"kernel description has no '{key}' key"

    def test_missing_kernel_file_is_config_error(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, ["decompose", "--kernel", str(tmp_path / "nope.json"), "--K", "4"]
        )
        assert code == EXIT_CONFIG

    def test_kernel_file_input(self, capsys, tmp_path):
        path = tmp_path / "kernel.json"
        path.write_text(ONSAGER)
        code, out, _ = _run(capsys, ["decompose", "--kernel", str(path), "--K", "4"])
        assert code == 0
        assert out.splitlines()[1] == "k,coeff"
