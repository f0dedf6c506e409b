"""Command-line interface: formats, descriptors, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import probeview.cli
from helpers import per_element_fmt
from probeview import Coherent, ModeSplit, TruncationPolicy, ValidationError, reduce_state
from probeview.cli import (
    _MAX_GRID_POINTS,
    _MAX_MATRIX_BYTES,
    _MAX_ORACLE_BYTES,
    _MAX_SWEEP_MATRIX_BYTES,
    _MAX_SWEEP_TABLE_BYTES,
    _fmt_float,
    _fmt_floats,
    _parse_grid,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture(scope="module")
def gaussian_profile(tmp_path_factory):
    path = tmp_path_factory.mktemp("profiles") / "gaussian.txt"
    x = np.linspace(-6.0, 6.0, 2001)
    np.savetxt(path, np.column_stack([x, np.exp(-(x**2) / 2.0)]))
    return str(path)


class TestReduceCommand:
    def test_number_state_json(self, capsys):
        code, out = run_cli(
            capsys,
            "reduce",
            "--state",
            '{"family": "number", "n": 1}',
            "--q0sq",
            "0.5",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "reduce"
        assert payload["dim"] == 2
        assert payload["rho0"][0][0] == {"re": 0.5, "im": 0}
        assert payload["rho0"][1][1] == {"re": 0.5, "im": 0}
        assert payload["purity"] == 0.5
        assert payload["mean_occupation"] == 0.5

    @pytest.mark.parametrize(
        "state",
        [
            '{"family": "coherent", "alpha": {"re": 1.2, "im": 0.4}}',
            '{"family": "custom", "coeffs": [[0.6, 0.0], [-0.48, 0.64]]}',
            '{"family": "mixture", "weights": [0.5, 0.5], "states": [{"family": "number", "n": 2}, '
            '{"family": "coherent", "alpha": {"re": 0.3, "im": -0.5}}]}',
        ],
        ids=["coherent", "custom", "mixture"],
    )
    def test_diagonal_is_exactly_real(self, capsys, state):
        argv = ("reduce", "--state", state, "--q0sq", "0.4", "--cutoff", "16", "--format", "json")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        rho = json.loads(out)["rho0"]
        assert [rho[i][i]["im"] for i in range(len(rho))] == [0] * len(rho)

    def test_alpha_shorthand(self, capsys):
        code, out = run_cli(capsys, "reduce", "--alpha", "2", "--q0sq", "0.25", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        # a coherent state stays coherent: purity 1, mean q0^2 |alpha|^2
        assert payload["purity"] == pytest.approx(1.0, abs=1e-10)
        assert payload["mean_occupation"] == pytest.approx(1.0, abs=1e-10)

    def test_complex_alpha(self, capsys):
        code, out = run_cli(
            capsys, "reduce", "--alpha", "1,1", "--q0sq", "0.5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_occupation"] == pytest.approx(1.0, abs=1e-10)

    def test_state_from_file(self, capsys, tmp_path):
        state_file = tmp_path / "state.json"
        state_file.write_text('{"family": "number", "n": 2}')
        code, out = run_cli(
            capsys, "reduce", "--state", f"@{state_file}", "--q0sq", "0.5", "--format", "json"
        )
        assert code == 0
        diag = [row[i]["re"] for i, row in enumerate(json.loads(out)["rho0"])]
        assert diag == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_grid_of_q0sq_values(self, capsys):
        code, out = run_cli(
            capsys,
            "reduce",
            "--state",
            '{"family": "number", "n": 1}',
            "--q0sq",
            "0:1:0.25",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [point["q0sq"] for point in payload["results"]] == [0, 0.25, 0.5, 0.75, 1]

    def test_mixture_descriptor(self, capsys):
        descriptor = json.dumps(
            {
                "family": "mixture",
                "weights": [0.5, 0.5],
                "states": [
                    {"family": "number", "n": 1},
                    {"family": "number", "n": 2},
                ],
            }
        )
        code, out = run_cli(
            capsys,
            "reduce",
            "--state",
            descriptor,
            "--q0sq",
            "0.5",
            "--cutoff",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        diag = [row[i]["re"] for i, row in enumerate(payload["rho0"])]
        assert diag == pytest.approx([0.375, 0.5, 0.125], abs=1e-15)

    def test_thermal_descriptor(self, capsys):
        descriptor = json.dumps({"family": "thermal", "betaE": math.log(2.0)})
        code, out = run_cli(
            capsys, "reduce", "--state", descriptor, "--q0sq", "0.5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        diag = [row[i]["re"] for i, row in enumerate(payload["rho0"])]
        # thermal at beta'E = ln 3: populations (1 - 1/3) 3^-n
        assert diag[:3] == pytest.approx([2.0 / 3.0, 2.0 / 9.0, 2.0 / 27.0], abs=1e-10)

    @pytest.mark.parametrize("q0sq", ["1e-310", "5e-324"])
    def test_thermal_at_subnormal_overlap(self, capsys, q0sq):
        descriptor = '{"family": "thermal", "betaE": 2}'
        argv = ("reduce", "--state", descriptor, "--q0sq", q0sq, "--cutoff", "8", "--format", "json")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 9
        assert payload["rho0"][0][0] == {"re": 1, "im": 0}

    @pytest.mark.parametrize(
        "beta_energy,energy,q0sq,cutoff",
        [
            *((1.3, energy, "0:1:0.1", "24") for energy in (0.37, 1e-5, 3, 7.1)),
            (1, 1e-307, "1e-10", "8"),
            (1, 1e-320, "1e-10", "8"),
        ],
    )
    def test_thermal_energy_does_not_change_output(self, capsys, beta_energy, energy, q0sq, cutoff):
        # the state depends on betaE alone; "energy" is only validated
        thermal = {"family": "thermal", "betaE": beta_energy}
        outputs = []
        for descriptor in (thermal, {**thermal, "energy": energy}):
            argv = ("reduce", "--state", json.dumps(descriptor), "--q0sq", q0sq, "--cutoff", cutoff)
            code, out = run_cli(capsys, *argv)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("tol,expected", [("1e-3", 0), (None, 2)])
    def test_tol_reaches_mixture_components(self, capsys, tol, expected):
        # a coherent alpha = 3 cut at 30 discards 7.9e-9, within 1e-3 but not 1e-10
        descriptor = (
            '{"family": "mixture", "weights": [1], "states": [{"family": "coherent", "alpha": 3}]}'
        )
        argv = ["reduce", "--state", descriptor, "--q0sq", "1", "--cutoff", "30"]
        code, _ = run_cli(capsys, *argv, *(("--tol", tol) if tol else ()))
        assert code == expected

    @pytest.mark.parametrize(
        "state",
        [
            '{"family": "number", "n": 2}',
            '{"family": "coherent", "alpha": {"re": 1.0, "im": 0.5}}',
            '{"family": "thermal", "betaE": 2}',
            '{"family": "custom", "coeffs": [[0.6, 0.0], [-0.48, 0.64]]}',
            '{"family": "mixture", "weights": [0.5, 0.5], "states": [{"family": "number", "n": 1}, '
            '{"family": "coherent", "alpha": 0.3}]}',
        ],
        ids=["number", "coherent", "thermal", "custom", "mixture"],
    )
    def test_zero_overlap_keeps_dimension(self, capsys, state):
        points = []
        for q0sq in ("0", "0.5"):
            argv = ("reduce", "--state", state, "--q0sq", q0sq, "--cutoff", "16", "--format", "json")
            code, out = run_cli(capsys, *argv)
            assert code == 0
            points.append(json.loads(out))
        vacuum, half = points
        assert vacuum["dim"] == half["dim"]
        assert vacuum["rho0"][0][0] == {"re": 1, "im": 0}
        assert vacuum["purity"] == 1
        assert vacuum["mean_occupation"] == 0

    def test_custom_descriptor(self, capsys):
        root_half = 1.0 / math.sqrt(2.0)
        descriptor = json.dumps({"family": "custom", "coeffs": [[root_half, 0], [root_half, 0]]})
        code, out = run_cli(
            capsys, "reduce", "--state", descriptor, "--q0sq", "0.5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rho0"][0][1]["re"] == pytest.approx(0.3535533905932738, abs=1e-15)
        assert payload["purity"] == pytest.approx(0.875, abs=1e-12)

    def test_csv_layout(self, capsys):
        code, out = run_cli(
            capsys,
            "reduce",
            "--state",
            '{"family": "number", "n": 1}',
            "--q0sq",
            "0.5",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# command = reduce"
        assert lines[2] == "q0sq,i,j,re,im"
        assert "0.5,0,0,0.5,0" in lines
        assert "0.5,1,1,0.5,0" in lines

    def test_csv_and_json_agree(self, capsys):
        args = ("reduce", "--state", '{"family": "number", "n": 2}', "--q0sq", "0.3")
        _, json_out = run_cli(capsys, *args, "--format", "json")
        _, csv_out = run_cli(capsys, *args, "--format", "csv")
        payload = json.loads(json_out)
        data_rows = [
            line.split(",") for line in csv_out.splitlines() if line and not line.startswith("#")
        ][1:]
        for cells in data_rows:
            i, j = int(cells[1]), int(cells[2])
            assert float(cells[3]) == payload["rho0"][i][j]["re"]
            assert float(cells[4]) == payload["rho0"][i][j]["im"]

    def test_writes_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        code, out = run_cli(
            capsys,
            "reduce",
            "--state",
            '{"family": "number", "n": 0}',
            "--q0sq",
            "0.5",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["dim"] == 1


class TestSweepCommands:
    def test_purity_csv_header_and_endpoints(self, capsys):
        code, out = run_cli(
            capsys, "sweep-purity", "--max-n", "2", "--q0sq", "0:1:0.5", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "n,q0sq,purity"
        assert "1,0,1" in lines
        assert "1,0.5,0.5" in lines
        assert "2,0.5,0.375" in lines
        assert "2,1,1" in lines

    def test_purity_json_rows(self, capsys):
        code, out = run_cli(
            capsys, "sweep-purity", "--max-n", "1", "--q0sq", "0:1:0.5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == ["n", "q0sq", "purity"]
        assert payload["rows"] == [[1, 0, 1], [1, 0.5, 0.5], [1, 1, 1]]

    def test_thermal_csv_header_and_frozen_row(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep-thermal",
            "--q0sq",
            "0.5",
            "--inv-betae",
            "0.2:0.2:0.1",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "inv_betaE,q0sq,inv_beta_primeE"
        cells = lines[2].split(",")
        assert float(cells[0]) == 0.2  # 17-significant-digit round-trip
        assert float(cells[2]) == pytest.approx(0.175753950902173606, abs=1e-12)

    def test_thermal_at_subnormal_overlap(self, capsys):
        argv = ("sweep-thermal", "--q0sq", "1e-310", "--inv-betae", "0.5", "--format", "json")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        [row] = json.loads(out)["rows"]
        # beta'E = ln((q0^2 + e^2 - 1) / q0^2) = 2 + ln(1 - e^-2) - ln q0^2 when q0^2 << 1
        expected = 2.0 + math.log1p(-math.exp(-2.0)) - math.log(1e-310)
        assert row[2] == pytest.approx(1.0 / expected, rel=1e-14)

    def test_thermal_at_zero_overlap_is_vacuum(self, capsys):
        argv = ("sweep-thermal", "--q0sq", "0:1:0.5", "--inv-betae", "1", "--format", "json")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0] == [1, 0, 0]  # the vacuum has temperature 0
        assert [row[1] for row in rows] == [0, 0.5, 1]
        assert rows[2] == [1, 1, 1]

    def test_thermal_default_grid_size(self, capsys):
        code, out = run_cli(capsys, "sweep-thermal", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 100 * 4  # 0.1..10 step 0.1 times four q0sq values

    def test_thermal_prints_the_given_temperature(self, capsys):
        # 1/(1/49) is 49.000000000000007; at q0sq = 1 the reduced temperature is the input's
        argv = ("sweep-thermal", "--q0sq", "1", "--inv-betae", "49", "--format", "csv")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[2:] == ["49,1,49"]

    def test_thermal_keeps_every_given_temperature(self, capsys):
        # six values an ulp apart; through betaE = 1/value they merged into four other ones
        text = "0.9:0.9000000000000006:1.1102230246251565e-16"
        argv = ("sweep-thermal", "--q0sq", "1", "--inv-betae", text, "--format", "json")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        given = _parse_grid(text, "--inv-betae")
        assert len(set(given)) == 6
        assert json.loads(out)["rows"] == [[v, 1, v] for v in given]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep-purity", "--max-n", "4", "--q0sq", "0:1:0.1"),
            ("sweep-thermal", "--q0sq", "0:1:0.5", "--inv-betae", "0.5:3.5:0.5"),
            ("reduce", "--alpha", "0.6,0.2", "--q0sq", "0:1:0.5", "--cutoff", "10"),
            (
                "reduce",
                "--state",
                '{"family": "mixture", "weights": [0.25, 0.75], "states": '
                '[{"family": "number", "n": 2}, {"family": "coherent", "alpha": {"re": 0.3, "im": -0.4}}]}',
                "--q0sq",
                "0.3",
                "--cutoff",
                "10",
            ),
        ],
    )
    def test_row_blocks_join_to_the_same_bytes(self, capsys, monkeypatch, argv, fmt):
        # 44 and 21 rows, and 11-row matrices: blocks of 2 and of 5 rows split every table,
        # the 44 evenly by 2, and leave a shorter last block in each matrix
        assert main([*argv, "--format", fmt]) == 0
        whole = capsys.readouterr().out
        for rows in (2, 5):
            monkeypatch.setattr(probeview.cli, "_TABLE_BLOCK_ROWS", rows)
            assert main([*argv, "--format", fmt]) == 0
            assert capsys.readouterr().out == whole


class TestOracleCheckCommand:
    def test_agreement_at_default_tolerance(self, capsys):
        code, out = run_cli(
            capsys, "oracle-check", "--max-n", "3", "--q0sq", "0:1:0.25", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        names = [check["name"] for check in payload["checks"]]
        assert names == ["number_state_closed_form", "random_state_series"]
        assert all(check["max_abs_diff"] <= 1e-10 for check in payload["checks"])

    def test_random_check_covers_hundred_states(self, capsys):
        code, out = run_cli(
            capsys, "oracle-check", "--max-n", "1", "--q0sq", "0.5:0.5:0.5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        random_check = payload["checks"][1]
        assert random_check["cases"] == 100

    def test_one_kernel_matrix_off_by_1e9_exits_three(self, capsys, monkeypatch):
        import probeview.analysis

        kernel = probeview.analysis.reduce_pure_states

        def off_by_1e9(states, split):
            stacked = kernel(states, split)
            assert stacked.shape[0] == 100
            # a Hermitian, trace-preserving change: every density-matrix gate still passes
            stacked[37, 0, 1] += 1e-9
            stacked[37, 1, 0] += 1e-9
            return stacked

        monkeypatch.setattr(probeview.analysis, "reduce_pure_states", off_by_1e9)
        code, out = run_cli(
            capsys, "oracle-check", "--max-n", "3", "--q0sq", "0.3:0.7:0.2", "--format", "json"
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["status"] == "disagreement"
        number_check, random_check = payload["checks"]
        assert number_check["max_abs_diff"] <= 1e-15
        assert random_check["max_abs_diff"] == pytest.approx(1e-9, rel=1e-6)

    def test_invalid_kernel_matrix_exits_two(self, capsys, monkeypatch):
        import probeview.analysis

        kernel = probeview.analysis.reduce_pure_states

        def trace_off(states, split):
            stacked = kernel(states, split)
            stacked[99, 2, 2] += 1e-9
            return stacked

        monkeypatch.setattr(probeview.analysis, "reduce_pure_states", trace_off)
        code = main(["oracle-check", "--max-n", "3", "--q0sq", "0.5"])
        assert code == 2
        assert "invalid density matrix" in capsys.readouterr().err

    def test_impossible_tolerance_exits_three(self, capsys):
        # 1e-300 is inside the accepted (0, 1e-2] range but below float noise
        code, out = run_cli(
            capsys,
            "oracle-check",
            "--max-n",
            "1",
            "--q0sq",
            "0.5:0.5:0.5",
            "--tol",
            "1e-300",
            "--format",
            "json",
        )
        assert code == 3
        assert json.loads(out)["status"] == "disagreement"


# runs main(argv) with the address space capped at 512 MiB above what the
# imports use, so a limit that stopped working fails the test instead of
# exhausting the machine's memory; prints the exit code and the traced peak
_CAPPED_RUN = """
import json, resource, sys, tracemalloc
from probeview.cli import main
with open("/proc/self/status") as status:
    vm_kib = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
cap = vm_kib * 1024 + (512 << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
tracemalloc.start()
code = main(sys.argv[1:])
print(json.dumps({"code": code, "peak": tracemalloc.get_traced_memory()[1]}))
"""


class TestSizeLimits:
    """Oversized inputs exit 2 with one error line, before the work is allocated."""

    @staticmethod
    def _capped(*argv):
        run = subprocess.run(
            [sys.executable, "-c", _CAPPED_RUN, *argv], capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout)
        assert result["code"] == 2
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
        # nothing of the size the input asks for was allocated
        assert result["peak"] < 1_000_000
        return run.stderr

    def test_oracle_max_n_past_the_byte_limit(self):
        # the two-mode stack alone would need about 16 PB
        err = self._capped("oracle-check", "--max-n", "100000")
        implied = 16 * (100000 + 1 + 100) * (100000 + 1) ** 2
        assert f"--max-n 100000 implies {implied} bytes" in err
        assert f"the limit is {_MAX_ORACLE_BYTES} bytes" in err

    def test_grid_of_1e300_points(self):
        err = self._capped("reduce", "--alpha", "1", "--q0sq", "0:1:1e-300")
        assert f"--q0sq 0:1:1e-300 gives 1e+300 points; the limit is {_MAX_GRID_POINTS}" in err

    def test_reduce_cutoff_past_the_byte_limit(self):
        # the projector alone would need about 149 GiB
        err = self._capped("reduce", "--alpha", "1", "--q0sq", "0.5", "--cutoff", "100000")
        assert f"--cutoff 100000 implies {16 * 100001**2} bytes" in err
        assert f"the limit is {_MAX_MATRIX_BYTES} bytes" in err

    def test_sweep_purity_max_n_past_the_byte_limit(self):
        err = self._capped("sweep-purity", "--max-n", "100000")
        assert f"--max-n 100000 implies {16 * 100001**2} bytes" in err
        assert f"the limit is {_MAX_SWEEP_MATRIX_BYTES} bytes" in err

    @pytest.mark.parametrize(
        "argv, flags, rows",
        [
            (("sweep-thermal", "--q0sq", "0:1:1e-4", "--inv-betae", "0.001:100:0.001"),
             "--q0sq 0:1:1e-4 with --inv-betae 0.001:100:0.001", 10001 * 100000),
            (("sweep-purity", "--max-n", "255", "--q0sq", "0:1:2e-5"),
             "--max-n 255 with --q0sq 0:1:2e-5", 255 * 50001),
        ],
    )
    def test_sweep_rows_past_the_byte_limit(self, argv, flags, rows):
        # every flag is within its own limit; their product is not
        err = self._capped(*argv)
        assert f"{flags} implies {24 * rows} bytes for {rows} rows" in err
        assert f"the limit is {_MAX_SWEEP_TABLE_BYTES} bytes" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep-purity", "--max-n", "2", "--q0sq", "0:1:0.5"),
            ("sweep-thermal", "--q0sq", "0.5", "--inv-betae", "1:6:1"),
        ],
    )
    def test_sweep_row_limit_boundary(self, capsys, monkeypatch, argv):
        # CI's largest sweep has 255 * 21 rows; the largest accepted has 2,796,202
        assert 24 * 2_796_202 <= _MAX_SWEEP_TABLE_BYTES < 24 * 2_796_203
        monkeypatch.setattr(probeview.cli, "_MAX_SWEEP_TABLE_BYTES", 24 * 6)
        assert main(list(argv)) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 6
        monkeypatch.setattr(probeview.cli, "_MAX_SWEEP_TABLE_BYTES", 24 * 6 - 1)
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"implies {24 * 6} bytes for 6 rows of the sweep table; the limit is 143 bytes" in err

    def test_matrix_limits_are_far_above_use(self, capsys):
        # the benchmark and CI reduce at --cutoff 128; the largest accepted is 2047
        assert 16 * 2048**2 <= _MAX_MATRIX_BYTES < 16 * 2049**2
        assert main(["reduce", "--alpha", "1", "--q0sq", "0.5", "--cutoff", "2048"]) == 2
        assert "--cutoff 2048" in capsys.readouterr().err
        # sweep-purity runs at --max-n 5 at most; the largest accepted is 255
        assert 16 * 256**2 <= _MAX_SWEEP_MATRIX_BYTES < 16 * 257**2
        assert main(["sweep-purity", "--max-n", "256"]) == 2
        assert "--max-n 256" in capsys.readouterr().err

    def test_oracle_max_n_limit_is_far_above_ci(self, capsys):
        # CI runs --max-n 24; the largest accepted --max-n is 132
        assert 16 * (132 + 1 + 100) * (132 + 1) ** 2 <= _MAX_ORACLE_BYTES
        assert 16 * (133 + 1 + 100) * (133 + 1) ** 2 > _MAX_ORACLE_BYTES
        code = main(["oracle-check", "--max-n", "133", "--q0sq", "0.5"])
        assert code == 2
        assert "--max-n 133" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, count",
        [
            # with the limit lowered to 10, one point past it for every grid flag
            (("reduce", "--alpha", "1", "--q0sq", "0:1:0.1"), "--q0sq", "11"),
            (("sweep-purity", "--q0sq", "0:1:0.1"), "--q0sq", "11"),
            (("sweep-thermal", "--inv-betae", "0.1:1.1:0.1"), "--inv-betae", "11"),
            (("oracle-check", "--q0sq", "0:1:0.1"), "--q0sq", "11"),
            # stop - start overflows to inf
            (("reduce", "--alpha", "1", "--q0sq=-1e308:1e308:1"), "--q0sq", "inf"),
        ],
    )
    def test_grid_past_the_point_limit(self, capsys, monkeypatch, argv, flag, count):
        monkeypatch.setattr(probeview.cli, "_MAX_GRID_POINTS", 10)
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{flag} " in err
        assert f"gives {count} points; the limit is 10" in err

    def test_grid_limit_boundary(self):
        assert len(_parse_grid(f"1:{_MAX_GRID_POINTS}:1", "--q0sq")) == _MAX_GRID_POINTS
        with pytest.raises(ValidationError, match=f"gives {_MAX_GRID_POINTS + 1} points"):
            _parse_grid(f"0:{_MAX_GRID_POINTS}:1", "--q0sq")


class TestProfileOverlapCommand:
    def test_half_line_of_gaussian(self, capsys, gaussian_profile):
        code, out = run_cli(
            capsys,
            "profile-overlap",
            "--profile",
            gaussian_profile,
            "--region",
            "0:6",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["q0sq"] == pytest.approx(0.5, abs=1e-6)

    def test_default_region_covers_everything(self, capsys, gaussian_profile):
        code, out = run_cli(capsys, "profile-overlap", "--profile", gaussian_profile)
        assert code == 0
        assert json.loads(out)["q0sq"] == 1

    def test_csv_format(self, capsys, gaussian_profile):
        code, out = run_cli(
            capsys, "profile-overlap", "--profile", gaussian_profile, "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("q0sq") for line in lines)


class TestValidationExits:
    @pytest.mark.parametrize(
        "argv",
        [
            ("reduce", "--state", "{not json", "--q0sq", "0.5"),
            ("reduce", "--state", '{"family": "exotic"}', "--q0sq", "0.5"),
            ("reduce", "--state", '{"family": "number"}', "--q0sq", "0.5"),
            ("reduce", "--state", '{"family": "number", "n": -1}', "--q0sq", "0.5"),
            ("reduce", "--state", '{"family": "number", "n": 1}', "--q0sq", "1.5"),
            ("reduce", "--state", '{"family": "number", "n": 1}', "--q0sq", "0.5", "--tol", "0.5"),
            (
                "reduce",
                "--state",
                '{"family": "number", "n": 1}',
                "--q0sq",
                "0.5",
                "--cutoff",
                "0",
            ),
            ("reduce", "--alpha", "nope", "--q0sq", "0.5"),
            ("sweep-thermal", "--inv-betae", "0"),
            *(
                (
                    "reduce",
                    "--state",
                    '{"family": "thermal", "betaE": 1, "energy": %s}' % energy,
                    "--q0sq",
                    "0.5",
                )
                for energy in ('"abc"', "null", "[1]", "true")
            ),
            ("reduce", "--state", '{"family": "number", "n": 300}', "--q0sq", "0.5", "--cutoff", "8"),
            ("sweep-purity", "--q0sq", "1.5"),
            ("sweep-thermal", "--q0sq", "-0.5"),
            ("oracle-check", "--q0sq", "1.5"),
            ("oracle-check", "--tol", "0.5"),
            ("reduce", "--alpha", "1", "--q0sq", "0.5", "--cutoff", "0"),
            ("reduce", "--state", '{"family": "thermal", "betaE": 1e400}', "--q0sq", "0.5"),
            ("reduce", "--state", '{"family": "thermal", "betaE": NaN}', "--q0sq", "0.5"),
            ("reduce", "--alpha", "1e200", "--q0sq", "0.5"),
            ("reduce", "--alpha", "1.5e308,1.5e308", "--q0sq", "1"),
            (
                "reduce",
                "--state",
                '{"family":"mixture","weights":[1e308,1e308],'
                '"states":[{"family":"number","n":1},{"family":"number","n":0}]}',
                "--q0sq",
                "0.5",
            ),
        ],
    )
    def test_exit_two(self, capsys, argv):
        code, _ = run_cli(capsys, *argv)
        assert code == 2

    def test_overflowing_custom_coefficients_print_one_error_line(self, capsys):
        descriptor = '{"family": "custom", "coeffs": [[1e308, 0], [1e308, 0]]}'
        code = main(["reduce", "--state", descriptor, "--q0sq", "0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("sweep-thermal", "--inv-betae", "inf"), "--inv-betae"),
            (("sweep-thermal", "--inv-betae", "nan"), "--inv-betae"),
            (("sweep-purity", "--q0sq", "inf"), "--q0sq"),
            (("reduce", "--alpha", "1", "--q0sq", "nan"), "--q0sq"),
        ],
    )
    def test_single_non_finite_grid_value_names_the_flag(self, capsys, argv, flag):
        # one value x is the grid x:x:1, so it gets a range's finiteness check
        code = main(list(argv))
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag} values must be finite\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            *(
                ((command, *extra, "--q0sq", "1.5"), "--q0sq must lie in [0, 1], got 1.5")
                for command, *extra in (
                    ("reduce", "--alpha", "1"), ("sweep-purity",), ("sweep-thermal",), ("oracle-check",)
                )
            ),
            (("oracle-check", "--max-n", "0"), "--max-n must be an integer >= 1, got 0"),
            (("sweep-purity", "--max-n", "0"), "--max-n must be an integer >= 1, got 0"),
            (("oracle-check", "--seed=-1"), "--seed must be an integer >= 0, got -1"),
            *(
                (
                    ("sweep-thermal", "--inv-betae", value),
                    "--inv-betae values must be positive and finite, with a finite betaE = 1/value",
                )
                for value in ("0", "1e-310")
            ),
            (("reduce", "--alpha", "1", "--q0sq", "0.5", "--cutoff", "0"), "--cutoff must be an integer >= 1, got 0"),
            (("reduce", "--alpha", "1", "--q0sq", "0.5", "--tol", "0.5"), "--tol must lie in (0, 1e-2], got 0.5"),
            (("oracle-check", "--tol", "0.5"), "--tol must lie in (0, 1e-2], got 0.5"),
            *(
                (("reduce", "--state", '{"family": "number"%s}' % n, "--q0sq", "0.5"), line)
                for n, line in (
                    (', "n": -1', "n must be an integer >= 0, got -1"),
                    (', "n": true', "n must be an integer >= 0, got True"),
                    ("", "n must be an integer >= 0, got None"),
                )
            ),
        ],
    )
    def test_library_errors_name_the_flag(self, capsys, argv, line):
        # the library checks each parameter once; main puts the flag in place of its name
        code = main(list(argv))
        assert code == 2
        assert capsys.readouterr().err == f"error: {line}\n"

    @pytest.mark.parametrize(
        "beta_energy, line",
        [
            ("0", "beta_energy must lie in (0, +inf], got 0.0"),
            ("-1", "beta_energy must lie in (0, +inf], got -1.0"),
            ("Infinity", "thermal descriptor needs finite betaE > 0 and energy > 0"),
            ("NaN", "thermal descriptor needs finite betaE > 0 and energy > 0"),
        ],
    )
    def test_thermal_descriptor_errors(self, capsys, beta_energy, line):
        # Thermal owns betaE > 0; the CLI refuses only JSON's non-finite numbers
        state = '{"family": "thermal", "betaE": %s}' % beta_energy
        assert main(["reduce", "--state", state, "--q0sq", "0.5"]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_mixture_off_its_total_norm_names_it(self, capsys):
        # weights and norms each within 1e-10 of 1; the reduced trace would miss 1 by 1.8e-10
        state = (
            '{"family": "mixture", "weights": [0.500000000045, 0.500000000045], "states": '
            '[{"family": "custom", "coeffs": [[1.000000000045, 0.0]]}, '
            '{"family": "custom", "coeffs": [[0.0, 0.0], [1.000000000045, 0.0]]}]}'
        )
        assert main(["reduce", "--state", state, "--q0sq", "0.5", "--cutoff", "3"]) == 2
        assert capsys.readouterr().err == "error: mixture not normalized: sum w_c |psi_c|^2 = 1.00000000018\n"

    def test_inv_betae_without_finite_reciprocal_names_the_flag(self, capsys):
        code = main(["sweep-thermal", "--inv-betae", "1e-310"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--inv-betae" in err

    def test_huge_amplitude_at_zero_overlap_is_vacuum(self, capsys):
        # the reduced amplitude q0 * alpha is 0, so nothing too large is materialized
        code, out = run_cli(capsys, "reduce", "--alpha", "1e200", "--q0sq", "0", "--cutoff", "2")
        assert code == 0
        rho = json.loads(out)["rho0"]
        assert rho[0][0] == {"re": 1, "im": 0}
        assert all(cell == {"re": 0, "im": 0} for row in rho for cell in row[1:])

    def test_nested_mixture_rejected(self, capsys):
        descriptor = json.dumps(
            {
                "family": "mixture",
                "weights": [1.0],
                "states": [{"family": "mixture", "weights": [1.0], "states": []}],
            }
        )
        code, _ = run_cli(capsys, "reduce", "--state", descriptor, "--q0sq", "0.5")
        assert code == 2

    def test_profile_with_overflowing_squares_names_the_cause(self, capsys, tmp_path):
        # the values are finite, their squares are not; no numpy warning reaches stderr
        path = tmp_path / "huge.txt"
        path.write_text("0 1e200\n1 1e200\n2 1e200\n")
        code = main(["profile-overlap", "--profile", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: profile values too large: their squared magnitudes overflow\n"

    def test_malformed_profile_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.0 1.0\nnot numbers here\n")
        code, _ = run_cli(capsys, "profile-overlap", "--profile", str(bad))
        assert code == 2

    def test_missing_state_file_exits_four(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "reduce", "--state", f"@{tmp_path}/nowhere.json", "--q0sq", "0.5"
        )
        assert code == 4

    def test_missing_profile_exits_four(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "profile-overlap", "--profile", f"{tmp_path}/nowhere.txt")
        assert code == 4

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_late_failure_writes_nothing(self, capsys, tmp_path, fmt):
        # q0sq 0 reduces to the vacuum; q0sq 1 keeps |alpha|^2 = 100, far past cutoff 8
        first, argv = (
            ["reduce", "--alpha", "10", "--q0sq", grid, "--cutoff", "8", "--format", fmt]
            for grid in ("0", "0:1:1")
        )
        assert run_cli(capsys, *first)[0] == 0
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        out = tmp_path / "earlier.txt"
        out.write_bytes(b"earlier output\n")
        assert main([*argv, "--out", str(out)]) == 2
        assert out.read_bytes() == b"earlier output\n"

    def test_unwritable_out_exits_four(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys,
            "reduce",
            "--state",
            '{"family": "number", "n": 0}',
            "--q0sq",
            "0.5",
            "--out",
            f"{tmp_path}/no_such_dir/out.json",
        )
        assert code == 4


class TestDeterminism:
    COMMANDS = {
        "reduce": ("reduce", "--alpha", "1.5,0.5", "--q0sq", "0:1:0.25"),
        "sweep-purity": ("sweep-purity", "--max-n", "4"),
        "sweep-thermal": ("sweep-thermal",),
        "oracle-check": ("oracle-check", "--max-n", "2", "--q0sq", "0:1:0.5"),
    }

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_repeat_runs_identical(self, capsys, name, fmt):
        argv = self.COMMANDS[name] + ("--format", fmt)
        code_a, out_a = run_cli(capsys, *argv)
        code_b, out_b = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_profile_overlap_repeats(self, capsys, gaussian_profile):
        argv = ("profile-overlap", "--profile", gaussian_profile, "--region=-1:2")
        _, out_a = run_cli(capsys, *argv)
        _, out_b = run_cli(capsys, *argv)
        assert out_a == out_b

    def test_subprocess_byte_identical(self):
        argv = [
            sys.executable,
            "-m",
            "probeview",
            "reduce",
            "--state",
            '{"family": "number", "n": 3}',
            "--q0sq",
            "0:1:0.1",
            "--format",
            "csv",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout  # sanity: the runs actually produced output


# few magnitudes, so that repeats and +/- pairs of one magnitude are common
_MAGNITUDE_POOL = [0.0, 5e-324, 1e-190, 0.1, 1.0, 2.5e300, math.inf, math.nan]


class TestBatchFormatter:
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @example([0.0])
    @example([-0.0])
    @example([5e-324, -5e-324])
    @example([1e-190])
    @example([math.inf, -math.inf])
    @example([math.nan])
    def test_matches_scalar_formatter_and_round_trips(self, values):
        strings = _fmt_floats(np.array(values))
        assert strings == [_fmt_float(v) for v in values]
        for text, value in zip(strings, values):
            if not math.isnan(value):
                assert float(text) == value

    @given(
        st.lists(
            st.tuples(st.sampled_from(_MAGNITUDE_POOL), st.booleans()), min_size=1, max_size=60
        )
    )
    @example([(0.0, True), (0.0, False)])
    @example([(math.nan, True), (math.nan, False), (math.inf, True), (math.inf, False)])
    def test_repeated_magnitudes_with_random_signs(self, draws):
        # negating 0.0 and NaN gives -0.0 and a NaN with its sign bit set
        values = np.array([-magnitude if negative else magnitude for magnitude, negative in draws])
        assert _fmt_floats(values) == per_element_fmt(values)

    @pytest.mark.parametrize("alpha", [-1.5, 1.5j])
    def test_exactly_hermitian_reduced_matrix(self, alpha):
        # a real or imaginary amplitude makes c_i conj(c_j) exact, so the matrix is exactly
        # Hermitian: every off-diagonal magnitude repeats, and some of its zeros are -0.0
        elems = reduce_state(Coherent(alpha), ModeSplit(0.6), TruncationPolicy(32)).elems
        assert np.array_equal(elems, elems.conj().T)
        cells = np.stack([elems.real, elems.imag], axis=-1)
        assert np.unique(np.abs(cells)).size <= cells.size // 2
        assert np.any(np.signbit(cells) & (cells == 0.0))
        assert _fmt_floats(cells) == per_element_fmt(cells)

    def test_three_dimensional_stack(self):
        policy = TruncationPolicy(24)
        stack = np.stack(
            [reduce_state(Coherent(1.2 + 0.4j), ModeSplit(q0sq), policy).elems for q0sq in (0.0, 0.3, 1.0)]
        )
        for part in (stack.real, stack.imag):
            assert _fmt_floats(part) == per_element_fmt(part)
