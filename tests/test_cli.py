import argparse
import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ancova_power
from ancova_power import cli
from ancova_power.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPowerCommand:
    def test_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--alpha", "0.05", "--tau", "0.5",
                               "--sigma", "1", "--n", "125.58", "--r", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["power"] == pytest.approx(0.80, abs=1e-3)
        # inputs echoed back
        assert doc["tau"] == 0.5
        assert doc["n"] == 125.58

    def test_exact_at_tau_zero_gives_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--tau", "0", "--sigma", "1",
                               "--n", "100", "--exact")
        assert code == 0
        doc = json.loads(out)
        assert doc["power_exact"] == pytest.approx(0.05, abs=1e-12)

    def test_degenerate_correlation_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "power", "--tau", "0.5", "--sigma", "1",
                                 "--n", "100", "--r", "1.0")
        assert code == 1
        assert out == ""
        assert "correlation" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--tau", "0.5", "--sigma", "1",
                               "--n", "126", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.split(",")[-1] == "power"
        assert float(row.split(",")[-1]) == pytest.approx(0.801, abs=1e-2)


class TestSampleSizeCommand:
    def test_anchor_with_rounding(self, capsys):
        code, out, _ = run_cli(capsys, "sample-size", "--tau", "0.5", "--sigma", "1",
                               "--round-even")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == pytest.approx(125.58, abs=0.05)
        assert doc["n_round_even"] == 126

    def test_sigma_doubling_quadruples_n(self, capsys):
        _, out1, _ = run_cli(capsys, "sample-size", "--tau", "0.5", "--sigma", "1")
        _, out2, _ = run_cli(capsys, "sample-size", "--tau", "0.5", "--sigma", "2")
        assert json.loads(out2)["n"] == pytest.approx(4 * json.loads(out1)["n"], rel=1e-12)

    def test_unreachable_power_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "sample-size", "--alpha", "0.05",
                               "--power", "0.02", "--tau", "0.5", "--sigma", "1")
        assert code == 1
        assert "target_power" in err

    def test_tau_zero_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "sample-size", "--tau", "0", "--sigma", "1")
        assert code == 1


class TestRatioAndCurve:
    def test_ratio_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "ratio", "--r", "0.5")
        doc = json.loads(out)
        assert code == 0
        assert doc["exact"] == pytest.approx(1.1236, abs=1e-3)
        assert doc["thumb"] == 1.125

    def test_ratio_at_zero(self, capsys):
        _, out, _ = run_cli(capsys, "ratio", "--r", "0")
        doc = json.loads(out)
        assert doc["exact"] == doc["thumb"] == 1.0
        assert doc["series"] == pytest.approx(1.0, abs=1e-12)

    def test_curve_errors_small_to_r_half(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--r-max", "0.5", "--step", "0.05")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["rows"]) == 11
        assert doc["max_abs_err_thumb"] <= 0.005

    def test_curve_csv_has_header_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--r-max", "0.2", "--step", "0.1",
                               "--format", "csv")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0].startswith("r,exact_ratio,series_ratio,thumb_ratio")
        assert len(lines) == 4

    def test_curve_rejects_grid_beyond_one(self, capsys):
        code, _, _ = run_cli(capsys, "curve", "--r-max", "1.0", "--step", "0.1")
        assert code == 1


class TestExpandCommand:
    def test_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "expand")
        doc = json.loads(out)
        assert code == 0
        assert doc["c2"] == pytest.approx(0.4902, abs=1e-3)
        assert doc["c0"] == pytest.approx(1.0, abs=1e-12)
        assert doc["c2_finite_difference"] == pytest.approx(doc["c2"], abs=1e-6)

    def test_symmetric_target(self, capsys):
        _, out, _ = run_cli(capsys, "expand", "--alpha", "0.05", "--power", "0.975")
        doc = json.loads(out)
        assert doc["a"] + doc["b"] == pytest.approx(1.95996, abs=1e-4)

    def test_bad_probability_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--alpha", "nope"])
        assert exc.value.code == 2


class TestSimulateCommand:
    ARGS = ("simulate", "--n", "126", "--tau", "0.5", "--sigma", "1",
            "--rho", "0.5", "--alpha", "0.05", "--reps", "2000", "--seed", "42",
            "--test", "t", "--adjust", "true")

    def test_emits_result_and_analytics(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        doc = json.loads(out)
        assert code == 0
        assert doc["analytic_power"] == pytest.approx(0.8998, abs=1e-3)
        assert abs(doc["rejection_rate"] - 0.899) <= 0.03
        assert doc["n_reps_completed"] == 2000

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_adjust_other_than_true_or_false_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "8", "--tau", "0.5", "--sigma", "1", "--reps", "10",
                  "--adjust", "maybe"])
        assert exc.value.code == 2
        assert "--adjust" in capsys.readouterr().err

    def test_odd_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "127", "--tau", "0.5", "--sigma", "1",
                  "--reps", "10"])
        assert exc.value.code == 2
        assert "even" in capsys.readouterr().err

    def test_t_critical_value_past_overflow_exits_1(self, capsys):
        # at df = 1 the critical value 1/tan(pi*alpha/2) = 6.4e309 is past DBL_MAX
        code, out, err = run_cli(capsys, "simulate", "--n", "4", "--tau", "0.5",
                                 "--sigma", "1", "--reps", "10", "--alpha", "1e-310",
                                 "--test", "t")
        assert code == 1
        assert out == ""
        assert "alpha = 1e-310 and df = 1" in err

    def test_t_critical_value_with_no_finite_square_exits_0(self, capsys):
        # at df = 1 the critical value 1/tan(pi*alpha/2) = 6.4e199 has no finite
        # square, but is itself finite
        code, out, _ = run_cli(capsys, "simulate", "--n", "4", "--tau", "0.5",
                               "--sigma", "1", "--reps", "10", "--alpha", "1e-200",
                               "--test", "t")
        assert code == 0
        _assert_finite_document(out, "json")
        assert json.loads(out)["rejection_rate"] == 0.0

    def test_csv_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "csv")
        header, row = out.strip().split("\n")
        assert code == 0
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["rejection_rate"]) == pytest.approx(0.899, abs=0.03)


class TestContracts:
    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["power", "--tau", "0.5"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_json_round_trips_17_digits(self, capsys):
        _, out, _ = run_cli(capsys, "sample-size", "--tau", "0.5", "--sigma", "1")
        n = json.loads(out)["n"]
        # serialization at 17 significant digits is lossless
        assert json.loads(out)["n"] == float(format(n, ".17g"))

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording_parse_args(parser, *args):
            parsers.append(parser)
            return parse_args(parser, *args)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
        run_cli(capsys, "ratio", "--r", "0.5")
        run_cli(capsys, "expand")
        assert len(parsers) == 2
        assert parsers[0] is parsers[1]

    def test_negative_value_in_exponent_form(self, capsys):
        _, joined, _ = run_cli(capsys, "power", "--tau=-1e-05", "--sigma", "1", "--n", "126")
        code, out, _ = run_cli(capsys, "power", "--tau", "-1e-05", "--sigma", "1", "--n", "126")
        assert code == 0
        assert out == joined

    @pytest.mark.parametrize("argv, keys", [
        (["power", "--tau", "0.5", "--sigma", "1", "--n", "126"], "alpha tau sigma n r power"),
        (["power", "--tau", "0.5", "--sigma", "1", "--n", "126", "--exact"],
         "alpha tau sigma n r power power_exact dropped_tail_term"),
        (["sample-size", "--tau", "0.5", "--sigma", "1"], "alpha power tau sigma n"),
        (["sample-size", "--tau", "0.5", "--sigma", "1", "--round-even"],
         "alpha power tau sigma n n_round_even"),
        (["ratio", "--r", "0.5"], "alpha power r exact series thumb"),
        (["curve", "--r-max", "0.1", "--step", "0.1"],
         "alpha power rows max_abs_err_series max_abs_err_thumb"),
        (["expand"], "alpha power a b c0 c2 c2_finite_difference"),
        (["simulate", "--n", "8", "--tau", "0.5", "--sigma", "1", "--reps", "20"],
         "n tau sigma rho alpha reps seed test adjust rejection_rate mc_stderr mean_tau_hat "
         "empirical_se_tau_hat analytic_se analytic_power n_reps_completed"),
    ])
    def test_document_layout(self, capsys, argv, keys):
        # inputs in flag order, then results; CSV puts a curve's row columns first
        _, out, _ = run_cli(capsys, *argv)
        assert list(json.loads(out)) == keys.split()
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        row_columns = "r exact_ratio series_ratio thumb_ratio "
        header = row_columns + keys.replace(" rows", "") if "rows" in keys else keys
        assert out.split("\n")[0] == header.replace(" ", ",")

    def test_runtime_loads_no_module_beyond_numpy(self):
        # the package promises numpy alone; the suite itself loads scipy as an oracle,
        # so only a fresh interpreter can show what the library and CLI import
        script = "\n".join([
            "import contextlib, io, sys",
            "import ancova_power",
            "from ancova_power.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    codes = [main(['simulate', '--n', '8', '--tau', '0.5', '--sigma', '1',",
            "                   '--reps', '50']),",
            "             main(['curve', '--r-max', '0.2', '--step', '0.1'])]",
            "print(codes, sorted(m for m in sys.modules",
            "                    if m.partition('.')[0] in ('scipy', 'mpmath', 'statsmodels')))",
        ])
        src = str(Path(ancova_power.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[0, 0] []\n"

    def test_layers_import_only_the_layers_below(self):
        # the math modules sit below the engine, the engine below the simulator, and
        # only the CLI may import them all: a module never imports one above it
        below = {"errors": set(), "normal_math": {"errors"}, "student_t": {"errors"},
                 "power_engine": {"errors", "normal_math", "student_t"},
                 "simulate": {"errors", "normal_math", "student_t", "power_engine"}}
        package = Path(ancova_power.__file__).parent
        assert {p.stem for p in package.glob("*.py")} == {*below, "cli", "__init__"}
        for module, allowed in below.items():
            imported = set()
            for node in ast.walk(ast.parse((package / f"{module}.py").read_text())):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    imported |= {node.module} if node.module else {a.name for a in node.names}
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    # the package imports itself by relative name only
                    names = [node.module] if isinstance(node, ast.ImportFrom) else \
                        [a.name for a in node.names]
                    assert all(n.partition(".")[0] != "ancova_power" for n in names), module
            assert imported <= allowed, (module, imported - allowed)
        assert len(set(ancova_power.__all__)) == len(ancova_power.__all__)
        assert ancova_power.student_t_critical is ancova_power.simulate.student_t_critical

    def test_diagnostics_go_to_stderr_only(self, capsys):
        code, out, err = run_cli(capsys, "ratio", "--r", "1.5")
        assert code == 1
        assert out == ""
        assert err != ""


class TestInputContract:
    @pytest.mark.parametrize("argv, names", [
        (["power", "--tau", "0.5", "--sigma", "inf", "--n", "126"], "sigma"),
        (["power", "--tau", "0.5", "--sigma", "1", "--n", "inf"], "n_total"),
        (["sample-size", "--tau", "1e-200", "--sigma", "1"], "tau"),
        (["curve", "--r-max", "0.5", "--step", "1e-9"], "--step"),
        (["curve", "--r-max", "0.5", "--step", "inf"], "--step"),
        (["simulate", "--n", "126", "--tau", "nan", "--sigma", "1", "--reps", "10"], "tau"),
        (["simulate", "--n", "2", "--tau", "0.5", "--sigma", "1", "--reps", "10"], "n_subjects"),
        (["simulate", "--n", "126", "--tau", "0.5", "--sigma", "inf", "--reps", "10"], "sigma"),
        (["power", "--tau", "0.5", "--sigma", "1e200", "--n", "126"], "sigma"),
        (["power", "--tau", "0.5", "--sigma", "1e-300", "--n", "126"], "sigma"),
        (["sample-size", "--tau", "0.5", "--sigma", "1e-300"], "sigma"),
        (["simulate", "--n", "8", "--tau", "0.5", "--sigma", "1e160", "--reps", "10"], "sigma"),
        (["simulate", "--n", "8", "--tau", "1e200", "--sigma", "1", "--reps", "10"], "tau"),
        # alpha/2 underflows to 0
        (["power", "--alpha", "5e-324", "--tau", "0.5", "--sigma", "1", "--n", "126"], "alpha"),
        (["sample-size", "--alpha", "5e-324", "--tau", "0.5", "--sigma", "1"], "alpha"),
        (["ratio", "--alpha", "5e-324", "--r", "0.5"], "alpha"),
        (["simulate", "--n", "126", "--tau", "0.5", "--sigma", "1", "--reps", "10",
          "--alpha", "5e-324", "--test", "z"], "alpha"),
        (["simulate", "--n", "2000000000", "--tau", "0.5", "--sigma", "1", "--reps", "10"],
         "n_subjects"),
    ])
    def test_bad_input_exits_1_before_compute(self, capsys, monkeypatch, argv, names):
        def must_not_run(*args):
            raise AssertionError("computation started on invalid input")

        monkeypatch.setattr(cli, "run_campaign", must_not_run)
        monkeypatch.setattr(cli.pe, "ratio_report", must_not_run)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert names in err

    def test_non_finite_result_exits_1_with_nothing_on_stdout(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.pe, "power_ratio_series", lambda *args: math.inf)
        for fmt in ("json", "csv"):
            code, out, err = run_cli(capsys, "ratio", "--r", "0.5", "--format", fmt)
            assert code == 1
            assert out == ""
            assert "series" in err


# valid values for every real flag of every command, bounded values for the
# integer flags of simulate (odd and too-small n, reps and seed out of range
# included), booleans for switches
_ALPHA, _POWER = st.floats(1e-3, 0.5), st.floats(0.3, 0.99)
_FLAGS = {
    "power": dict(alpha=_ALPHA, tau=st.floats(-3.0, 3.0), sigma=st.floats(1e-2, 10.0),
                  n=st.floats(1.0, 1e4), r=st.floats(-0.99, 0.99), exact=st.booleans()),
    "sample-size": dict(alpha=_ALPHA, power=_POWER, tau=st.floats(0.01, 3.0),
                        sigma=st.floats(1e-2, 10.0), round_even=st.booleans()),
    "ratio": dict(alpha=_ALPHA, power=_POWER, r=st.floats(-0.99, 0.99)),
    "expand": dict(alpha=_ALPHA, power=_POWER),
    "curve": dict(alpha=_ALPHA, power=_POWER, r_max=st.floats(0.0, 0.99),
                  step=st.floats(0.01, 1.0)),
    "simulate": dict(n=st.integers(-3, 20), tau=st.floats(-1.0, 1.0),
                     sigma=st.floats(0.1, 10.0), rho=st.floats(-0.9, 0.9), alpha=_ALPHA,
                     reps=st.integers(-1, 50), seed=st.integers(-1, 2**64),
                     test=st.sampled_from(["z", "t"]),
                     adjust=st.sampled_from(["true", "false"])),
}
_WORDS = {"true", "false", "z", "t"}


@st.composite
def _command_lines(draw):
    """A command line with valid values, or with one value replaced by any
    float at all (nan, inf, huge, tiny, negative); an integer flag given a
    float is a usage error, so work stays bounded."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    values = {flag: draw(strategy) for flag, strategy in _FLAGS[command].items()}
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(values)))
        values[flag] = draw(st.floats())
    argv = [command]
    for flag, value in values.items():
        option = "--" + flag.replace("_", "-")
        if value is True:
            argv.append(option)
        elif value is not False:
            argv += [option, str(value)]
    return argv + ["--format", draw(st.sampled_from(["json", "csv"]))]


def _assert_finite_document(text: str, fmt: str) -> None:
    if fmt == "json":
        def numbers(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, list):
                return [x for v in value for x in numbers(v)]
            return [value] if isinstance(value, (int, float)) else []

        doc = json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in {text}"))
        assert all(math.isfinite(x) for x in numbers(doc)), text
        return
    header, *rows = text.strip("\n").split("\n")
    assert rows, text
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(header.split(",")), text
        assert all(f in _WORDS or math.isfinite(float(f)) for f in fields), text


@settings(max_examples=300, deadline=None)
@given(argv=_command_lines())
def test_every_successful_output_parses_with_finite_numbers(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage error
            code = exc.code
    if code == 0:
        _assert_finite_document(out.getvalue(), argv[-1])
    else:
        assert out.getvalue() == ""
        assert err.getvalue() != ""
