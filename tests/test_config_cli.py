"""Tests for spec parsing and the command-line surface."""

import json
import math
import warnings

import numpy as np
import pytest

from moq import DomainError, ExtendedDistribution, SpecError, load_spec, parse_spec
from moq.cli import _fmt, main
from moq.sampling import RandomSource, sample_accept_reject, sample_inverse_cdf, sample_random_maxima


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


WEIBULL_FIG = {"baseline": {"family": "weibull", "scale": 2.0, "shape": 2.0}, "a": [1e-6, 0.15]}
WEIBULL_ID = {"baseline": {"family": "weibull", "scale": 2.0, "shape": 2.0}, "a": [1.0]}
LL_EQUAL = {"baseline": {"family": "loglogistic"}, "a": [1.0, 1.0]}
EXP_ID = {"baseline": {"family": "exponential"}, "a": [1.0]}
EXP_PMF = {"baseline": {"family": "exponential"}, "a": [1.5, 0.5], "seed": 5}
GW_HALF = {
    "baseline": {"family": "generalized_weibull", "scale": 1, "shape": 0.5, "shape2": 2},
    "a": [1.5, 0.5],
}


Q150 = {"baseline": {"family": "exponential"}, "a": [1.0 + 0.5 * math.sin(i) for i in range(150)], "seed": 3}


class TestSpecParsing:
    def test_round_trip(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, EXP_PMF))
        assert spec.baseline.scale == 1.0
        assert spec.pv.q == 2 and spec.pv.a == (1.5, 0.5)
        assert spec.seed == 5

    def test_unknown_top_key(self):
        with pytest.raises(SpecError, match="unknown key 'aa'"):
            parse_spec({"baseline": {"family": "exponential"}, "a": [1.0], "aa": 2})

    def test_unknown_baseline_key(self):
        with pytest.raises(SpecError, match="unknown key 'shap'"):
            parse_spec({"baseline": {"family": "weibull", "scale": 1.0, "shap": 2.0}, "a": [1.0]})

    def test_missing_required_field(self):
        with pytest.raises(SpecError, match="missing key 'shape'"):
            parse_spec({"baseline": {"family": "weibull", "scale": 1.0}, "a": [1.0]})

    def test_unknown_family(self):
        with pytest.raises(SpecError, match="unknown family"):
            parse_spec({"baseline": {"family": "gamma"}, "a": [1.0]})

    def test_invalid_parameter_values(self):
        with pytest.raises(SpecError):
            parse_spec({"baseline": {"family": "exponential"}, "a": [1.0, -1.0]})
        with pytest.raises(SpecError):
            parse_spec({"baseline": {"family": "exponential", "scale": "x"}, "a": [1.0]})

    def test_syntax_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"baseline": {"family": "exponential"},\n "a": [1.0,]}')
        with pytest.raises(SpecError, match=r"bad\.json:2:"):
            load_spec(path)


class TestCurveCommand:
    def test_identity_weibull_hazard_is_half_x(self, tmp_path):
        spec = write_spec(tmp_path, WEIBULL_ID)
        out = tmp_path / "c.csv"
        rc = main(["curve", "--spec", spec, "--quantity", "hazard",
                   "--lo", "0.01", "--hi", "6", "--step", "0.01", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,hazard"
        assert len(lines) - 1 == 600
        for line in lines[1:]:
            x, v = map(float, line.split(","))
            assert v == pytest.approx(x / 2.0, rel=1e-10)

    def test_rich_hazard_curve_has_extrema(self, tmp_path):
        spec = write_spec(tmp_path, WEIBULL_FIG)
        out = tmp_path / "fig.csv"
        rc = main(["curve", "--spec", spec, "--quantity", "hazard",
                   "--lo", "0.01", "--hi", "6", "--step", "0.01", "--out", str(out)])
        assert rc == 0
        vals = np.array([float(l.split(",")[1]) for l in out.read_text().strip().split("\n")[1:]])
        d = np.sign(np.diff(vals))
        d = d[d != 0]
        assert int(np.sum(d[1:] != d[:-1])) >= 2

    def test_byte_stable(self, tmp_path):
        spec = write_spec(tmp_path, WEIBULL_FIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["curve", "--spec", spec, "--quantity", "sf",
                         "--lo", "0", "--hi", "3", "--step", "0.5", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_range_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, EXP_ID)
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--spec", spec, "--lo", "5", "--hi", "1", "--step", "0.1"])
        assert exc.value.code == 2

    def test_parse_failure_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        rc = main(["curve", "--spec", str(path), "--lo", "0", "--hi", "1", "--step", "0.5"])
        assert rc == 2

    def test_hazard_past_survival_underflow(self, tmp_path, capsys):
        """exp(-750) and exp(-800) underflow; the hazard is still exactly 1."""
        spec = write_spec(tmp_path, EXP_ID)
        rc = main(["curve", "--spec", spec, "--quantity", "hazard",
                   "--lo", "700", "--hi", "800", "--step", "50"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["x,hazard", "700,1", "750,1", "800,1"]

    def test_evaluation_error_exits_3_and_names_x(self, tmp_path, capsys, monkeypatch):
        original = ExtendedDistribution.hazard

        def failing(self, x):
            if np.any(np.asarray(x) > 720.0):
                raise DomainError("no value here")
            return original(self, x)

        monkeypatch.setattr(ExtendedDistribution, "hazard", failing)
        spec = write_spec(tmp_path, EXP_ID)
        rc = main(["curve", "--spec", spec, "--quantity", "hazard",
                   "--lo", "700", "--hi", "800", "--step", "50"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "x = 750" in err and "no value here" in err

    def test_nan_value_exits_3_and_names_x(self, tmp_path, capsys):
        """g_1 = q a_1 / S underflows and s underflows from x = 745: the hazard is 0/0."""
        spec = write_spec(tmp_path, {"baseline": {"family": "exponential"}, "a": [1e-300, 1e300]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            rc = main(["curve", "--spec", spec, "--quantity", "hazard",
                       "--lo", "700", "--hi", "800", "--step", "50"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1 and "x = 750" in captured.err and "0/0" in captured.err

    @pytest.mark.parametrize("quantity", ["cdf", "sf", "pdf", "hazard"])
    def test_rows_are_the_scalar_values(self, tmp_path, quantity):
        """The whole grid is one array call; each row holds what the scalar call gives."""
        spec = write_spec(tmp_path, WEIBULL_FIG)
        out = tmp_path / "c.csv"
        assert main(["curve", "--spec", spec, "--quantity", quantity,
                     "--lo", "0.003", "--hi", "60", "--step", "0.0371", "--out", str(out)]) == 0
        lines = out.read_text().split("\n")
        assert lines[0] == f"x,{quantity}" and lines[-1] == ""
        loaded = load_spec(spec)
        ed = ExtendedDistribution(loaded.baseline, loaded.pv)
        xs = 0.003 + 0.0371 * np.arange(len(lines) - 2)
        assert len(xs) == int((60 - 0.003) / 0.0371 + 1e-9) + 1
        fn = getattr(ed, quantity)
        assert lines[1:-1] == [f"{_fmt(x)},{_fmt(fn(float(x)))}" for x in xs]


class TestSampleCommand:
    def test_deterministic_file(self, tmp_path):
        spec = write_spec(tmp_path, EXP_PMF)
        out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        for out in (out1, out2):
            rc = main(["sample", "--spec", spec, "--sampler", "inverse-cdf",
                       "--n", "10", "--seed", "7", "--out", str(out)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0].startswith("# sampler=inverse-cdf seed=7 n=10")
        assert len(lines) == 11

    def test_condition_violation_exits_4(self, tmp_path, capsys):
        spec = write_spec(tmp_path, WEIBULL_FIG)
        rc = main(["sample", "--spec", spec, "--sampler", "random-maxima", "--n", "10"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "sum(a) >= q" in err and "a_i <= 1" in err

    def test_accept_reject_header_reports_rate(self, tmp_path):
        spec = write_spec(tmp_path, EXP_PMF)
        out = tmp_path / "ar.txt"
        rc = main(["sample", "--spec", spec, "--sampler", "accept-reject",
                   "--n", "10000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        header = out.read_text().split("\n")[0]
        assert "acceptance_rate=" in header and "n_proposed=" in header
        rate = float(header.split("acceptance_rate=")[1].split()[0])
        assert rate == pytest.approx(2.0 / 3.0, abs=0.02)

    @pytest.mark.parametrize("sampler, sample", [
        ("accept-reject", sample_accept_reject),
        ("random-maxima", sample_random_maxima),
        ("inverse-cdf", sample_inverse_cdf),
    ])
    def test_body_is_the_library_batch(self, tmp_path, sampler, sample):
        data = {"baseline": {"family": "weibull", "scale": 1.0, "shape": 1.5}, "a": [2.0, 0.3, 0.9]}
        spec = write_spec(tmp_path, data)
        out = tmp_path / "draws.txt"
        assert main(["sample", "--spec", spec, "--sampler", sampler, "--n", "3000", "--seed", "41",
                     "--out", str(out)]) == 0
        loaded = load_spec(spec)
        batch = sample(ExtendedDistribution(loaded.baseline, loaded.pv), RandomSource(41), 3000)
        header, body = out.read_text().split("\n", 1)
        assert header.startswith(f"# sampler={batch.sampler} seed=41 n=3000")
        assert body == "\n".join(format(v, ".17g") for v in batch.values) + "\n"

    def test_seed_resolution_order(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path, EXP_PMF)  # spec says seed=5
        out_env, out_flag, out_spec = (tmp_path / n for n in ("e.txt", "f.txt", "s.txt"))
        monkeypatch.setenv("MOQ_SEED", "99")
        main(["sample", "--spec", spec, "--n", "5", "--out", str(out_env)])
        main(["sample", "--spec", spec, "--n", "5", "--seed", "7", "--out", str(out_flag)])
        monkeypatch.delenv("MOQ_SEED")
        main(["sample", "--spec", spec, "--n", "5", "--out", str(out_spec)])
        assert "seed=99" in out_env.read_text().split("\n")[0]
        assert "seed=7" in out_flag.read_text().split("\n")[0]
        assert "seed=5" in out_spec.read_text().split("\n")[0]


class TestMomentCommand:
    def test_closed_form_line(self, tmp_path, capsys):
        spec = write_spec(tmp_path, LL_EQUAL)
        rc = main(["moment", "--spec", spec, "--r", "0.5", "--method", "closed_form"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        fields = dict(part.split("=", 1) for part in line.split())
        assert float(fields["value"]) == pytest.approx(math.pi / 2.0, abs=1e-10)
        assert fields["method"] == "closed_form"
        assert int(fields["terms"]) >= 1
        assert float(fields["error_estimate"]) >= 0.0

    def test_identity_mean(self, tmp_path, capsys):
        spec = write_spec(tmp_path, EXP_ID)
        rc = main(["moment", "--spec", spec, "--r", "1"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert float(line.split()[0].split("=")[1]) == pytest.approx(1.0, abs=1e-10)

    def test_order_beyond_shape_exits_4(self, tmp_path):
        spec = write_spec(tmp_path, LL_EQUAL)
        assert main(["moment", "--spec", spec, "--r", "1.5"]) == 4

    @pytest.mark.parametrize("data, r", [
        ({"baseline": {"family": "exponential"}, "a": [2.2, 0.5, 0.5]}, "200"),
        ({"baseline": {"family": "weibull", "scale": 1e200, "shape": 2}, "a": [2.2, 0.5, 0.5]}, "2"),
    ])
    def test_overflowing_moment_exits_4(self, tmp_path, capsys, data, r):
        assert main(["moment", "--spec", write_spec(tmp_path, data), "--r", r]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("error:") == 1 and err.startswith("error:") and "overflows" in err

    def test_order_170_ends_in_a_typed_error(self, tmp_path, capsys, wall_clock_limit):
        """The series terms of order 170 overflow from index 25: the series
        fails there, and the quadrature it falls back on misses tol."""
        spec = write_spec(tmp_path, {"baseline": {"family": "exponential"}, "a": [2.2, 0.5, 0.5]})
        with wall_clock_limit(5.0):
            assert main(["moment", "--spec", spec, "--r", "170"]) == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("error:") == 1 and err.startswith("error:")

    def test_quadrature_tolerance_failure_exits_5(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GW_HALF)
        assert main(["moment", "--spec", spec, "--r", "2.5", "--method", "quadrature", "--tol", "1e-300"]) == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("error:") == 1 and err.startswith("error:")

    def test_negative_order_in_the_pmf_regime(self, tmp_path, capsys):
        """E(X^-0.5) for EXP_PMF exists (r > -1); the unit-exponential
        series hold there.  Mpmath: 1.4053666390427739 to 16 digits."""
        spec = write_spec(tmp_path, EXP_PMF)
        assert main(["moment", "--spec", spec, "--r", "-0.5"]) == 0
        fields = dict(part.split("=", 1) for part in capsys.readouterr().out.split())
        assert fields["method"] == "scaling(series_at_zero)"
        assert float(fields["value"]) == pytest.approx(1.4053666390427739, rel=1e-12)

    def test_scaling_is_not_a_method(self, tmp_path, capsys):
        spec = write_spec(tmp_path, EXP_PMF)
        with pytest.raises(SystemExit) as exc:
            main(["moment", "--spec", spec, "--r", "1", "--method", "scaling"])
        assert exc.value.code == 2
        assert "invalid choice: 'scaling'" in capsys.readouterr().err

    def test_fractional_generalized_weibull_moment(self, tmp_path, capsys):
        """E(X^2.5) for GW_HALF, 13992009.375 by mpmath, which the x-space
        quadrature could not reach within its tolerance."""
        spec = write_spec(tmp_path, GW_HALF)
        assert main(["moment", "--spec", spec, "--r", "2.5"]) == 0
        value = float(capsys.readouterr().out.split()[0].removeprefix("value="))
        assert value == pytest.approx(13992009.375, rel=1e-10)


class TestVerifyCommand:
    def test_unknown_check_exits_2(self):
        assert main(["verify", "nonsense-check"]) == 2

    def test_named_checks_run_and_pass(self, capsys):
        rc = main(["verify", "hazard-extrema", "envelope-canary", "--budget", "2000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 2
        assert "hazard-extrema\tPASS" in out

    def test_full_battery_small_budget(self, capsys):
        rc = main(["verify", "--budget", "4000", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv, moq_seed, spec_data",
    [
        (["curve", "--lo", "nan", "--hi", "1", "--step", "0.5"], None, EXP_ID),
        (["curve", "--lo", "0", "--hi", "inf", "--step", "0.5"], None, EXP_ID),
        (["curve", "--lo", "0", "--hi", "1", "--step", "nan"], None, EXP_ID),
        (["sample", "--n", "3", "--seed", "-1"], None, EXP_PMF),
        (["sample", "--n", "3"], "-1", EXP_PMF),
        (["sample", "--n", "3"], None, {**EXP_PMF, "seed": -3}),
        (["verify", "sampler-ks", "--budget", "0"], None, EXP_PMF),
        (["verify", "sampler-ks", "--budget", "100", "--seed", "-1"], None, EXP_PMF),
    ],
    ids=["lo-nan", "hi-inf", "step-nan", "seed-flag", "seed-env", "seed-spec", "budget-0", "verify-seed"],
)
def test_bad_numeric_argument_exits_2(tmp_path, monkeypatch, capsys, argv, moq_seed, spec_data):
    if moq_seed is None:
        monkeypatch.delenv("MOQ_SEED", raising=False)
    else:
        monkeypatch.setenv("MOQ_SEED", moq_seed)
    try:
        rc = main([argv[0], "--spec", write_spec(tmp_path, spec_data), *argv[1:]])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample", "--sampler", "inverse-cdf", "--n", "50"],
    ["curve", "--quantity", "cdf", "--lo", "0.5", "--hi", "5", "--step", "0.5"],
    ["moment", "--r", "1"],
])
def test_q150_spec_runs(tmp_path, capsys, argv):
    """q = 150: the q^q form raised a raw OverflowError from q = 144."""
    spec = write_spec(tmp_path, Q150)
    assert main([argv[0], "--spec", spec, *argv[1:]]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out
