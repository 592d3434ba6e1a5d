"""Wald arithmetic, chi-square tail, report formatting."""

import numpy as np
import pytest

from markovmix.inference import (
    FitReport,
    chi2_1_sf,
    equation_report,
    format_report,
    norm_cdf,
    normal_p_value,
    significance_stars,
    wald_test,
)


class TestChi2Tail:
    def test_canonical_critical_values(self):
        assert chi2_1_sf(3.841) == pytest.approx(0.05, abs=5e-4)
        assert chi2_1_sf(6.635) == pytest.approx(0.01, abs=5e-4)
        assert chi2_1_sf(0.0) == 1.0

    def test_matches_two_sided_normal(self):
        for z in (0.5, 1.0, 1.836, 2.5, 4.0):
            assert chi2_1_sf(z * z) == pytest.approx(normal_p_value(z), abs=1e-10)

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 20.0, 200)
        vals = chi2_1_sf(xs)
        assert (np.diff(vals) < 0).all()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi2_1_sf(-0.1)

    def test_scipy_agreement(self):
        from scipy.stats import chi2

        xs = np.array([0.1, 1.0, 3.841, 10.0, 25.0])
        assert np.max(np.abs(chi2_1_sf(xs) - chi2.sf(xs, df=1))) < 1e-10


def _scipy_oracle(helper):
    """The helper's formula on scipy.special.erfc."""
    from scipy.special import erfc

    return {
        norm_cdf: lambda z: 0.5 * erfc(-np.asarray(z, dtype=float) / np.sqrt(2.0)),
        chi2_1_sf: lambda x: erfc(np.sqrt(np.asarray(x, dtype=float) / 2.0)),
        normal_p_value: lambda z: erfc(np.abs(np.asarray(z, dtype=float)) / np.sqrt(2.0)),
    }[helper]


class TestErfcHelpers:
    """The math.erfc helpers against scipy.special.erfc.

    scipy's erfc drifts to 5.7e-14 relative error for arguments past
    about 10.6 (|z| > 15), where math.erfc stays within 4e-16 of a
    40-digit reference; there the bound is the oracle's own error.
    """

    Z = np.concatenate([np.linspace(-40.0, 40.0, 8001), [-1e-300, 0.0, 1e-300]])

    @pytest.mark.parametrize("helper", [norm_cdf, chi2_1_sf, normal_p_value])
    def test_values_match_scipy_out_to_z_40(self, helper):
        z = self.Z
        x = z**2 if helper is chi2_1_sf else z  # the chi-square statistic is z squared
        ours, ref = helper(x), _scipy_oracle(helper)(x)
        normal = ref >= np.finfo(float).tiny
        assert (~normal).any() and normal.any()  # the tail reaches underflow
        rel = np.abs(ours - ref)[normal] / ref[normal]
        bound = np.where(np.abs(z[normal]) <= 15.0, 1e-14, 1e-13)
        assert (rel <= bound).all()
        assert (np.abs(ours - ref)[~normal] <= np.finfo(float).tiny).all()

    @pytest.mark.parametrize("helper", [norm_cdf, chi2_1_sf, normal_p_value])
    @pytest.mark.parametrize(
        "value", [1.5, np.float64(1.5), np.asarray(1.5), np.array([0.5, 30.0]),
                  np.full((2, 2), 3.0), [0.25], np.array([])],
    )
    def test_output_types_match_scipy(self, helper, value):
        ours, ref = helper(value), _scipy_oracle(helper)(value)
        assert type(ours) is type(ref)
        assert ours.dtype == ref.dtype == np.float64
        assert np.shape(ours) == np.shape(ref)


class TestNormCdf:
    def test_reference_values(self):
        assert norm_cdf(0.0) == 0.5
        assert norm_cdf(0.9) == pytest.approx(0.8159398746532405, abs=1e-12)
        assert norm_cdf(-1.96) == pytest.approx(0.024997895148220435, abs=1e-12)


class TestWaldTest:
    def test_reported_row_arithmetic(self):
        res = wald_test(0.314340, 0.171241, 0.0)
        assert res.statistic == pytest.approx(3.370, abs=2e-3)
        assert res.p_value == pytest.approx(0.066, abs=1e-3)
        assert res.df == 1

    def test_estimate_equals_null(self):
        res = wald_test(0.5, 0.1, 0.5)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_null_one_side(self):
        res = wald_test(0.685660, 0.171241, 1.0)
        assert res.statistic == pytest.approx(3.371, abs=2e-3)
        assert res.p_value == pytest.approx(0.066, abs=1e-3)

    def test_statistic_is_squared_z(self):
        res = wald_test(0.42, 0.2, 0.0)
        assert res.statistic == (0.42 / 0.2) ** 2

    def test_bad_std_error_rejected(self):
        with pytest.raises(ValueError):
            wald_test(0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            wald_test(0.5, float("nan"), 0.0)


class TestStars:
    def test_thresholds(self):
        assert significance_stars(0.0005) == "***"
        assert significance_stars(0.001) == "***"
        assert significance_stars(0.036) == "**"
        assert significance_stars(0.05) == "**"
        assert significance_stars(0.066) == "*"
        assert significance_stars(0.1) == "*"
        assert significance_stars(0.2) == ""


class TestFormatReport:
    @pytest.fixture
    def reference_report(self):
        eq1 = equation_report(
            np.array([0.685660, 0.314340]), np.array([0.171241, 0.171241]), -2636.355
        )
        eq2 = equation_report(
            np.array([0.629992, 0.370008]), np.array([0.176310, 0.176309]), -2636.622
        )
        return FitReport([eq1, eq2])

    def test_reference_rows_byte_exact(self, reference_report):
        text = format_report(reference_report)
        assert "1 0.685660   0.171241   4.004    0.000 ***" in text
        assert "2 0.314340   0.171241   1.836    0.066 *  " in text
        assert "1 0.629992   0.176310   3.573    0.000 ***" in text
        assert "2 0.370008   0.176309   2.099    0.036 ** " in text

    def test_block_structure(self, reference_report):
        lines = format_report(reference_report).splitlines()
        assert lines[0] == "$`Equation 1`"
        assert lines[1] == "  Estimate Std. Error t value Pr(>|t|)    "
        assert "$`LogLik 1`" in lines
        idx = lines.index("$`LogLik 1`")
        assert lines[idx + 1] == "          [,1]"
        assert lines[idx + 2] == "[1,] -2636.355"

    def test_zero_estimate_renders_six_decimals(self):
        eq = equation_report(np.array([0.0]), np.array([0.5]), -1.0)
        assert "0.000000" in format_report(FitReport([eq]))

    def test_missing_se_renders_na(self):
        eq = equation_report(np.array([0.4]), np.array([np.nan]), -1.0)
        text = format_report(FitReport([eq]))
        assert "NA" in text

    def test_z_and_p_derived(self):
        eq = equation_report(np.array([0.5]), np.array([0.25]), -1.0)
        assert eq.z_values[0] == pytest.approx(2.0)
        assert eq.p_values[0] == pytest.approx(normal_p_value(2.0))

    def test_json_dict_round_trip(self, reference_report):
        doc = reference_report.to_dict()
        assert doc["equations"][0]["estimates"][0] == pytest.approx(0.685660)
        assert doc["equations"][1]["loglik"] == pytest.approx(-2636.622)
