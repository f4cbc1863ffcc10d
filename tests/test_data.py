"""Panel loading, alignment and synthetic generation."""

import numpy as np
import pytest

from _oracles import load_truth

from riskcast.data import (ReturnPanel, SyntheticSpec, generate_synthetic, load_panel, save_panel,
                           save_truth)
from riskcast.errors import (AlignmentError, FormatError, IntegrityError,
                             ParameterError)


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadPanel:
    def test_exact_overlap_join(self, tmp_path):
        a = write(tmp_path / "a.csv", "date,x,y\nd1,0.1,0.2\nd2,0.3,0.4\nd3,0.5,0.6\nd4,0.7,0.8\nd5,0.9,1.0\n")
        f = write(tmp_path / "f.csv", "date,m\nd1,1\nd2,2\nd3,3\nd4,4\nd5,5\n")
        panel = load_panel(a, f)
        assert panel.T == 5
        assert panel.assets == ("x", "y")
        assert panel.factors == ("m",)
        assert panel.R[0, 1] == 0.2

    def test_intersection_join(self, tmp_path):
        a = write(tmp_path / "a.csv", "date,x\n" + "".join(f"d{i},0.{i}\n" for i in range(1, 6)))
        f = write(tmp_path / "f.csv", "date,m\n" + "".join(f"d{i},{i}\n" for i in range(3, 8)))
        panel = load_panel(a, f)
        assert panel.T == 3
        assert panel.dates == ("d3", "d4", "d5")

    def test_non_numeric_cell_names_location(self, tmp_path):
        a = write(tmp_path / "a.csv", "date,x\nd1,0.1\n")
        f = write(tmp_path / "f.csv", "date,m\nd1,oops\n")
        with pytest.raises(FormatError, match="row 2.*'m'"):
            load_panel(a, f)

    def test_empty_intersection(self, tmp_path):
        a = write(tmp_path / "a.csv", "date,x\nd1,0.1\n")
        f = write(tmp_path / "f.csv", "date,m\nd9,1\n")
        with pytest.raises(AlignmentError):
            load_panel(a, f)

    def test_duplicate_date(self, tmp_path):
        a = write(tmp_path / "a.csv", "date,x\nd1,0.1\nd1,0.2\n")
        f = write(tmp_path / "f.csv", "date,m\nd1,1\n")
        with pytest.raises(IntegrityError, match="duplicate"):
            load_panel(a, f)

    def test_missing_cell_rejects_row(self, tmp_path):
        a = write(tmp_path / "a.csv", "date,x\nd1,0.1\nd2,\nd3,0.3\n")
        f = write(tmp_path / "f.csv", "date,m\nd1,1\nd2,2\nd3,3\n")
        panel = load_panel(a, f)
        assert panel.dates == ("d1", "d3")

    def test_padded_nan_and_blank_cells(self, tmp_path):
        # whitespace around a number is read as the number; a row with an
        # empty or NaN cell is dropped, and so is a blank line
        a = write(tmp_path / "a.csv", "date,x,y\nd1, 0.1 ,2e-3\n\nd2,nan,0.2\n,,\n"
                                      "d3,0.3, NaN\nd4,-0.4,\t0.5\nd5,,0.6\n")
        f = write(tmp_path / "f.csv", "date,m\n" + "".join(f"d{i},{i}\n" for i in range(1, 6)))
        panel = load_panel(a, f)
        assert panel.dates == ("d1", "d4")
        assert panel.R.tolist() == [[0.1, 0.002], [-0.4, 0.5]]

    def test_bad_cell_after_a_missing_one_still_raises(self, tmp_path):
        a = write(tmp_path / "a.csv", "date,x,y\nd1,0.1,0.2\nd2,,oops\n")
        f = write(tmp_path / "f.csv", "date,m\nd1,1\nd2,2\n")
        with pytest.raises(FormatError, match="row 3, column 'y'"):
            load_panel(a, f)

    def test_short_row_raises(self, tmp_path):
        a = write(tmp_path / "a.csv", "date,x,y\nd1,0.1,0.2\nd2,0.3\n")
        f = write(tmp_path / "f.csv", "date,m\nd1,1\nd2,2\n")
        with pytest.raises(FormatError, match="row 3 has 2 cells, expected 3"):
            load_panel(a, f)

    def test_dates_sorted_ascending(self, tmp_path):
        a = write(tmp_path / "a.csv", "date,x\nd3,0.3\nd1,0.1\nd2,0.2\n")
        f = write(tmp_path / "f.csv", "date,m\nd2,2\nd3,3\nd1,1\n")
        panel = load_panel(a, f)
        assert panel.dates == ("d1", "d2", "d3")
        assert panel.R[:, 0].tolist() == [0.1, 0.2, 0.3]

    def test_round_trip_identity(self, tmp_path):
        spec = SyntheticSpec(N=4, K=2, T=30, loadings=np.ones((4, 2)),
                             factor_cov=np.eye(2) * 1e-4, idio_var=np.full(4, 1e-4),
                             seed=3, train_len=10)
        panel, _ = generate_synthetic(spec)
        save_panel(panel, tmp_path / "a.csv", tmp_path / "f.csv")
        back = load_panel(tmp_path / "a.csv", tmp_path / "f.csv", train_len=10)
        assert back.dates == panel.dates
        np.testing.assert_array_equal(back.R, panel.R)
        np.testing.assert_array_equal(back.F, panel.F)


class TestReturnPanel:
    def test_train_len_bounds(self):
        with pytest.raises(ParameterError):
            ReturnPanel(("d1", "d2"), ("x",), ("m",), np.zeros((2, 1)),
                        np.zeros((2, 1)), train_len=2)

    def test_nan_rejected(self):
        R = np.array([[0.1], [np.nan]])
        with pytest.raises(IntegrityError):
            ReturnPanel(("d1", "d2"), ("x",), ("m",), R, np.zeros((2, 1)), train_len=1)


class TestGenerateSynthetic:
    def test_zero_loadings_covariance_matches_idio(self):
        # Monte-Carlo oracle: with B = 0 and alpha = 0 the sample covariance of
        # R converges to diag(idio_var); assert within 3 standard errors.
        N, T = 4, 5000
        idio = np.array([0.5, 1.0, 2.0, 0.25])
        spec = SyntheticSpec(N=N, K=2, T=T, loadings=np.zeros((N, 2)),
                             factor_cov=np.eye(2), idio_var=idio, seed=11, train_len=100)
        panel, _ = generate_synthetic(spec)
        S = np.cov(panel.R.T, ddof=1)
        for i in range(N):
            for j in range(N):
                target = idio[i] if i == j else 0.0
                se = np.sqrt((idio[i] * idio[j] + target ** 2) / T)
                assert abs(S[i, j] - target) < 3 * se

    def test_degenerate_limit_assets_equal_factor(self):
        spec = SyntheticSpec(N=3, K=1, T=50, loadings=np.ones((3, 1)),
                             factor_cov=np.eye(1), idio_var=np.full(3, 1e-30),
                             seed=5, train_len=10)
        panel, _ = generate_synthetic(spec)
        for j in range(3):
            np.testing.assert_allclose(panel.R[:, j], panel.F[:, 0], atol=1e-12)

    def test_determinism(self):
        spec = SyntheticSpec(N=3, K=2, T=40, loadings=np.ones((3, 2)),
                             factor_cov=np.eye(2), idio_var=np.ones(3), seed=9, train_len=5)
        p1, _ = generate_synthetic(spec)
        p2, _ = generate_synthetic(spec)
        np.testing.assert_array_equal(p1.R, p2.R)
        np.testing.assert_array_equal(p1.F, p2.F)

    def test_non_pd_factor_cov_rejected(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(N=2, K=2, T=10, loadings=np.ones((2, 2)),
                          factor_cov=np.array([[1.0, 2.0], [2.0, 1.0]]),
                          idio_var=np.ones(2), seed=0)

    def test_residual_covariance_matches_truth(self):
        # r_t - alpha_t - B_t f_t must have covariance diag(idio_var)
        N, K, T = 3, 2, 4000
        rng = np.random.default_rng(2)
        B = rng.normal(size=(N, K))
        idio = np.array([0.3, 0.7, 1.1])
        spec = SyntheticSpec(N=N, K=K, T=T, loadings=B, factor_cov=np.eye(K),
                             idio_var=idio, seed=21, train_len=100)
        panel, truth = generate_synthetic(spec)
        resid = panel.R - truth.intercepts - np.einsum("tnk,tk->tn", truth.loadings, panel.F)
        S = np.cov(resid.T, ddof=1)
        for i in range(N):
            for j in range(N):
                target = idio[i] if i == j else 0.0
                se = np.sqrt((idio[i] * idio[j] + target ** 2) / T)
                assert abs(S[i, j] - target) < 3 * se

    def test_truth_sidecar_round_trip(self, tmp_path):
        spec = SyntheticSpec(N=2, K=1, T=15, loadings=np.ones((2, 1)),
                             factor_cov=np.eye(1), idio_var=np.ones(2), seed=1, train_len=5)
        _, truth = generate_synthetic(spec)
        save_truth(truth, tmp_path / "truth.npz")
        back = load_truth(tmp_path / "truth.npz")
        np.testing.assert_array_equal(back.loadings, truth.loadings)
        np.testing.assert_array_equal(back.factors, truth.factors)
