import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from hawkes_mle import cli, experiments
from hawkes_mle.cli import main
from hawkes_mle.io import (
    EVENT_HEADER,
    TRACE_HEADER,
    ConfigError,
    DataError,
    domain_from_config,
    experiment_from_config,
    hyperparams_from_config,
    ingest_lobster,
    load_config,
    read_events,
    read_params,
    read_trace,
    spec_from_config,
    write_events,
)
from hawkes_mle.optim import HyperParams
from hawkes_mle.simulate import EventSequence


def base_config(K=1, mu=0.5, alpha=0.0, beta=1.0, C=0.0, horizon=100.0, **opt):
    # lbar1 covers the worst-case curvature n / mu_lb^2 for the stream sizes
    # these tests produce (n <= ~120 events at mu_lb = 0.1).
    optimizer = {"algorithm": "palm", "lbar1": 12000.0, "lbar2": 1.0, "max_iters": 500}
    optimizer.update(opt)
    return {
        "model": {"K": K, "M": 1, "kernels": [{"family": "exponential"}]},
        "domain": {
            "mu_lb": [0.1] * K,
            "mu_ub": [5.0] * K,
            "alpha_lb": [[[0.0] * K] * K],
            "alpha_ub": [[[alpha] * K] * K],
            "beta_lb": [0.5],
            "beta_ub": [2.0],
        },
        "init": {
            "mu": [mu] * K,
            "alpha": [[[alpha] * K] * K],
            "beta": [beta],
        },
        "regularization": {"C": C},
        "optimizer": optimizer,
        "horizon": horizon,
    }


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


class TestSimulateCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", base_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(
                ["simulate", "--config", cfg, "--seed", "5", "--out", str(out)]
            )
            assert code == 0
        assert out1.read_text() == out2.read_text()
        assert "empirical rate" in capsys.readouterr().out

    def test_zero_horizon_header_only(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config())
        out = tmp_path / "empty.csv"
        code = main(
            ["simulate", "--config", cfg, "--horizon", "0", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == "time,type\n"

    def test_nonstationary_exit_2(self, tmp_path, capsys):
        doc = base_config(alpha=1.2, beta=1.0)  # branching ratio 1.2
        cfg = write_config(tmp_path / "cfg.json", doc)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "spectral radius" in capsys.readouterr().err

    def test_thinning_method(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config())
        out = tmp_path / "t.csv"
        code = main(
            ["simulate", "--config", cfg, "--seed", "3", "--out", str(out),
             "--method", "thinning"]
        )
        assert code == 0
        ev = read_events(str(out))
        assert np.all(np.diff(ev.times) >= 0)

    def test_unknown_config_key_exit_1(self, tmp_path):
        doc = base_config()
        doc["extra"] = 1
        cfg = write_config(tmp_path / "cfg.json", doc)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("method", ["cluster", "thinning"])
    def test_event_cap_exit_1(self, tmp_path, capsys, method):
        cfg = write_config(tmp_path / "cfg.json", base_config(alpha=0.3))
        out = tmp_path / "e.csv"
        code = main(["simulate", "--config", cfg, "--out", str(out),
                     "--max-events", "5", "--method", method])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: simulation exceeded max_events=5 (generated ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["1e20", "1e200", "1e300"])
    def test_cluster_mean_past_numpy_poisson_exit_1(self, tmp_path, capsys, horizon):
        """An immigrant mean mu * T that numpy's ``poisson`` cannot draw (past
        about 2**63) is refused before any draw, as the thinning sampler stops
        at the cap."""
        cfg = write_config(tmp_path / "cfg.json", base_config())
        out = tmp_path / "e.csv"
        code = main(["simulate", "--config", cfg, "--out", str(out), "--horizon", horizon])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: simulation exceeded max_events=10000000 (generated 0)\n")
        assert not out.exists()

    def test_cluster_immigrants_past_cap_are_counted_unallocated(self, tmp_path, capsys):
        """5e17 immigrants: the count is drawn and reported, their times are not."""
        cfg = write_config(tmp_path / "cfg.json", base_config())
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "e.csv"),
                     "--horizon", "1e18"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: simulation exceeded max_events=10000000 (generated ")
        assert int(err.split("generated ")[1].rstrip(")\n")) > 4e17


class TestFitCommand:
    def test_poisson_fit_recovers_rate(self, tmp_path):
        cfg_doc = base_config(mu=0.5, alpha=0.0, C=0.0, horizon=200.0)
        cfg = write_config(tmp_path / "cfg.json", cfg_doc)
        events = tmp_path / "events.csv"
        code = main(
            ["simulate", "--config", cfg, "--seed", "11", "--out", str(events)]
        )
        assert code == 0
        out = tmp_path / "params.json"
        trace = tmp_path / "trace.csv"
        code = main(
            ["fit", "--events", str(events), "--config", cfg,
             "--out", str(out), "--trace", str(trace)]
        )
        assert code == 0
        ev = read_events(str(events))
        spec, fitted, objective, meta = read_params(str(out))
        assert fitted.mu[0] == pytest.approx(len(ev) / 200.0, rel=1e-5)
        assert meta["algorithm"] == "palm"
        rows = read_trace(str(trace))
        assert len(rows) == 500
        assert rows[0]["step_kind"] == "PALM"

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config(horizon=50.0))
        events = tmp_path / "events.csv"
        main(["simulate", "--config", cfg, "--seed", "2", "--out", str(events)])
        outs = []
        for name in ("p1.json", "p2.json"):
            out = tmp_path / name
            code = main(
                ["fit", "--events", str(events), "--config", cfg, "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_algo_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config(horizon=50.0))
        events = tmp_path / "events.csv"
        main(["simulate", "--config", cfg, "--seed", "2", "--out", str(events)])
        out = tmp_path / "p.json"
        code = main(
            ["fit", "--events", str(events), "--config", cfg,
             "--algo", "ipalm", "--iters", "20", "--out", str(out)]
        )
        assert code == 0
        _, _, _, meta = read_params(str(out))
        assert meta["algorithm"] == "ipalm"
        assert meta["iterations"] == 20

    def test_malformed_event_row_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", base_config())
        bad = tmp_path / "bad.csv"
        bad.write_text("time,type\n1.0,0\nnot-a-number,0\n")
        code = main(
            ["fit", "--events", str(bad), "--config", cfg,
             "--out", str(tmp_path / "p.json")]
        )
        assert code == 3
        assert "row 3" in capsys.readouterr().err

    def test_infeasible_init_exit_2(self, tmp_path):
        doc = base_config()
        doc["init"]["mu"] = [100.0]  # above mu_ub
        cfg = write_config(tmp_path / "cfg.json", doc)
        events = tmp_path / "events.csv"
        ok_cfg = write_config(tmp_path / "ok.json", base_config())
        main(["simulate", "--config", ok_cfg, "--seed", "1", "--out", str(events)])
        code = main(
            ["fit", "--events", str(events), "--config", cfg,
             "--out", str(tmp_path / "p.json")]
        )
        assert code == 2

    def test_noncompliant_hp_rejected_without_flag(self, tmp_path):
        doc = base_config(tau1=1.0)  # far above the 2/lbar1 rule
        cfg = write_config(tmp_path / "cfg.json", doc)
        events = tmp_path / "events.csv"
        ok_cfg = write_config(tmp_path / "ok.json", base_config())
        main(["simulate", "--config", ok_cfg, "--seed", "1", "--out", str(events)])
        code = main(
            ["fit", "--events", str(events), "--config", cfg,
             "--out", str(tmp_path / "p.json")]
        )
        assert code == 1
        with pytest.warns(UserWarning):
            code = main(
                ["fit", "--events", str(events), "--config", cfg,
                 "--out", str(tmp_path / "p.json"), "--allow-noncompliant-hp"]
            )
        assert code == 0

    @pytest.mark.parametrize("algo", ["palm", "ipalm", "aa-ipalm"])
    def test_noncompliant_hp_warns_once_per_fit(self, tmp_path, algo):
        doc = base_config(tau1=1.0, tau2=5.0, max_iters=5)  # both above the rule
        cfg = write_config(tmp_path / "cfg.json", doc)
        events = tmp_path / "events.csv"
        main(["simulate", "--config", cfg, "--seed", "1", "--out", str(events)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["fit", "--events", str(events), "--config", cfg, "--algo", algo,
                 "--out", str(tmp_path / "p.json"), "--allow-noncompliant-hp"]
            )
        assert code == 0
        messages = sorted(str(w.message)[:4] for w in caught)
        assert messages == ["tau1", "tau2"]


    # The paper's step-size and delta rules depend on the momenta, and PALM runs at
    # gamma = 0: with gamma = 0.5 and lbar = 100, iPALM's tau rule gives 0.00666667 and
    # its delta rule 55.5556, PALM's 0.02 and 0.
    MOMENTA = {"gamma1": 0.5, "gamma2": 0.5, "lbar1": 100.0, "lbar2": 100.0, "max_iters": 20}

    def fit_with_momenta(self, tmp_path, algo, **opt):
        cfg = write_config(tmp_path / "cfg.json", base_config(**self.MOMENTA, **opt))
        events = tmp_path / "events.csv"
        main(["simulate", "--config", cfg, "--seed", "1", "--out", str(events)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", "--events", str(events), "--config", cfg, "--algo", algo,
                         "--out", str(tmp_path / "p.json")])
        return code, [str(w.message) for w in caught]

    @pytest.mark.parametrize("opt", [{"tau1": 0.015}, {"delta": 1.0}, {"delta": 0.0}])
    def test_palm_judged_with_its_own_momenta(self, tmp_path, capsys, opt):
        capsys.readouterr()
        assert self.fit_with_momenta(tmp_path, "palm", **opt) == (0, [])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("algo", ["ipalm", "aa-ipalm"])
    def test_ipalm_keeps_its_rule_value(self, tmp_path, capsys, algo):
        capsys.readouterr()
        assert self.fit_with_momenta(tmp_path, algo, tau1=0.015) == (1, [])
        assert capsys.readouterr().err == (
            "config error: optimizer: non-compliant hyperparameters: tau1=0.015 exceeds "
            "the step-size rule value 0.00666667 for the supplied lbar\n")
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("flag, target, errno_line", [
        ("--out", "dir", "[Errno 21] Is a directory"),
        ("--trace", "dir", "[Errno 21] Is a directory"),
        ("--out", "missing/file", "[Errno 2] No such file or directory"),
        ("--trace", "missing/file", "[Errno 2] No such file or directory"),
        ("--trace", "events.csv/file", "[Errno 20] Not a directory"),
        ("--out", None, "[Errno 2] No such file or directory"),  # --out ""
    ])
    def test_output_path_refused_before_reading_events(
        self, tmp_path, capsys, monkeypatch, flag, target, errno_line
    ):
        def no_reading(*args, **kwargs):
            raise AssertionError("read the events before checking the output paths")

        monkeypatch.setattr(cli, "read_events", no_reading)
        (tmp_path / "dir").mkdir()
        (tmp_path / "events.csv").write_text("time,type\n")
        cfg = write_config(tmp_path / "cfg.json", base_config())
        paths = {"--out": str(tmp_path / "p.json"), "--trace": str(tmp_path / "t.csv"),
                 flag: str(tmp_path / target) if target else ""}
        argv = ["fit", "--events", str(tmp_path / "events.csv"), "--config", cfg]
        code = main(argv + [arg for item in paths.items() for arg in item])
        assert code == 1
        assert capsys.readouterr().err == f"error: {errno_line}: {paths[flag]!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "dir", "events.csv"]


class TestCheckStationarity:
    def test_stationary_roundtrip(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", base_config(alpha=0.4, beta=1.0, horizon=50.0)
        )
        events = tmp_path / "e.csv"
        main(["simulate", "--config", cfg, "--seed", "4", "--out", str(events)])
        out = tmp_path / "p.json"
        main(["fit", "--events", str(events), "--config", cfg, "--out", str(out)])
        code = main(["check-stationarity", "--params", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "spectral radius" in text and "stationary mean intensity" in text

    def test_boundary_radius_nonzero_exit(self, tmp_path, capsys):
        doc = {
            "mu": [1.0],
            "alpha": [[[0.5]]],
            "beta": [0.5],  # branching ratio exactly 1
            "kernels": [{"family": "exponential"}],
            "objective": None,
            "meta": {},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code = main(["check-stationarity", "--params", str(path)])
        assert code == 2
        assert "spectral radius: 1" in capsys.readouterr().out

    def test_radius_and_mean(self, tmp_path, capsys):
        doc = {
            "mu": [1.0],
            "alpha": [[[0.4]]],
            "beta": [0.5],  # ratio 0.8, mean 1/0.2 = 5
            "kernels": [{"family": "exponential"}],
            "objective": None,
            "meta": {},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code = main(["check-stationarity", "--params", str(path)])
        assert code == 0
        text = capsys.readouterr().out
        assert "0.8" in text and "5" in text

    @pytest.mark.parametrize("bad", ["Infinity", "NaN"])
    def test_nonfinite_alpha_exit_2(self, tmp_path, capsys, bad):
        path = tmp_path / "p.json"
        path.write_text(
            '{"mu": [1.0], "alpha": [[[%s]]], "beta": [0.5], '
            '"kernels": [{"family": "exponential"}], "objective": null, "meta": {}}' % bad
        )
        assert main(["check-stationarity", "--params", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("beta, kernel", [
        (300.0, {"family": "powerlaw", "c": 0.05}),
        (1e-310, {"family": "exponential"}),
    ], ids=["pwl", "exp"])
    def test_infinite_kernel_mass_exit_2(self, tmp_path, capsys, beta, kernel):
        """A kernel mass that overflows to inf is non-stationary, also where
        a zero weight multiplies it."""
        doc = {
            "mu": [1.0, 1.0],
            "alpha": [[[0.1, 0.0], [0.0, 0.1]]],
            "beta": [beta],
            "kernels": [kernel],
            "objective": None,
            "meta": {},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["check-stationarity", "--params", str(path)]) == 2
        out = capsys.readouterr()
        assert "spectral radius: inf" in out.out and "non-stationary" in out.out
        assert out.err == ""

    def test_powerlaw_bad_beta_exit_2(self, tmp_path):
        doc = {
            "mu": [1.0],
            "alpha": [[[0.1]]],
            "beta": [0.9],
            "kernels": [{"family": "powerlaw", "c": 0.05}],
            "objective": None,
            "meta": {},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["check-stationarity", "--params", str(path)]) == 2


class TestIngestLobster:
    def make_fixture(self, tmp_path):
        # time, code, order id, size, price, direction
        rows = [
            "34200.1,1,10,100,5000,1",    # L bid -> 0
            "34200.2,1,11,100,5001,-1",   # L ask -> 1
            "34200.3,4,10,50,5000,1",     # M bid -> 2
            "34200.4,5,11,50,5001,-1",    # M ask -> 3
            "34200.5,2,10,50,5000,1",     # C bid -> 4
            "34200.6,3,11,50,5001,-1",    # C ask -> 5
            "34200.7,7,12,1,5002,1",      # unmapped code
            "34200.8,1,13,10,5003,-1",    # L ask -> 1
            "34200.9,4,14,10,5004,-1",    # M ask -> 3
            "34201.0,2,15,10,5005,-1",    # C ask -> 5
        ]
        msg = tmp_path / "msg.csv"
        msg.write_text("\n".join(rows) + "\n")
        mapping = tmp_path / "map.json"
        mapping.write_text(
            json.dumps({"1": "L", "2": "C", "3": "C", "4": "M", "5": "M"})
        )
        return msg, mapping

    def test_mapping_and_rebase(self, tmp_path, capsys):
        msg, mapping = self.make_fixture(tmp_path)
        out = tmp_path / "events.csv"
        code = main(
            ["ingest-lobster", "--messages", str(msg), "--types", str(mapping),
             "--out", str(out)]
        )
        assert code == 0
        ev = read_events(str(out))
        assert len(ev) == 9  # one unmapped row dropped
        assert ev.times[0] == 0.0
        assert np.all(np.diff(ev.times) >= 0)
        assert set(ev.types.tolist()) == {0, 1, 2, 3, 4, 5}
        assert "dropped 1 unmapped" in capsys.readouterr().out

    def test_empty_file(self, tmp_path):
        msg = tmp_path / "empty.csv"
        msg.write_text("")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"1": "L"}))
        out = tmp_path / "events.csv"
        code = main(
            ["ingest-lobster", "--messages", str(msg), "--types", str(mapping),
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == "time,type\n"

    def test_bad_rows_over_threshold_exit_3(self, tmp_path):
        msg = tmp_path / "msg.csv"
        msg.write_text("garbage\n1.0,1,1,1,1,1\n")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"1": "L"}))
        code = main(
            ["ingest-lobster", "--messages", str(msg), "--types", str(mapping),
             "--out", str(tmp_path / "e.csv")]
        )
        assert code == 3

    @pytest.mark.parametrize("direction", ["0", "2", "-2"])
    def test_direction_other_than_plus_minus_one_is_bad(self, tmp_path, capsys, direction):
        msg = tmp_path / "msg.csv"
        msg.write_text(f"1.0,1,1,1,1,1\n2.0,1,1,1,1,{direction}\n")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"1": "L"}))
        out = tmp_path / "e.csv"
        summary = ingest_lobster(str(msg), str(mapping), str(out), max_bad_fraction=0.5)
        assert (summary["rows_bad"], summary["rows_written"]) == (1, 1)
        code = main(["ingest-lobster", "--messages", str(msg), "--types", str(mapping),
                     "--out", str(tmp_path / "strict.csv")])
        assert code == 3
        assert "1/2 rows unparseable" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["2.0,inf,1,1,1,1", "2.0,1e400,1,1,1,1",
                                     "2.0,1,1,1,1,-inf", "2.0,1,1,1,1,1e400",
                                     "2.0,1.9,1,1,1,1", "2.0,1,1,1,1,-1.7"])
    def test_infinite_code_or_direction_is_bad(self, tmp_path, capsys, row):
        """A code or direction that is not an integral number, infinite or
        fractional, makes the row unparseable rather than truncated."""
        msg = tmp_path / "msg.csv"
        msg.write_text(f"1.0,1,1,1,1,1\n{row}\n")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"1": "L"}))
        summary = ingest_lobster(str(msg), str(mapping), str(tmp_path / "e.csv"),
                                 max_bad_fraction=0.5)
        assert (summary["rows_bad"], summary["rows_written"]) == (1, 1)
        code = main(["ingest-lobster", "--messages", str(msg), "--types", str(mapping),
                     "--out", str(tmp_path / "strict.csv")])
        assert code == 3
        assert "1/2 rows unparseable" in capsys.readouterr().err

    def test_integral_spellings_are_read(self, tmp_path):
        msg = tmp_path / "msg.csv"
        msg.write_text("1.0,1.0,1,1,1,1e0\n2.0,1e0,1,1,1,-1.0\n3.0,2.00,1,1,1,-1e0\n")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"1": "L", "2": "C"}))
        out = tmp_path / "e.csv"
        summary = ingest_lobster(str(msg), str(mapping), str(out), max_bad_fraction=0.0)
        assert (summary["rows_bad"], summary["rows_written"]) == (0, 3)
        assert read_events(str(out)).types.tolist() == [0, 1, 5]

    def test_time_span_past_largest_double_exit_3(self, tmp_path, capsys):
        """Rebased to start at zero, times -1e308 and 1e308 give an infinite
        horizon, which the event stream refuses as a data error."""
        msg = tmp_path / "msg.csv"
        msg.write_text("-1e308,1,1,1,1,1\n1e308,1,1,1,1,1\n")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"1": "L"}))
        out = tmp_path / "e.csv"
        code = main(["ingest-lobster", "--messages", str(msg), "--types", str(mapping),
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "data error: horizon: expected a finite number >= 0, got inf\n"
        assert not out.exists()

    def test_bad_mapping_letter(self, tmp_path):
        msg = tmp_path / "msg.csv"
        msg.write_text("1.0,1,1,1,1,1\n")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"1": "X"}))
        code = main(
            ["ingest-lobster", "--messages", str(msg), "--types", str(mapping),
             "--out", str(tmp_path / "e.csv")]
        )
        assert code == 3


class TestIngestMemetracker:
    def test_url_groups(self, tmp_path):
        posts = tmp_path / "posts.csv"
        posts.write_text(
            "time,url\n100.0,a.example\n101.5,b.example\n102.0,c.example\n"
        )
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"a.example": 0, "b.example": 1}))
        out = tmp_path / "events.csv"
        code = main(
            ["ingest-memetracker", "--posts", str(posts), "--groups", str(groups),
             "--out", str(out)]
        )
        assert code == 0
        ev = read_events(str(out))
        assert len(ev) == 2
        assert ev.times[0] == 0.0 and ev.times[1] == 1.5

    def ingest(self, tmp_path, posts_text):
        posts = tmp_path / "posts.csv"
        posts.write_text(posts_text)
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"a.example": 0}))
        out = tmp_path / "events.csv"
        code = main(["ingest-memetracker", "--posts", str(posts), "--groups", str(groups),
                     "--out", str(out)])
        return code, out

    def test_blank_rows_skipped(self, tmp_path):
        code, out = self.ingest(tmp_path, "time,url\n\n1.0,a.example\n  \n2.0,a.example\n")
        assert code == 0
        assert read_events(str(out)).times.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("posts_text, message", [
        ("t,u\n1.0,a.example\n", "expected header 'time,url'"),
        ("time,url\n1.0,a.example\n2.0\n", "row 3: expected 2 fields"),
    ], ids=["wrong-header", "one-field-row"])
    def test_malformed_log_exit_3(self, tmp_path, capsys, posts_text, message):
        code, out = self.ingest(tmp_path, posts_text)
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [-1, 1.5, "x", True, None, [0], 2**63, 2**70])
    def test_bad_group_index_exit_3(self, tmp_path, capsys, bad):
        # The map is checked up front, so a url with no posts fails too.
        posts = tmp_path / "posts.csv"
        posts.write_text("time,url\n1.0,a.example\n")
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"a.example": 0, "unposted.example": bad}))
        out = tmp_path / "events.csv"
        code = main(
            ["ingest-memetracker", "--posts", str(posts), "--groups", str(groups),
             "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "unposted.example" in err
        assert not out.exists()


LOBSTER_MESSAGES = (
    "34200.5,1,1,1,1,-1\n\n34200.25,4,2,1,1,1\n34200.5,1,3,1,1,1\n   \n"
    "34200.25,2,4,1,1,-1\n34200.5,4,5,1,1,-1\n34199.75,1,6,1,1,1\n34200.5,1,7,1,1,1\n"
    "34200.25,9,8,1,1,1\n"
)
POSTING_LOG = (
    "time,url\n7.5,b.example/x,y\n\n2.5,a.example\n7.5,a.example\n \t\n0.0,b.example/x,y\n"
    "-0.0,a.example\n2.5,c.example\n7.5,b.example/x,y\n0.0,a.example\n"
)


@pytest.mark.parametrize("command, data_flag, map_flag, data, mapping, written", [
    ("ingest-lobster", "--messages", "--types", LOBSTER_MESSAGES,
     {"1": "L", "2": "C", "4": "M"},
     "time,type\n0.0,0\n0.5,2\n0.5,5\n0.75,0\n0.75,0\n0.75,1\n0.75,3\n"),
    ("ingest-memetracker", "--posts", "--groups", POSTING_LOG,
     {"a.example": 1, "b.example/x,y": 0},
     "time,type\n0.0,0\n-0.0,1\n0.0,1\n2.5,1\n7.5,0\n7.5,0\n7.5,1\n"),
], ids=["lobster", "memetracker"])
def test_ingested_bytes_are_pinned(tmp_path, command, data_flag, map_flag, data, mapping,
                                   written):
    """Tied times, blank lines, out-of-order rows, an unmapped row and (for
    the posting log) a url with a comma and both signs of zero: the event
    file keeps the bytes recorded from the ingesters' tuple sort, rows
    ordered by (time, type) and rebased by the first."""
    data_path, map_path = tmp_path / "data.csv", tmp_path / "map.json"
    data_path.write_text(data)
    map_path.write_text(json.dumps(mapping))
    out = tmp_path / "events.csv"
    code = main([command, data_flag, str(data_path), map_flag, str(map_path), "--out", str(out)])
    assert code == 0
    assert out.read_text() == written


class TestParamsJsonRoundTrip:
    def test_powerlaw_cutoff_preserved(self, tmp_path):
        from hawkes_mle import ModelSpec, ParamVector, PowerLawCutoff
        from hawkes_mle.io import write_params

        spec = ModelSpec(K=1, M=1, kernels=[PowerLawCutoff(0.07)])
        pv = ParamVector(
            mu=np.array([0.123456789012345]),
            alpha=np.array([[[0.02]]]),
            beta=np.array([1.7]),
        )
        path = tmp_path / "p.json"
        write_params(str(path), spec, pv, objective=-1.5, meta={"note": "x", "n": np.int64(3)})
        spec2, pv2, objective, meta = read_params(str(path))
        assert spec2.kernels[0].c == 0.07
        assert np.array_equal(pv2.mu, pv.mu)
        assert objective == -1.5 and meta == {"note": "x", "n": 3}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"mu": [1.0], "bogus": 1}))
        with pytest.raises(ConfigError):
            read_params(str(path))

    def test_unserializable_meta_leaves_no_file(self, tmp_path):
        from hawkes_mle import ModelSpec, ParamVector, PowerLawCutoff
        from hawkes_mle.io import write_params

        spec = ModelSpec(K=1, M=1, kernels=[PowerLawCutoff(0.07)])
        pv = ParamVector(mu=[0.1], alpha=[[[0.02]]], beta=[1.7])
        path = tmp_path / "p.json"
        with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
            write_params(str(path), spec, pv, meta={"note": object()})
        assert not path.exists()


class TestFitDataErrors:
    def test_aa_ipalm_at_huge_horizon_is_silent(self, tmp_path, capsys):
        """T = 1e300 makes the gradient's entries about 1e300, whose squares
        overflow; the safeguard's c1 comparison is taken without them."""
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0.0, 100.0, 50))
        events = tmp_path / "e.csv"
        events.write_text("time,type\n" + "".join(
            f"{t!r},{k}\n" for t, k in zip(times.tolist(), rng.integers(0, 2, 50).tolist())))
        cfg = write_config(tmp_path / "cfg.json",
                           base_config(K=2, alpha=0.2, horizon=1e300, algorithm="aa-ipalm",
                                       max_iters=30))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["fit", "--events", str(events), "--config", cfg,
                         "--out", str(tmp_path / "p.json")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_event_type_beyond_model_k_exit_3(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config())  # K = 1
        bad = tmp_path / "bad.csv"
        bad.write_text("time,type\n1.0,0\n2.0,1\n")  # type 1 out of range
        code = main(
            ["fit", "--events", str(bad), "--config", cfg,
             "--out", str(tmp_path / "p.json")]
        )
        assert code == 3

    @pytest.mark.parametrize("row", ["-1.0,0", "1.0,-1"])
    def test_negative_time_or_type_exit_3(self, tmp_path, capsys, row):
        cfg = write_config(tmp_path / "cfg.json", base_config())
        bad = tmp_path / "bad.csv"
        bad.write_text(f"time,type\n{row}\n2.0,0\n")
        code = main(
            ["fit", "--events", str(bad), "--config", cfg,
             "--out", str(tmp_path / "p.json")]
        )
        assert code == 3
        rule = "time must be >= 0" if row[0] == "-" else "type must be an integer in [0, 2**63)"
        assert f"row 2: {rule}" in capsys.readouterr().err

    def test_event_beyond_horizon_exit_3(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config(horizon=10.0))
        bad = tmp_path / "bad.csv"
        bad.write_text("time,type\n1.0,0\n11.0,0\n")
        code = main(
            ["fit", "--events", str(bad), "--config", cfg,
             "--out", str(tmp_path / "p.json")]
        )
        assert code == 3

    @pytest.mark.parametrize("rows, row, rule", [
        ("0.5,9223372036854775808", 2, "type must be an integer in [0, 2**63)"),
        ("1.0,0\n2.0,18446744073709551616", 3, "type must be an integer in [0, 2**63)"),
        ("1.0,0\n2.0,-1", 3, "type must be an integer in [0, 2**63)"),
        ("1.0,0\n-1.0,0", 3, "time must be >= 0"),
        ("2.0,0\n1.0,1", 3, "time must be >= the previous event's"),
        ("2.0,0\n\n1.0,1", 4, "time must be >= the previous event's"),
        ("1.0,0\n11.0,0", 3, "time must be <= the horizon"),
    ], ids=["type-2**63", "type-2**64", "type-negative", "time-negative", "unsorted",
            "unsorted-after-blank", "past-horizon"])
    def test_bad_row_exit_3_naming_row_and_rule(self, tmp_path, capsys, rows, row, rule):
        """Each stream rule is reported at its row, as ``EventSequence`` words it."""
        cfg = write_config(tmp_path / "cfg.json", base_config(K=2, horizon=10.0))
        bad = tmp_path / "bad.csv"
        bad.write_text(f"time,type\n{rows}\n5.0,0\n")
        code = main(["fit", "--events", str(bad), "--config", cfg,
                     "--out", str(tmp_path / "p.json")])
        assert code == 3
        assert capsys.readouterr().err == f"data error: {bad}: row {row}: {rule}\n"

    def test_pair_budget_exit_3_naming_the_sizes(self, tmp_path, capsys, monkeypatch):
        from hawkes_mle import likelihood

        doc = base_config(beta=1.5)
        doc["model"]["kernels"] = [{"family": "powerlaw", "c": 0.05}]
        doc["domain"].update(beta_lb=[1.2], beta_ub=[3.0])
        cfg = write_config(tmp_path / "cfg.json", doc)
        stream = tmp_path / "e.csv"
        stream.write_text("time,type\n" + "".join(f"{t}.5,0\n" for t in range(50)))
        monkeypatch.setattr(likelihood, "_PAIR_BUDGET", 1000)
        code = main(
            ["fit", "--events", str(stream), "--config", cfg,
             "--out", str(tmp_path / "p.json")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "50 events" in err and "1225 power-law kernel pairs" in err
        assert "9800 bytes" in err
        assert not (tmp_path / "p.json").exists()


class TestNonFiniteOrNegativeInputs:
    def fit(self, tmp_path, events_text, **config):
        cfg = write_config(tmp_path / "cfg.json", base_config(**config))
        events = tmp_path / "e.csv"
        events.write_text(events_text)
        return main(
            ["fit", "--events", str(events), "--config", cfg,
             "--out", str(tmp_path / "p.json")]
        )

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_fit_nonfinite_event_time_exit_3(self, tmp_path, capsys, bad):
        code = self.fit(tmp_path, f"time,type\n1.0,0\n{bad},0\n")
        assert code == 3
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", [float("inf"), float("nan")])
    def test_fit_nonfinite_config_horizon_exit_1(self, tmp_path, capsys, horizon):
        code = self.fit(tmp_path, "time,type\n1.0,0\n", horizon=horizon)
        assert code == 1
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["mu_lb", "mu_ub", "alpha_lb", "alpha_ub", "beta_lb", "beta_ub"]
    )
    def test_fit_nan_domain_bound_exit_1(self, tmp_path, capsys, name):
        # Every box comparison with NaN is False, so only a check by name
        # keeps the error from being blamed on the init (exit 2).
        doc = base_config()
        bound = doc["domain"][name]
        while isinstance(bound[0], list):
            bound = bound[0]
        bound[0] = math.nan
        cfg = write_config(tmp_path / "cfg.json", doc)
        events = tmp_path / "e.csv"
        events.write_text("time,type\n1.0,0\n")
        out = tmp_path / "p.json"
        assert main(["fit", "--events", str(events), "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: domain: {name} must not contain NaN")
        assert not out.exists()

    @pytest.mark.parametrize("events_text", ["time,type\n", "time,type\n1.0,0\n"])
    def test_fit_negative_config_horizon_exit_1(self, tmp_path, capsys, events_text):
        # Checked before the events are read, so a non-empty file is not a
        # data error either.
        assert self.fit(tmp_path, events_text, horizon=-1.0) == 1
        assert "horizon" in capsys.readouterr().err

    def test_fit_zero_horizon_stays_data_error(self, tmp_path):
        assert self.fit(tmp_path, "time,type\n", horizon=0.0) == 3

    @pytest.mark.parametrize("horizon", ["-1", "nan", "inf"])
    def test_simulate_bad_horizon_flag_exit_1(self, tmp_path, capsys, horizon):
        cfg = write_config(tmp_path / "cfg.json", base_config())
        out = tmp_path / "e.csv"
        code = main(
            ["simulate", "--config", cfg, "--horizon", horizon, "--out", str(out)]
        )
        assert code == 1
        assert "horizon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--max-events", "0"), ("--max-events", "-3"), ("--seed", "-1")]
    )
    def test_simulate_bad_count_flag_exit_1(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path / "cfg.json", base_config())
        out = tmp_path / "e.csv"
        code = main(["simulate", "--config", cfg, flag, value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err
        assert not out.exists()

    def test_simulate_out_in_missing_directory_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", base_config())
        out = tmp_path / "missing" / "e.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.parent.exists()

    def test_simulate_negative_config_horizon_exit_1(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config(horizon=-5.0))
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "e.csv")])
        assert code == 1

    def test_check_stationarity_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text('{"mu": [1.0],')
        assert main(["check-stationarity", "--params", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_check_stationarity_params_not_an_object_exit_1(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([{"mu": 1}]))
        assert main(["check-stationarity", "--params", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "top level must be an object" in err

    def test_check_stationarity_kernel_count_mismatch_exit_1(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"mu": [1.0], "alpha": [[[0.1]]], "beta": [1.0]}))
        assert main(["check-stationarity", "--params", str(path)]) == 1

    def test_ingest_nonfinite_times(self, tmp_path):
        msg = tmp_path / "msg.csv"
        msg.write_text("".join(f"{t},1,1,1,1,1\n" for t in range(200)) + "nan,1,1,1,1,1\n")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"1": "L"}))
        out = tmp_path / "e.csv"
        code = main(["ingest-lobster", "--messages", str(msg), "--types", str(mapping),
                     "--out", str(out)])
        assert code == 0  # the nan row is one bad row among 201
        assert len(read_events(str(out))) == 200
        posts = tmp_path / "posts.csv"
        posts.write_text("time,url\n1.0,a\ninf,a\n")
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"a": 0}))
        code = main(["ingest-memetracker", "--posts", str(posts), "--groups", str(groups),
                     "--out", str(out)])
        assert code == 3


class TestEventFileRoundTrip:
    def test_write_read_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 99.7, 50))
        types = rng.integers(0, 3, 50)
        ev = EventSequence(times, types, 100.0)
        path = tmp_path / "e.csv"
        write_events(str(path), ev)
        back = read_events(str(path), horizon=100.0)
        assert np.array_equal(back.times, ev.times)
        assert np.array_equal(back.types, ev.types)

    @staticmethod
    def write_per_row(path, events):
        """The event file as one write per row of numpy scalars."""
        with open(path, "w") as f:
            f.write(EVENT_HEADER + "\n")
            for t, k in zip(events.times, events.types):
                f.write(f"{float(t)!r},{int(k)}\n")

    @pytest.mark.parametrize("times, types", [
        ([5e-324, 1e-300, 0.1 + 0.2, 2.0**53 + 1, 1e16], [0, 3, 1, 12, 0]),
        ([], []),
    ])
    def test_bytes_match_per_row_writer(self, tmp_path, times, types):
        ev = EventSequence(np.array(times, dtype=float), np.array(types, dtype=np.int64),
                           max(times, default=0.0))
        path, reference = tmp_path / "e.csv", tmp_path / "ref.csv"
        write_events(str(path), ev)
        self.write_per_row(str(reference), ev)
        assert path.read_bytes() == reference.read_bytes()
        back = read_events(str(path), horizon=ev.horizon)
        assert back.times.tobytes() == ev.times.tobytes()
        assert back.types.tobytes() == ev.types.tobytes()

    def test_unsorted_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("time,type\n2.0,0\n1.0,0\n")
        with pytest.raises(DataError):
            read_events(str(path))

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t,k\n1.0,0\n")
        with pytest.raises(DataError):
            read_events(str(path))


def no_simulation(*args, **kwargs):
    raise AssertionError("simulated before checking the config")


class TestBenchmarkCommands:
    def test_benchmark_builtin_recipe(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(
            json.dumps(
                {"recipe": "exp-k10", "K": 2, "horizon": 100.0,
                 "iters": 10, "seeds": [0], "recipe_seed": 1}
            )
        )
        outdir = tmp_path / "report"
        code = main(["benchmark", "--config", str(cfg), "--out", str(outdir)])
        assert code == 0
        assert (outdir / "regret_iter.csv").exists()
        assert (outdir / "regret_time.csv").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seeds"] == [0]
        assert manifest["hyperparams"]["tau1"] == 1e-7
        assert "median final objective" in capsys.readouterr().out

    def test_consistency_custom_recipe(self, tmp_path, capsys):
        cfg = tmp_path / "cons.json"
        cfg.write_text(
            json.dumps(
                {
                    "recipe": {
                        "kind": "custom", "K": 1, "family": "exponential",
                        "beta_true": 1.0, "alpha_low": 0.1, "alpha_high": 0.2,
                        "alpha_divisor": 1.0, "mu_low": 0.1, "mu_high": 0.2,
                        "mu_divisor": 1.0, "reg_c": 0.0,
                    },
                    "recipe_seed": 3,
                    "T_grid": [40.0, 80.0],
                    "seeds_per_T": 1,
                    "iters": 30,
                }
            )
        )
        outdir = tmp_path / "cons_report"
        code = main(["consistency", "--config", str(cfg), "--out", str(outdir)])
        assert code == 0
        lines = (outdir / "consistency.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "median relative error" in capsys.readouterr().out

    def test_unknown_algorithm_exit_1_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(experiments, "simulate_cluster", no_simulation)
        cfg = tmp_path / "bench.json"
        cfg.write_text(
            json.dumps(
                {"recipe": "exp-k10", "K": 2, "horizon": 50.0, "iters": 2,
                 "seeds": [0], "algorithms": ["palm", "bogus"]}
            )
        )
        outdir = tmp_path / "report"
        code = main(["benchmark", "--config", str(cfg), "--out", str(outdir)])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not outdir.exists()

    def test_bad_recipe_exit_1(self, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"recipe": "nope"}))
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 1


EXPERIMENT_CONFIGS = {
    "benchmark": {"recipe": "exp-k10", "K": 2, "horizon": 50.0, "iters": 2,
                  "seeds": [0]},
    "consistency": {"recipe": "exp-k10", "T_grid": [40.0], "seeds_per_T": 1,
                    "iters": 2},
}

# (command, key, malformed value): each exits 1 naming the key.
BAD_KEYS = [
    ("benchmark", "seeds", [-1]),
    ("benchmark", "recipe_seed", -1),
    ("consistency", "recipe_seed", -1),
    ("benchmark", "iters", "x"),
    ("benchmark", "iters", 2.5),
    ("benchmark", "K", "x"),
    ("benchmark", "seeds", "ab"),
    ("consistency", "seeds_per_T", "x"),
    ("benchmark", "K", 0),
    ("benchmark", "horizon", -5),
    ("consistency", "T_grid", [-5]),
    ("benchmark", "seeds", [0.5]),
    ("benchmark", "seeds", [True]),
    ("benchmark", "seeds", []),
    ("consistency", "seeds_per_T", 0),
    ("benchmark", "algorithms", []),
    ("benchmark", "seeds", [0, 0]),
    ("benchmark", "algorithms", ["palm", "ipalm", "palm"]),
]


@pytest.mark.parametrize("field", ["beta_true", "mu_high"])
def test_recipe_whose_box_overflows_exit_1_before_simulating(tmp_path, capsys, monkeypatch,
                                                             field):
    monkeypatch.setattr(experiments, "simulate_cluster", no_simulation)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": {"K": 2, field: 1e308}, "iters": 1, "seeds": [0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "report")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"config error: recipe: {field}: expected a value whose 100-fold box bound is finite, "
        "got 1e+308\n")
    assert not (tmp_path / "report").exists()


class TestExperimentConfigErrors:
    """Malformed benchmark/consistency keys exit 1 before any stream is simulated."""

    def run(self, tmp_path, monkeypatch, command, doc):
        monkeypatch.setattr(experiments, "simulate_cluster", no_simulation)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        outdir = tmp_path / "report"
        code = main([command, "--config", str(cfg), "--out", str(outdir)])
        assert not outdir.exists()
        return code

    @pytest.mark.parametrize(
        "command, key, value", BAD_KEYS,
        ids=[f"{c}-{k}={json.dumps(v)}" for c, k, v in BAD_KEYS],
    )
    def test_bad_key_exit_1(self, tmp_path, capsys, monkeypatch, command, key, value):
        doc = {**EXPERIMENT_CONFIGS[command], key: value}
        assert self.run(tmp_path, monkeypatch, command, doc) == 1
        err = capsys.readouterr().err
        assert f"config error: {key}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, key", [
        ("benchmark", "sedes"), ("consistency", "box_scael"),
        ("benchmark", "T_grid"), ("consistency", "seeds"), ("consistency", "box_scale"),
    ])
    def test_unknown_key_exit_1(self, tmp_path, capsys, monkeypatch, command, key):
        """A misspelt key, a deleted one, or one the other command reads, is not ignored."""
        doc = {**EXPERIMENT_CONFIGS[command], key: 5}
        assert self.run(tmp_path, monkeypatch, command, doc) == 1
        err = capsys.readouterr().err
        assert f"unknown keys ['{key}']" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["benchmark", "consistency"])
    def test_null_iters_keeps_the_run_default(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr(experiments, "simulate_cluster", no_simulation)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**EXPERIMENT_CONFIGS[command], "iters": None}))
        _, _, kwargs = experiment_from_config(str(cfg), command)
        assert "iters" not in kwargs

    @pytest.mark.parametrize("command", ["benchmark", "consistency"])
    def test_top_level_array_exit_1(self, tmp_path, capsys, monkeypatch, command):
        assert self.run(tmp_path, monkeypatch, command, [1, 2]) == 1
        err = capsys.readouterr().err
        assert "top level must be an object" in err
        assert "Traceback" not in err

    @staticmethod
    def with_recipe(command, recipe):
        """The command's config with a dict recipe; no top-level K or horizon overrides it."""
        doc = {k: v for k, v in EXPERIMENT_CONFIGS[command].items()
               if k not in ("K", "horizon")}
        return {**doc, "recipe": recipe}

    @pytest.mark.parametrize("command", ["benchmark", "consistency"])
    @pytest.mark.parametrize(
        "recipe", [{"K": 0}, {"K": 2.5}, {"horizon": -5}, {"family": "gamma"}, {"seed": -1}],
        ids=["K=0", "K=2.5", "horizon=-5", "family=gamma", "seed=-1"],
    )
    def test_bad_dict_recipe_exit_1(self, tmp_path, capsys, monkeypatch, command, recipe):
        doc = self.with_recipe(command, recipe)
        assert self.run(tmp_path, monkeypatch, command, doc) == 1
        assert capsys.readouterr().err.startswith("config error: recipe: ")

    @pytest.mark.parametrize("command", ["benchmark", "consistency"])
    @pytest.mark.parametrize("key", ["M", "cutoff", "max_attempts"])
    def test_removed_recipe_key_exit_1(self, tmp_path, capsys, monkeypatch, command, key):
        """A recipe has one base kernel with its class's defaults and a fixed number of draws."""
        doc = self.with_recipe(command, {key: 1})
        assert self.run(tmp_path, monkeypatch, command, doc) == 1
        assert capsys.readouterr().err == f"config error: recipe: unknown keys ['{key}']\n"

    @pytest.mark.parametrize("command", ["benchmark", "consistency"])
    @pytest.mark.parametrize("divisor", ["alpha_divisor", "mu_divisor"])
    def test_zero_divisor_exit_1(self, tmp_path, capsys, monkeypatch, command, divisor):
        doc = self.with_recipe(command, {divisor: 0})
        assert self.run(tmp_path, monkeypatch, command, doc) == 1
        err = capsys.readouterr().err
        assert err == f"config error: recipe: {divisor}: expected a finite number > 0, got 0\n"

    @pytest.mark.parametrize("command", ["benchmark", "consistency"])
    def test_recipe_without_stationary_draw_exit_2(
        self, tmp_path, capsys, monkeypatch, command
    ):
        recipe = {"kind": "custom", "K": 4, "alpha_divisor": 0.1}
        doc = self.with_recipe(command, recipe)
        assert self.run(tmp_path, monkeypatch, command, doc) == 2
        assert "domain error: no stationary draw after 100 attempts" in capsys.readouterr().err


class TestConfigValidation:
    @pytest.mark.parametrize("section", ["optimizer", "domain", "init", "model"])
    def test_unknown_section_key(self, tmp_path, section):
        doc = base_config()
        doc[section]["bogus"] = 1
        cfg = write_config(tmp_path / "c.json", doc)
        with pytest.raises(ConfigError, match="bogus"):
            load_config(cfg)

    def test_allow_noncompliant_is_not_a_config_key(self, tmp_path):
        doc = base_config(allow_noncompliant=True)
        cfg = write_config(tmp_path / "c.json", doc)
        with pytest.raises(ConfigError, match="allow_noncompliant"):
            load_config(cfg)

    def test_every_hyperparameter_field_loads(self, tmp_path):
        values = {
            "epsilon": 0.1, "gamma1": 0.3, "gamma2": 0.2, "lbar1": 50.0,
            "lbar2": 3.0, "tau1": 1e-3, "tau2": 2e-3, "omega_bar": 0.2,
            "nu": 0.3, "delta": 40.0, "c1": 10.0, "c2": 20.0, "memory": 4,
            "max_iters": 7,
        }
        assert set(values) == {f.name for f in fields(HyperParams)} - {
            "allow_noncompliant"
        }
        cfg = write_config(tmp_path / "c.json", base_config(**values))
        hp, algorithm = hyperparams_from_config(load_config(cfg))
        assert algorithm == "palm"
        assert {k: getattr(hp, k) for k in values} == values

    def test_missing_domain_key_named(self, tmp_path):
        doc = base_config()
        del doc["domain"]["mu_ub"], doc["domain"]["beta_ub"]
        cfg = write_config(tmp_path / "c.json", doc)
        with pytest.raises(ConfigError, match="'mu_ub'"):
            domain_from_config(load_config(cfg), spec_from_config(load_config(cfg)))

    @pytest.mark.parametrize("section", ["domain", "init"])
    def test_section_shaped_for_another_k_exit_1(self, tmp_path, capsys, section):
        doc = base_config(K=1)
        doc[section] = base_config(K=2)[section]
        cfg = write_config(tmp_path / "c.json", doc)
        events = tmp_path / "e.csv"
        events.write_text("time,type\n1.0,0\n")
        code = main(["fit", "--events", str(events), "--config", cfg,
                     "--out", str(tmp_path / "p.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"config error: {section}: shapes for K=2, M=1 do not match" in err

    def test_missing_required_section(self, tmp_path):
        doc = base_config()
        del doc["model"]
        cfg = write_config(tmp_path / "c.json", doc)
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_usage_error_exit_1(self):
        assert main(["fit"]) == 1  # missing required flags
        assert main(["no-such-command"]) == 1

    def test_help_exit_0(self):
        assert main(["--help"]) == 0


# Config values that ended in a traceback, or were silently truncated, before
# every config document went through one reader: (command, value, mutation,
# the section the error names).
def _set(section, key, value):
    return lambda doc: doc[section].update({key: value})


CONFIG_REGRESSIONS = [
    ("fit", "regularization without C", lambda doc: doc["regularization"].clear(),
     "regularization"),
    ("fit", "C='x'", _set("regularization", "C", "x"), "regularization"),
    ("fit", "C=NaN", _set("regularization", "C", math.nan), "regularization"),
    ("fit", "regularization=5", lambda doc: doc.update(regularization=5), "regularization"),
    ("fit", "model=5", lambda doc: doc.update(model=5), "model"),
    ("simulate", "model=[]", lambda doc: doc.update(model=[]), "model"),
    ("simulate", "K=null", _set("model", "K", None), "model"),
    ("fit", "K=2.5", _set("model", "K", 2.5), "model"),
    ("simulate", "M=1.5", _set("model", "M", 1.5), "model"),
    ("fit", "kernels=5", _set("model", "kernels", 5), "model"),
    ("fit", "powerlaw c=null", _set("model", "kernels", [{"family": "powerlaw", "c": None}]),
     "model"),
    ("fit", "gamma1='x'", _set("optimizer", "gamma1", "x"), "optimizer"),
    ("fit", "tau1='1'", _set("optimizer", "tau1", "1"), "optimizer"),
    ("fit", "c1=null", _set("optimizer", "c1", None), "optimizer"),
    ("fit", "max_iters='3'", _set("optimizer", "max_iters", "3"), "optimizer"),
    ("fit", "max_iters=2.5", _set("optimizer", "max_iters", 2.5), "optimizer"),
    ("fit", "memory=2.5", _set("optimizer", "memory", 2.5), "optimizer"),
    ("fit", "lbar1=NaN", _set("optimizer", "lbar1", math.nan), "optimizer"),
    ("fit", "tau1=NaN", _set("optimizer", "tau1", math.nan), "optimizer"),
    ("benchmark", "recipe reg_c='x'", {"K": 1, "reg_c": "x"}, "recipe"),
    ("consistency", "recipe reg_c='x'", {"K": 1, "reg_c": "x"}, "recipe"),
    ("benchmark", "recipe horizon=0", {"K": 1, "horizon": 0}, "recipe"),
    ("consistency", "recipe horizon=0", {"K": 1, "horizon": 0}, "recipe"),
]


@pytest.mark.parametrize(
    "command, mutation, section", [(c, m, s) for c, _, m, s in CONFIG_REGRESSIONS],
    ids=[f"{c}-{name}" for c, name, _, _ in CONFIG_REGRESSIONS],
)
def test_config_regression_exit_1_naming_the_section(tmp_path, capsys, command, mutation,
                                                     section):
    if command in ("fit", "simulate"):
        doc = base_config(K=2)
        mutation(doc)
        events = tmp_path / "e.csv"
        events.write_text("time,type\n1.0,0\n")
        extra = ["--events", str(events)] if command == "fit" else []
    else:
        doc, extra = TestExperimentConfigErrors.with_recipe(command, mutation), []
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-0.1", "1.5", "inf", "x"])
def test_max_bad_fraction_outside_unit_interval_exit_1(tmp_path, capsys, value):
    msg, mapping = TestIngestLobster().make_fixture(tmp_path)
    out = tmp_path / "events.csv"
    code = main(["ingest-lobster", "--messages", str(msg), "--types", str(mapping),
                 "--out", str(out), "--max-bad-fraction", value])
    assert code == 1
    err = capsys.readouterr().err
    assert "--max-bad-fraction" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), -0.1, 1.5, float("inf")])
def test_ingest_lobster_rejects_bad_fraction_from_python(tmp_path, value):
    """The library call checks max_bad_fraction as the CLI flag does, before
    any row is read or the output is written."""
    msg = tmp_path / "bad.csv"
    msg.write_text("x,y\nnot,a,row\n")  # both rows unparseable
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({"1": "L"}))
    out = tmp_path / "o.csv"
    with pytest.raises(ValueError, match="max_bad_fraction"):
        ingest_lobster(str(msg), str(mapping), str(out), max_bad_fraction=value)
    assert not out.exists()


@pytest.mark.parametrize("row,fragment", [
    ("3,0.5", "row 3: expected 6 fields, got 2"),
    ("3,0.5,0.1,PALM,0.2,0.0,9", "row 3: expected 6 fields, got 7"),
    ("3,abc,0.1,PALM,0.2,0.0", "row 3: could not convert"),
    ("3.5,0.5,0.1,PALM,0.2,0.0", "row 3: invalid literal"),
])
def test_read_trace_malformed_row_names_file_and_row(tmp_path, row, fragment):
    path = tmp_path / "trace.csv"
    path.write_text(f"{TRACE_HEADER}\n1,0.5,0.1,PALM,0.2,0.0\n{row}\n")
    with pytest.raises(DataError, match=fragment) as exc:
        read_trace(str(path))
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("row,fragment", [
    ("3.0,0,7", "row 3: expected 2 fields, got 3"),
    ("3.0", "row 3: expected 2 fields, got 1"),
    ("abc,0", "row 3: could not convert"),
    ("inf,x", "row 3: non-finite time inf"),
])
def test_read_events_malformed_row_names_file_and_row(tmp_path, row, fragment):
    path = tmp_path / "events.csv"
    path.write_text(f"{EVENT_HEADER}\n1.0,0\n{row}\n")
    with pytest.raises(DataError, match=fragment) as exc:
        read_events(str(path))
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("reader,header,rows", [
    (read_events, EVENT_HEADER, ["1.0,0", "2.5,1"]),
    (read_trace, TRACE_HEADER, ["0,0.5,0.1,PALM,0.2,0.0", "1,0.4,0.1,PALM,0.1,0.5"]),
], ids=["events", "trace"])
def test_readers_skip_blank_rows(tmp_path, reader, header, rows):
    dense, sparse = tmp_path / "dense.csv", tmp_path / "sparse.csv"
    dense.write_text(header + "\n" + "".join(row + "\n" for row in rows))
    sparse.write_text(f"{header}\n{rows[0]}\n\n{rows[1]}\n\n")  # a blank row and a blank end

    def plain(read):  # an event sequence or a list of trace rows, as comparable values
        return read if isinstance(read, list) else (read.times.tolist(), read.types.tolist(),
                                                    read.horizon)

    assert plain(reader(str(sparse))) == plain(reader(str(dense)))


def test_read_trace_wrong_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("iter,objective\n1,0.5\n")
    with pytest.raises(DataError, match="expected header"):
        read_trace(str(path))


@pytest.mark.parametrize("command, data_flag, map_flag", [
    ("ingest-lobster", "--messages", "--types"),
    ("ingest-memetracker", "--posts", "--groups"),
])
@pytest.mark.parametrize("mapping", [["L"], "L", None])
def test_ingestion_map_not_an_object_exit_3(tmp_path, capsys, command, data_flag, map_flag,
                                            mapping):
    """A map is read by the one JSON-object loader, as config and params files are."""
    data = tmp_path / "data.csv"
    data.write_text("time,url\n1.0,a\n")
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(mapping))
    code = main([command, data_flag, str(data), map_flag, str(map_path),
                 "--out", str(tmp_path / "e.csv")])
    assert code == 3
    assert capsys.readouterr().err == f"data error: {map_path}: top level must be an object\n"
