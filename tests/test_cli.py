import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from hawkes_mle import experiments
from hawkes_mle.cli import main
from hawkes_mle.io import (
    ConfigError,
    DataError,
    domain_from_config,
    hyperparams_from_config,
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

    @pytest.mark.parametrize("bad", [-1, 1.5, "x", True, None, [0]])
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
        write_params(str(path), spec, pv, objective=-1.5, meta={"note": "x"})
        spec2, pv2, objective, meta = read_params(str(path))
        assert spec2.kernels[0].c == 0.07
        assert np.array_equal(pv2.mu, pv.mu)
        assert objective == -1.5 and meta == {"note": "x"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"mu": [1.0], "bogus": 1}))
        with pytest.raises(ConfigError):
            read_params(str(path))


class TestFitDataErrors:
    def test_event_type_beyond_model_k_exit_3(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config())  # K = 1
        bad = tmp_path / "bad.csv"
        bad.write_text("time,type\n1.0,0\n2.0,1\n")  # type 1 out of range
        code = main(
            ["fit", "--events", str(bad), "--config", cfg,
             "--out", str(tmp_path / "p.json")]
        )
        assert code == 3

    def test_event_beyond_horizon_exit_3(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config(horizon=10.0))
        bad = tmp_path / "bad.csv"
        bad.write_text("time,type\n1.0,0\n11.0,0\n")
        code = main(
            ["fit", "--events", str(bad), "--config", cfg,
             "--out", str(tmp_path / "p.json")]
        )
        assert code == 3

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
    ("consistency", "box_scale", "x"),
    ("benchmark", "K", 0),
    ("benchmark", "horizon", -5),
    ("consistency", "T_grid", [-5]),
    ("benchmark", "seeds", [0.5]),
    ("benchmark", "seeds", [True]),
    ("benchmark", "seeds", []),
    ("consistency", "seeds_per_T", 0),
    ("benchmark", "algorithms", []),
]


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
        ("benchmark", "T_grid"), ("consistency", "seeds"),
    ])
    def test_unknown_key_exit_1(self, tmp_path, capsys, monkeypatch, command, key):
        """A misspelt key, or one the other command reads, is not ignored."""
        doc = {**EXPERIMENT_CONFIGS[command], key: 5}
        assert self.run(tmp_path, monkeypatch, command, doc) == 1
        err = capsys.readouterr().err
        assert f"unknown keys ['{key}']" in err
        assert "Traceback" not in err

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
    def test_recipe_without_stationary_draw_exit_2(
        self, tmp_path, capsys, monkeypatch, command
    ):
        recipe = {"kind": "custom", "K": 4, "alpha_divisor": 0.1, "max_attempts": 5}
        doc = self.with_recipe(command, recipe)
        assert self.run(tmp_path, monkeypatch, command, doc) == 2
        assert "domain error: no stationary draw after 5 attempts" in capsys.readouterr().err


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
