"""Derandomized fuzz test of the command line.

Each example runs ``cli.main`` once on a generated input: a valid config of
some command with one value mutated, an event CSV for ``fit``, an ingestion
map with its messages or posts, or a horizon or time stamps at extreme
magnitudes.  Every run must exit 0, 1, 2 or 3 without a traceback or a
``RuntimeWarning``, and every params or trace file it writes must parse back
with only finite numbers.  The inputs are tiny (K <= 2, <= 30 events, <= 3
iterations, one seed) so the whole module runs in seconds.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hawkes_mle import (DataError, DomainError, EventSequence, HyperParams, HyperParamsError,
                        PowerLawCutoff, SyntheticRecipe, generate_instance)
from hawkes_mle.cli import main
from hawkes_mle.io import read_events, read_params, read_trace

FUZZ = settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

FIT_CONFIG = {
    "model": {"K": 2, "M": 1, "kernels": [{"family": "exponential"}]},
    "domain": {"mu_lb": [0.1, 0.1], "mu_ub": [5.0, 5.0],
               "alpha_lb": [[[0.0, 0.0], [0.0, 0.0]]], "alpha_ub": [[[0.4, 0.4], [0.4, 0.4]]],
               "beta_lb": [0.5], "beta_ub": [2.0]},
    "init": {"mu": [0.5, 0.3], "alpha": [[[0.1, 0.0], [0.2, 0.1]]], "beta": [1.0]},
    "regularization": {"C": 0.1},
    "optimizer": {"algorithm": "aa-ipalm", "lbar1": 3000.0, "lbar2": 50.0, "gamma1": 0.2,
                  "gamma2": 0.2, "memory": 2, "max_iters": 3},
    "horizon": 20.0,
}
POWERLAW_CONFIG = {
    "model": {"K": 1, "M": 1, "kernels": [{"family": "powerlaw", "c": 0.5}]},
    "domain": {"mu_lb": [0.1], "mu_ub": [5.0], "alpha_lb": [[[0.0]]], "alpha_ub": [[[0.5]]],
               "beta_lb": [1.2], "beta_ub": [3.0]},
    "init": {"mu": [0.5], "alpha": [[[0.2]]], "beta": [2.0]},
    "regularization": {"C": 0.0},
    "optimizer": {"algorithm": "ipalm", "lbar1": 3000.0, "lbar2": 50.0, "max_iters": 3},
    "horizon": 20.0,
}
PARAMS = {"mu": [0.5, 0.3], "alpha": [[[0.1, 0.0], [0.2, 0.1]]], "beta": [1.0],
          "kernels": [{"family": "exponential"}], "objective": -12.5, "meta": {"note": "x"}}
BENCHMARK = {"recipe": "exp-k10", "recipe_seed": 1, "K": 2, "horizon": 30.0,
             "algorithms": ["palm", "aa-ipalm"], "iters": 2, "seeds": [0]}
CONSISTENCY = {
    "recipe": {"kind": "custom", "K": 1, "family": "exponential", "beta_true": 1.0,
               "alpha_low": 0.1, "alpha_high": 0.2, "alpha_divisor": 1.0, "mu_low": 0.5,
               "mu_high": 0.6, "mu_divisor": 1.0, "reg_c": 0.0, "horizon": 20.0},
    "recipe_seed": 3, "T_grid": [20.0], "seeds_per_T": 1, "iters": 2,
}
EVENTS = "time,type\n0.5,0\n1.25,1\n1.25,0\n4.0,1\n9.5,0\n"

# Replacement values: another JSON type, null, non-finite, negative, non-integral.
BAD_VALUES = ["x", "1", [], {}, True, None, math.nan, math.inf, -math.inf, -1, -2.5, 2.5,
              0, 0.25]
# Keys whose default is a full-size run: mutated like any other key, never deleted.
NOT_DELETED = {"iters", "max_iters", "seeds", "seeds_per_T", "T_grid", "K", "horizon"}


def slots(doc):
    """Every (container, key) pair in a JSON document, dict keys and list indices alike."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


@st.composite
def mutated(draw, doc):
    """``doc`` with one value replaced or one key deleted, or not an object at all."""
    doc = copy.deepcopy(doc)
    container, key = draw(st.sampled_from([(None, None), *slots(doc)]))
    value = draw(st.sampled_from(BAD_VALUES + ["delete"]))
    if container is None:
        return [doc] if value == "delete" else value
    if value == "delete" and not (isinstance(container, list) or key in NOT_DELETED):
        del container[key]
    else:
        container[key] = -1 if value == "delete" else value
    return doc


def run(argv, workdir):
    """Run the command line; check the exit code, stderr, the warnings and the files written.

    A ``UserWarning`` (non-compliant hyperparameters) may be issued; a ``RuntimeWarning``,
    numpy's overflow or invalid-value warning outside the likelihood's floating-point
    guard, fails the run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    for path in workdir.iterdir():
        if path.name.startswith("out_params"):
            json.loads(path.read_text(), parse_constant=non_finite)
            read_params(str(path))
        elif path.name.startswith("out_trace"):
            for row in read_trace(str(path)):
                assert all(math.isfinite(row[k]) for k in ("objective", "residual", "lyapunov"))
        elif path.name.startswith("out_events"):
            read_events(str(path))
    return code


def non_finite(token):
    raise AssertionError(f"non-finite number {token} in a written params file")


def write(workdir, name, content):
    path = workdir / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


FIT_FLAGS = st.sampled_from([[], ["--algo", "palm"], ["--algo", "ipalm"], ["--iters", "2"],
                             ["--iters", "0"], ["--iters", "-1"], ["--allow-noncompliant-hp"]])
SIMULATE_FLAGS = st.sampled_from([[], ["--method", "thinning"], ["--seed", "-1"], ["--seed", "7"],
                                  ["--max-events", "0"], ["--max-events", "3"],
                                  ["--horizon", "nan"], ["--horizon", "-1"], ["--horizon", "0"],
                                  ["--horizon", "5.5"]])


@FUZZ
@given(st.sampled_from([FIT_CONFIG, POWERLAW_CONFIG]).flatmap(mutated), FIT_FLAGS)
def test_fit_config(config, flags):
    with tempfile.TemporaryDirectory() as tmp:
        wd = Path(tmp)
        run(["fit", "--events", write(wd, "e.csv", EVENTS), "--config", write(wd, "c.json", config),
             "--out", str(wd / "out_params.json"), "--trace", str(wd / "out_trace.csv"), *flags],
            wd)


@FUZZ
@given(st.sampled_from([FIT_CONFIG, POWERLAW_CONFIG]).flatmap(mutated), SIMULATE_FLAGS)
def test_simulate_config(config, flags):
    with tempfile.TemporaryDirectory() as tmp:
        wd = Path(tmp)
        run(["simulate", "--config", write(wd, "c.json", config),
             "--out", str(wd / "out_events.csv"), *flags], wd)


@FUZZ
@given(mutated(PARAMS))
def test_params_file(params):
    with tempfile.TemporaryDirectory() as tmp:
        wd = Path(tmp)
        run(["check-stationarity", "--params", write(wd, "p.json", params)], wd)


@settings(FUZZ, max_examples=60)
@given(st.sampled_from(["benchmark", "consistency"]).flatmap(
    lambda command: st.tuples(st.just(command),
                              mutated(BENCHMARK if command == "benchmark" else CONSISTENCY))))
def test_experiment_config(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        wd = Path(tmp)
        run([command, "--config", write(wd, "c.json", config), "--out", str(wd / "report")], wd)


TIMES = st.sampled_from([0.0, 0.5, 1.25, 3.0, 7.5, 19.75]) | st.floats(0.0, 20.0)
ROWS = st.lists(st.tuples(TIMES, st.sampled_from([0, 0, 1])), max_size=30)
BAD_ROWS = ["", "x,0", "1.0,a", "1.0", "nan,0", "inf,1", "-1.0,0", "25.0,0", "1.0,0,0",
            "1e400,0", " 2.0 , 1 ", "3.0,2",  # a type >= K
            "1.0,9223372036854775808", "1.0,18446744073709551616"]  # types past int64


@FUZZ
@given(ROWS, st.sampled_from(["sorted"] * 6 + ["unsorted", *BAD_ROWS]), st.integers(0, 30),
       st.sampled_from(["palm", "ipalm", "aa-ipalm"]))
@example(rows=[(0.5, 0), (2.0, 1)], corruption="1.0,9223372036854775808", at=1, algo="palm")
@example(rows=[], corruption="1.0,18446744073709551616", at=0, algo="ipalm")
def test_fit_event_file(rows, corruption, at, algo):
    """Ties, empty types, n = 0, and one of: unsorted rows, a malformed row, a type >= K."""
    lines = [f"{t!r},{k}" for t, k in sorted(rows)]
    if corruption == "unsorted":
        lines.reverse()
    elif corruption != "sorted":
        lines.insert(at, corruption)
    with tempfile.TemporaryDirectory() as tmp:
        wd = Path(tmp)
        events = write(wd, "e.csv", "time,type\n" + "".join(line + "\n" for line in lines))
        run(["fit", "--events", events, "--config", write(wd, "c.json", FIT_CONFIG),
             "--algo", algo, "--out", str(wd / "out_params.json"),
             "--trace", str(wd / "out_trace.csv")], wd)


MAP_VALUES = st.sampled_from(["L", "M", "C", "X", 0, 1, -1, 1.5, "x", True, None, [0]])
MAPS = st.dictionaries(st.sampled_from(["1", "2", "4", "a.example", "b.example"]), MAP_VALUES,
                       max_size=4) | st.sampled_from([[], "L", 5, None])
MESSAGES = st.lists(st.sampled_from(["34200.1,1,10,100,5000,1", "34200.2,2,11,100,5001,-1",
                                     "34200.3,4,10,50,5000,1", "34200.4,7,1,1,1,1", "garbage",
                                     "nan,1,1,1,1,1", "1.0,1,1,1,1,0", "1.0,x,1,1,1,1"]),
                    max_size=8)
POSTS = st.lists(st.sampled_from(["100.0,a.example", "101.5,b.example", "99.0,c.example",
                                  "inf,a.example", "x,a.example", "nocomma"]), max_size=8)


@FUZZ
@given(MAPS, MESSAGES, POSTS, st.sampled_from(["0", "0.5", "1", "nan", "-0.1", "inf", "x"]))
def test_ingestion(mapping, messages, posts, fraction):
    with tempfile.TemporaryDirectory() as tmp:
        wd = Path(tmp)
        map_path = write(wd, "map.json", mapping)
        run(["ingest-lobster", "--messages", write(wd, "m.csv", "\n".join(messages)),
             "--types", map_path, "--out", str(wd / "out_events_lob.csv"),
             "--max-bad-fraction", fraction], wd)
        run(["ingest-memetracker", "--posts", write(wd, "p.csv", "\n".join(["time,url", *posts])),
             "--groups", map_path, "--out", str(wd / "out_events_meme.csv")], wd)


# Horizons far past any stream, up to the largest double: mu * T passes 2**63,
# numpy's largest Poisson mean, from T = 2e19 on (mu = 0.5).  Even the
# smallest, 1e15, passes the default event cap at once, so no draw simulates a
# long stream.
MAX_DOUBLE = 1.7976931348623157e308
HUGE = (st.sampled_from([1e15, 1e19, 2e19, 1e100, 1e200, 1e300, MAX_DOUBLE])
        | st.floats(1e15, MAX_DOUBLE))


@settings(FUZZ, max_examples=40)
@given(st.sampled_from([FIT_CONFIG, POWERLAW_CONFIG]), HUGE,
       st.sampled_from([[], ["--method", "thinning", "--max-events", "50"],
                        ["--max-events", "50"]]))
def test_simulate_at_extreme_horizons(config, horizon, flags):
    with tempfile.TemporaryDirectory() as tmp:
        wd = Path(tmp)
        run(["simulate", "--config", write(wd, "c.json", config), "--horizon", repr(horizon),
             "--out", str(wd / "out_events.csv"), *flags], wd)


@settings(FUZZ, max_examples=40)
@given(st.sampled_from([FIT_CONFIG, POWERLAW_CONFIG]), HUGE, ROWS,
       st.sampled_from(["palm", "ipalm", "aa-ipalm"]))
def test_fit_at_extreme_horizons(config, horizon, rows, algo):
    fit_at(config, horizon, rows, algo)


@pytest.mark.parametrize("algo", ["palm", "ipalm", "aa-ipalm"])
@pytest.mark.parametrize("config", [FIT_CONFIG, POWERLAW_CONFIG], ids=["exp", "pwl"])
def test_fit_at_the_largest_double(config, algo):
    """At T the largest double, the beta-gradient's compensator term takes
    e^{-x} (1 + x) at x = inf, where its limit is 0: the fit succeeds."""
    assert fit_at(config, MAX_DOUBLE, [(0.5, 0)], algo) == 0


def fit_at(config, horizon, rows, algo):
    """Exit code of ``fit`` on ``rows`` (time, type) with the config at ``horizon``."""
    with tempfile.TemporaryDirectory() as tmp:
        wd = Path(tmp)
        lines = "".join(f"{t!r},{k}\n" for t, k in sorted(rows))
        config = {**config, "horizon": horizon}
        argv = ["fit", "--events", write(wd, "e.csv", "time,type\n" + lines),
                "--config", write(wd, "c.json", config), "--algo", algo,
                "--out", str(wd / "out_params.json"), "--trace", str(wd / "out_trace.csv")]
        return run(argv, wd)


# Time stamps up to the largest double, either sign: rebased to start at zero,
# a log spanning more than it has an infinite horizon.
EXTREME_TIMES = (st.sampled_from([-MAX_DOUBLE, -1e308, -1.0, 0.0, 5e-324, 1e308, MAX_DOUBLE])
                 | st.floats(allow_nan=False, allow_infinity=False))


@FUZZ
@given(st.lists(EXTREME_TIMES, max_size=6))
def test_ingestion_at_extreme_times(times):
    with tempfile.TemporaryDirectory() as tmp:
        wd = Path(tmp)
        messages = "".join(f"{t!r},1,1,1,1,1\n" for t in times)
        posts = "time,url\n" + "".join(f"{t!r},a\n" for t in times)
        run(["ingest-lobster", "--messages", write(wd, "m.csv", messages),
             "--types", write(wd, "map.json", {"1": "L"}),
             "--out", str(wd / "out_events_lob.csv")], wd)
        run(["ingest-memetracker", "--posts", write(wd, "p.csv", posts),
             "--groups", write(wd, "groups.json", {"a": 0}),
             "--out", str(wd / "out_events_meme.csv")], wd)


# A JSON integer past the double range: every number rule refuses it as not finite, and a
# section's constructor that converts it to float raises a config error, not a traceback.
PAST_DOUBLE = 10**400


@pytest.mark.parametrize("command, path", [
    ("fit", ("horizon",)), ("fit", ("init", "mu", 0)), ("fit", ("domain", "mu_ub", 1)),
    ("fit", ("domain", "alpha_ub", 0, 0, 0)), ("fit", ("regularization", "C")),
    ("fit", ("optimizer", "lbar1")), ("fit", ("model", "kernels", 0, "c")),
    ("simulate", ("horizon",)), ("simulate", ("init", "beta", 0)),
    ("simulate", ("model", "kernels", 0, "c")),
], ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else value)
def test_integer_past_the_double_range_is_a_config_error(command, path):
    config = copy.deepcopy(POWERLAW_CONFIG if "c" in path else FIT_CONFIG)
    slot = config
    for key in path[:-1]:
        slot = slot[key]
    slot[path[-1]] = PAST_DOUBLE
    with tempfile.TemporaryDirectory() as tmp:
        wd = Path(tmp)
        argv = ["--config", write(wd, "c.json", config)]
        if command == "fit":
            argv += ["--events", write(wd, "e.csv", EVENTS), "--out", str(wd / "out_params.json")]
        else:
            argv += ["--out", str(wd / "out_events.csv")]
        assert run([command, *argv], wd) == 1


@pytest.mark.parametrize("build, error", [
    (lambda: HyperParams(lbar1=PAST_DOUBLE).validate("palm"), HyperParamsError),
    (lambda: EventSequence([0.1], [0], PAST_DOUBLE), DataError),
    (lambda: PowerLawCutoff(c=PAST_DOUBLE), DomainError),
    (lambda: generate_instance(SyntheticRecipe(K=2, horizon=PAST_DOUBLE)), ValueError),
], ids=["HyperParams", "EventSequence", "PowerLawCutoff", "generate_instance"])
def test_integer_past_the_double_range_is_not_finite(build, error):
    with pytest.raises(error, match=r": expected a finite number[^,]*, got 10{400}$"):
        build()
