"""File formats: event CSV, parameter JSON, trace CSV, config JSON, ingestion.

Event files are CSV with the exact header ``time,type``: times are seconds
from stream start, types are integers in [0, K).  Parameter files are JSON
documents with keys mu, alpha ([m][i][j]), beta, kernels, objective, meta.
Floats are written with ``repr``, so every file parses back losslessly.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, fields, replace

import numpy as np

from . import experiments
from .model import BoxDomain, DataError, Exponential, ModelSpec, ParamVector, PowerLawCutoff
from .model import _is_finite, _is_integer
from .optim import HyperParams
from .simulate import EventSequence

__all__ = [
    "ConfigError",
    "DataError",
    "read_events",
    "write_events",
    "read_params",
    "write_params",
    "write_trace",
    "read_trace",
    "load_config",
    "spec_from_config",
    "domain_from_config",
    "init_from_config",
    "reg_c_from_config",
    "hyperparams_from_config",
    "experiment_from_config",
    "kernels_to_json",
    "kernels_from_json",
    "ingest_lobster",
    "ingest_memetracker",
]


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


# -- event files --------------------------------------------------------------

EVENT_HEADER = "time,type"


def _finite_time(text):
    """float(text), or ValueError for a malformed or non-finite time stamp."""
    t = float(text)
    if not math.isfinite(t):
        raise ValueError(f"non-finite time {t}")
    return t


def write_events(path, events):
    with open(path, "w") as f:
        f.write(EVENT_HEADER + "\n")
        for t, k in zip(events.times, events.types):
            f.write(f"{float(t)!r},{int(k)}\n")


def read_events(path, horizon=None):
    """Parse an event CSV; the horizon defaults to the last arrival time."""
    times, types = [], []
    with open(path) as f:
        header = f.readline().rstrip("\n")
        if header != EVENT_HEADER:
            raise DataError(f"{path}: expected header {EVENT_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise DataError(f"{path}: row {lineno}: expected 2 fields")
            try:
                t = _finite_time(parts[0])
                k = int(parts[1])
            except ValueError as exc:
                raise DataError(f"{path}: row {lineno}: {exc}") from None
            if t < 0 or k < 0:
                raise DataError(f"{path}: row {lineno}: negative time or type")
            if times and t < times[-1]:
                raise DataError(f"{path}: row {lineno}: times not sorted")
            times.append(t)
            types.append(k)
    if horizon is None:
        horizon = times[-1] if times else 0.0
    if times and times[-1] > horizon:
        raise DataError(f"{path}: arrival beyond the declared horizon {horizon}")
    return EventSequence(np.asarray(times), np.asarray(types, dtype=np.int64), horizon)


# -- kernels and parameters ----------------------------------------------------


def _load_json(path, error=ConfigError):
    """Parse a JSON file; an unreadable or malformed file raises ``error``."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise error(f"{path}: {exc}") from None


def kernels_to_json(kernels):
    """The kernels as the JSON entries ``kernels_from_json`` reads."""
    return [{"family": k.name, **asdict(k)} for k in kernels]


def kernels_from_json(entries):
    """Kernels from a list of {"family": "exponential"} / {"family": "powerlaw", "c": c}."""
    return [_read(f"kernels[{i}]", _kernel, entry) for i, entry in enumerate(entries)]


def _kernel(entry):
    family = entry.get("family") if isinstance(entry, dict) else None
    if family not in ("exponential", "powerlaw"):
        raise ValueError(f"expected an object with family exponential or powerlaw, got {entry!r}")
    _section(entry, family)
    return Exponential() if family == "exponential" else PowerLawCutoff(entry.get("c", 0.05))


def write_params(path, spec, params, objective=None, meta=None):
    doc = {
        "mu": params.mu.tolist(),
        "alpha": params.alpha.tolist(),
        "beta": params.beta.tolist(),
        "kernels": kernels_to_json(spec.kernels),
        "objective": objective,
        "meta": meta or {},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_params(path):
    """Returns (spec, params, objective, meta) from a parameter JSON file."""
    return _read(path, _params, _load_json_object(path))


def _params(doc):
    _section(doc, "params")
    params = ParamVector(doc["mu"], doc["alpha"], doc["beta"])
    spec = ModelSpec(K=params.K, M=params.M, kernels=kernels_from_json(doc.get("kernels", [])))
    return spec, params, doc.get("objective"), doc.get("meta", {})


# -- trace CSV -----------------------------------------------------------------

TRACE_HEADER = "iter,objective,residual,step_kind,lyapunov,seconds"


def write_trace(path, trace):
    with open(path, "w") as f:
        f.write(TRACE_HEADER + "\n")
        for r in trace:
            f.write(
                f"{r.iteration},{float(r.objective)!r},{float(r.residual)!r},"
                f"{r.step_kind},{float(r.lyapunov)!r},{float(r.seconds)!r}\n"
            )


def read_trace(path):
    rows = []
    with open(path) as f:
        header = f.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise DataError(f"{path}: expected header {TRACE_HEADER!r}")
        for line in f:
            it, obj, res, kind, lyap, sec = line.rstrip("\n").split(",")
            rows.append(
                {
                    "iteration": int(it),
                    "objective": float(obj),
                    "residual": float(res),
                    "step_kind": kind,
                    "lyapunov": float(lyap),
                    "seconds": float(sec),
                }
            )
    return rows


# -- config documents ----------------------------------------------------------
#
# One reader for every config document: fit/simulate configs, params files,
# benchmark/consistency configs and their dict recipes.  ``_section`` checks a
# section's type, keys and scalars against ``_SECTIONS``; constructors and
# ``validate()`` build the values; ``_read`` alone turns a KeyError, TypeError
# or ValueError into a ConfigError.  Reads nest, so a message names the
# section and key: "model: K: expected a positive integer, got 2.5".


def _read(where, build, *args):
    """build(*args); a KeyError, TypeError or ValueError becomes a ConfigError naming ``where``."""
    try:
        return build(*args)
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if type(exc) is KeyError else str(exc)
        raise ConfigError(f"{where}: {reason}" if where else reason) from None


def _check(value, ok, expected):
    if not ok(value):
        raise ValueError(f"expected {expected}, got {value!r}")


def _nonempty_list(ok, expected):
    return (lambda v: isinstance(v, list) and len(v) > 0 and all(map(ok, v))), expected


# The scalar checks: (predicate, what it expects).
_COUNT = (lambda v: _is_integer(v) and v >= 1), "a positive integer"
_SEED = (lambda v: _is_integer(v) and v >= 0), "a non-negative integer"
_POSITIVE = (lambda v: _is_finite(v) and v > 0), "a finite number > 0"
_NONNEGATIVE = (lambda v: _is_finite(v) and v >= 0), "a finite number >= 0"
_LIST = (lambda v: isinstance(v, list)), "a list"
_ITERS = (lambda v: v is None or _COUNT[0](v)), "a positive integer or null"
_ALGORITHM = (lambda v: v in experiments.ALGORITHMS), f"one of {', '.join(experiments.ALGORITHMS)}"
_RECIPE_FLOATS = ("cutoff", "beta_true", "alpha_low", "alpha_high", "alpha_divisor", "mu_low",
                  "mu_high", "mu_divisor")


def _fields(cls, **checks):
    """A dataclass's fields as section keys (its constructor checks them), plus ``checks``."""
    return {**{f.name: None for f in fields(cls) if f.name != "allow_noncompliant"}, **checks}


# Each section's keys: a key maps to its check, to the name of the section it
# holds, or to None when its value's constructor checks it.  The domain, init,
# optimizer and recipe sections are the dataclasses' own fields, and
# allow_noncompliant is a command-line flag, not a config key.
_SECTIONS = {
    "config": {"model": "model", "domain": "domain", "init": "init",
               "regularization": "regularization", "optimizer": "optimizer",
               "horizon": _NONNEGATIVE},
    "model": {"K": _COUNT, "M": _COUNT, "kernels": _LIST},
    "exponential": {"family": None},
    "powerlaw": {"family": None, "c": _POSITIVE},
    "domain": _fields(BoxDomain),
    "init": _fields(ParamVector),
    "regularization": {"C": _NONNEGATIVE},
    "optimizer": _fields(HyperParams, algorithm=_ALGORITHM),
    "params": _fields(ParamVector, kernels=_LIST, objective=None, meta=None),
    "benchmark": {
        "recipe": None, "recipe_seed": _SEED, "K": _COUNT, "horizon": _POSITIVE, "iters": _ITERS,
        "algorithms": _nonempty_list(_ALGORITHM[0], "a non-empty list of " + _ALGORITHM[1]),
        "seeds": _nonempty_list(_SEED[0], "a non-empty list of non-negative integers"),
    },
    "consistency": {
        "recipe": None, "recipe_seed": _SEED, "seeds_per_T": _COUNT, "iters": _ITERS,
        "T_grid": _nonempty_list(_POSITIVE[0], "a non-empty list of finite numbers > 0"),
        "box_scale": ((lambda v: v is None or _POSITIVE[0](v)), "a finite number > 0 or null"),
    },
    "recipe": _fields(
        experiments.SyntheticRecipe, K=_COUNT, M=_COUNT, seed=_SEED, horizon=_POSITIVE,
        reg_c=_NONNEGATIVE, **dict.fromkeys(_RECIPE_FLOATS, (_is_finite, "a finite number")),
    ),
}


def _section(doc, name):
    """``doc`` as section ``name``: an object with only its keys, each key checked."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected an object, got {doc!r}")
    keys = _SECTIONS[name]
    unknown = set(doc) - set(keys)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    for key, value in doc.items():
        if isinstance(keys[key], str):
            _read(key, _section, value, keys[key])
        elif keys[key] is not None:
            _read(key, _check, value, *keys[key])
    return doc


def _load_json_object(path):
    """A JSON file's top-level object (config or params), or a ConfigError."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def load_config(path, require=("model", "init", "horizon")):
    """A simulate/fit config document, every section and key in it checked."""
    return _read("", _config, _load_json_object(path), require)


def _config(doc, require):
    for name in require:
        if name not in doc:
            raise ValueError(f"missing required section {name!r}")
    return _section(doc, "config")


def spec_from_config(doc):
    m = doc["model"]
    return _read("model", lambda: ModelSpec(m["K"], m["M"], kernels_from_json(m["kernels"])))


def _shaped(cls, section, spec):
    """cls(**section), which must have the model spec's K and M."""
    value = cls(**{f.name: section[f.name] for f in fields(cls)})
    if (value.K, value.M) != (spec.K, spec.M):
        raise ValueError(f"shapes for K={value.K}, M={value.M} do not match the model spec")
    return value


def domain_from_config(doc, spec):
    domain = _read("domain", _shaped, BoxDomain, doc["domain"], spec)
    domain.validate_kernels(spec)
    return domain


def init_from_config(doc, spec):
    return _read("init", _shaped, ParamVector, doc["init"], spec)


def reg_c_from_config(doc):
    return float(_read("regularization", lambda: doc["regularization"]["C"]))


def hyperparams_from_config(doc, allow_noncompliant=False, algo=None, iters=None):
    """Build and validate HyperParams from the optimizer section; returns (hp, algorithm)."""
    opt = doc.get("optimizer", {})
    kwargs = {k: v for k, v in opt.items() if k != "algorithm"}
    if iters is not None:
        kwargs["max_iters"] = iters
    hp = _read("optimizer", lambda: HyperParams(allow_noncompliant=allow_noncompliant, **kwargs))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the runner warns, once per fit
        _read("optimizer", hp.validate)
    return hp, algo or opt.get("algorithm", "aa-ipalm")


def experiment_from_config(path, command):
    """A ``benchmark`` or ``consistency`` config: (recipe, instance, kwargs).  ``kwargs``
    holds the other arguments the config sets for ``run_benchmark`` or
    ``run_consistency_study``; the rest keep those functions' defaults.  The instance is
    generated here, so a bad recipe fails before any stream is simulated."""
    return _read("", _experiment, _load_json_object(path), command)


def _experiment(doc, command):
    kwargs = dict(_section(doc, command))
    if "iters" in kwargs and kwargs["iters"] is None:
        del kwargs["iters"]  # null: the run's default
    overrides = {k: kwargs.pop(k) for k in ("K", "horizon") if k in kwargs}
    if "horizon" in overrides:
        overrides["horizon"] = float(overrides["horizon"])
    recipe = _read("recipe", _recipe, kwargs.pop("recipe", "exp-k10"), kwargs.pop("recipe_seed", 0),
                   overrides)
    return recipe, _read("recipe", experiments.generate_instance, recipe), kwargs


def _recipe(field, seed, overrides):
    """A built-in recipe by name or a custom one from an object, seeded; ``overrides`` win."""
    if isinstance(field, dict):
        return experiments.SyntheticRecipe(**{"seed": seed, **_section(field, "recipe"),
                                              **overrides})
    if field not in tuple(experiments.RECIPES):
        raise ValueError(f"expected one of {', '.join(experiments.RECIPES)} or an object, "
                         f"got {field!r}")
    return replace(experiments.RECIPES[field], seed=seed, **overrides)


# -- ingestion -----------------------------------------------------------------

# Six-type scheme for order-book event streams: limit / market / cancel
# crossed with bid (direction +1) and ask (direction -1).
LOB_TYPE_INDEX = {
    ("L", "b"): 0,
    ("L", "a"): 1,
    ("M", "b"): 2,
    ("M", "a"): 3,
    ("C", "b"): 4,
    ("C", "a"): 5,
}


def _write_rebased(out_path, rows):
    """Sort (time, type) rows, shift times to start at zero, write an event CSV."""
    rows.sort()
    t0 = rows[0][0] if rows else 0.0
    times = np.asarray([t - t0 for t, _ in rows])
    types = np.asarray([k for _, k in rows], dtype=np.int64)
    horizon = float(times[-1]) if times.size else 0.0
    write_events(out_path, EventSequence(times, types, horizon))


def ingest_lobster(messages_path, mapping_path, out_path, max_bad_fraction=0.01):
    """Convert an order-book message CSV to the event format.

    Message rows are ``time,event_code,order_id,size,price,direction`` with
    direction +1 for bid/buy and -1 for ask/sell.  The mapping file is JSON
    from event-code strings to one of "L", "M", "C"; unmapped codes are
    dropped and counted.  Rows that fail to parse count as bad; more than
    ``max_bad_fraction`` of them aborts the ingestion.
    """
    raw_map = _load_json(mapping_path, DataError)
    if not isinstance(raw_map, dict):
        raise DataError(f"{mapping_path}: expected an object of code -> letter")
    code_map = {}
    for code, letter in raw_map.items():
        if letter not in ("L", "M", "C"):
            raise DataError(f"{mapping_path}: code {code!r} maps to {letter!r}, "
                            "expected one of L, M, C")
        code_map[str(code)] = letter

    rows, bad, unmapped = [], 0, 0
    total = 0
    with open(messages_path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            total += 1
            parts = line.split(",")
            if len(parts) < 6:
                bad += 1
                continue
            try:
                t = _finite_time(parts[0])
                code = str(int(float(parts[1])))
                direction = int(float(parts[5]))
            except ValueError:
                bad += 1
                continue
            if direction not in (1, -1):
                bad += 1
                continue
            letter = code_map.get(code)
            if letter is None:
                unmapped += 1
                continue
            side = "b" if direction == 1 else "a"
            rows.append((t, LOB_TYPE_INDEX[(letter, side)]))

    if total and bad / total > max_bad_fraction:
        raise DataError(
            f"{messages_path}: {bad}/{total} rows unparseable "
            f"(threshold {max_bad_fraction})"
        )
    _write_rebased(out_path, rows)
    return {
        "rows_read": total,
        "rows_written": len(rows),
        "rows_unmapped": unmapped,
        "rows_bad": bad,
    }


def ingest_memetracker(posts_path, groups_path, out_path):
    """Convert a ``time,url`` posting log to the event format.

    The groups file is JSON from url (or url group) to a type index, a
    nonnegative integer; posts with unmapped urls are dropped and counted.
    Times are rebased to zero.
    """
    groups = _load_json(groups_path, DataError)
    if not isinstance(groups, dict):
        raise DataError(f"{groups_path}: expected an object of url -> type index")
    for url, idx in groups.items():
        if type(idx) is not int or idx < 0:
            raise DataError(f"{groups_path}: url {url!r} maps to {idx!r}, "
                            "expected a nonnegative integer")

    rows, unmapped = [], 0
    with open(posts_path) as f:
        header = f.readline().rstrip("\n")
        if header != "time,url":
            raise DataError(f"{posts_path}: expected header 'time,url'")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",", 1)
            if len(parts) != 2:
                raise DataError(f"{posts_path}: row {lineno}: expected 2 fields")
            try:
                t = _finite_time(parts[0])
            except ValueError:
                raise DataError(f"{posts_path}: row {lineno}: bad time") from None
            idx = groups.get(parts[1])
            if idx is None:
                unmapped += 1
                continue
            rows.append((t, idx))
    _write_rebased(out_path, rows)
    return {"rows_written": len(rows), "rows_unmapped": unmapped}
