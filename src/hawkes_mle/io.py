"""File formats: event CSV, parameter JSON, trace CSV, config JSON, reports, ingestion.

The one module that reads or writes files.  Event files are CSV with the exact header
``time,type``: times are seconds from stream start, types are integers in [0, K).  Parameter
files are JSON documents with keys mu, alpha ([m][i][j]), beta, kernels, objective, meta.
CSV values are written with ``str`` (floats, Python or numpy, as their shortest round-trip
digits) and CSV readers skip blank rows, so every file parses back losslessly.
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
from dataclasses import asdict, fields, replace
from itertools import starmap
from pathlib import Path

import numpy as np

from . import experiments
from .model import BoxDomain, DataError, ModelSpec, ParamVector
from .model import _FAMILIES, _RULES, _require
from .optim import _ALGORITHM, HyperParams
from .simulate import EventSequence, _by_time_type

__all__ = [
    "ConfigError",
    "DataError",
    "read_events",
    "write_events",
    "read_params",
    "write_params",
    "write_trace",
    "read_trace",
    "write_report",
    "check_output_path",
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


# -- tables and JSON documents -------------------------------------------------


def _write_table(path, header, rows):
    """A CSV: the header, then one line per row with each value written with ``str``."""
    line = ",".join(["{}"] * (header.count(",") + 1)) + "\n"
    text = header + "\n" + "".join(starmap(line.format, rows))
    with open(path, "w") as f:
        f.write(text)


def _header(path, f, header):
    """Read the open file's first line; anything but ``header`` is a DataError."""
    first = f.readline().rstrip("\n")
    if first != header:
        raise DataError(f"{path}: expected header {header!r}, got {first!r}")


def _lines(f, start):
    """(row number, stripped line) per nonblank line left in ``f``; the next is row ``start``."""
    for lineno, line in enumerate(f, start=start):
        line = line.strip()
        if line:
            yield lineno, line


def _rows(path, header):
    """(row number, fields) per nonblank row; a wrong header or field count is a DataError."""
    n = header.count(",") + 1
    with open(path) as f:
        _header(path, f, header)
        for lineno, line in _lines(f, 2):
            parts = line.split(",")
            if len(parts) != n:
                raise DataError(f"{path}: row {lineno}: expected {n} fields, got {len(parts)}")
            yield lineno, parts


def _plain(value):
    """A numpy scalar's Python value, for ``json.dumps``."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(path, doc):
    """``doc`` as JSON, indented by 2 with sorted keys; the text is built before the file opens."""
    text = json.dumps(doc, indent=2, sort_keys=True, default=_plain) + "\n"
    with open(path, "w") as f:
        f.write(text)


def check_output_path(path):
    """Raise, before any work, the OSError that writing a file at ``path`` would: its
    directory is missing or not a directory, or ``path`` names a directory."""
    path = os.fspath(path)
    parent = os.path.dirname(path.rstrip(os.sep)) or (path and ".")  # "" names no file
    try:
        code = None if stat.S_ISDIR(os.stat(parent).st_mode) else errno.ENOTDIR
    except OSError as exc:
        code = exc.errno
    if code is None and (os.path.isdir(path) or path.endswith(os.sep)):
        code = errno.EISDIR
    if code is not None:
        raise OSError(code, os.strerror(code), path)


def _load_json_object(path, error):
    """A JSON file's top-level object; a bad or non-object file raises ``error``."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        raise error(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: top level must be an object")
    return doc


def write_report(outdir, report):
    """Write a report's ``tables()`` and its ``manifest.json`` into ``outdir``, made if missing."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in report.tables().items():
        _write_table(outdir / name, header, rows)
    _write_json(outdir / "manifest.json", report.manifest)


# -- event files --------------------------------------------------------------

EVENT_HEADER = "time,type"


def _finite_time(text):
    """float(text), or ValueError for a malformed or non-finite time stamp."""
    t = float(text)
    if not math.isfinite(t):
        raise ValueError(f"non-finite time {t}")
    return t


def write_events(path, events):
    _write_table(path, EVENT_HEADER, zip(events.times.tolist(), events.types.tolist()))


def read_events(path, horizon=None):
    """Parse an event CSV; the horizon defaults to the last arrival time."""
    times, types, last = [], [], 0.0
    for lineno, (t, k) in _rows(path, EVENT_HEADER):
        try:
            t, k = _finite_time(t), int(k)
            if not (last <= t and k >= 0):
                raise ValueError("negative time or type" if t < 0 or k < 0 else "times not sorted")
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: {exc}") from None
        last = t
        times.append(t)
        types.append(k)
    if horizon is None:
        horizon = last
    if times and last > horizon:
        raise DataError(f"{path}: arrival beyond the declared horizon {horizon}")
    return EventSequence(np.asarray(times), np.asarray(types, dtype=np.int64), horizon)


# -- kernels and parameters ----------------------------------------------------


def kernels_to_json(kernels):
    """The kernels as the JSON entries ``kernels_from_json`` reads."""
    return [{"family": k.name, **asdict(k)} for k in kernels]


def kernels_from_json(entries):
    """Kernels from a list of {"family": "exponential"} / {"family": "powerlaw", "c": c}."""
    return [_read(f"kernels[{i}]", _kernel, entry) for i, entry in enumerate(entries)]


def _kernel(entry):
    family = entry.get("family") if isinstance(entry, dict) else None
    if family not in tuple(_FAMILIES):
        raise ValueError(f"expected an object with family {' or '.join(_FAMILIES)}, got {entry!r}")
    return _FAMILIES[family](**{k: v for k, v in _section(entry, family).items() if k != "family"})


def write_params(path, spec, params, objective=None, meta=None):
    doc = {
        "mu": params.mu.tolist(),
        "alpha": params.alpha.tolist(),
        "beta": params.beta.tolist(),
        "kernels": kernels_to_json(spec.kernels),
        "objective": objective,
        "meta": meta or {},
    }
    _write_json(path, doc)


def read_params(path):
    """Returns (spec, params, objective, meta) from a parameter JSON file."""
    return _read(path, _params, _load_json_object(path, ConfigError))


def _params(doc):
    _section(doc, "params")
    params = ParamVector(doc["mu"], doc["alpha"], doc["beta"])
    spec = ModelSpec(K=params.K, M=params.M, kernels=kernels_from_json(doc.get("kernels", [])))
    return spec, params, doc.get("objective"), doc.get("meta", {})


# -- trace CSV -----------------------------------------------------------------

TRACE_HEADER = "iter,objective,residual,step_kind,lyapunov,seconds"


def write_trace(path, trace):
    _write_table(path, TRACE_HEADER, ((r.iteration, r.objective, r.residual, r.step_kind,
                                        r.lyapunov, r.seconds) for r in trace))


def read_trace(path):
    """Parse a trace CSV into one dict per row; a malformed row raises DataError."""
    rows = []
    for lineno, (it, obj, res, kind, lyap, sec) in _rows(path, TRACE_HEADER):
        try:
            rows.append({"iteration": int(it), "objective": float(obj), "residual": float(res),
                         "step_kind": kind, "lyapunov": float(lyap), "seconds": float(sec)})
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: {exc}") from None
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


def _nonempty_list(rule, expected):
    """The rule of a non-empty list whose values keep ``rule``."""
    return (lambda v: isinstance(v, list) and len(v) > 0 and all(map(rule[0], v))), expected


def _or_null(rule):
    """``rule``, or null."""
    return (lambda v: v is None or rule[0](v)), f"{rule[1]} or null"


# The model and params sections' kernels key: a list; ``kernels_from_json`` checks each entry.
_KERNELS = {"kernels": ((lambda v: isinstance(v, list)), "a list")}


def _fields(cls, **checks):
    """A dataclass's fields as section keys (its constructor checks them), plus ``checks``."""
    return {**{f.name: None for f in fields(cls) if f.name != "allow_noncompliant"}, **checks}


# Each section's keys: a key maps to its rule, a (predicate, phrase) pair, mostly one
# of ``model._RULES``; to the name of the section it holds; or to None when its
# value's constructor checks it.  The domain, init, optimizer and recipe sections
# are the dataclasses' own fields, a recipe's values keep ``generate_instance``'s
# rules, and allow_noncompliant is a command-line flag, not a config key.
_SECTIONS = {
    "config": {"model": "model", "domain": "domain", "init": "init",
               "regularization": "regularization", "optimizer": "optimizer",
               "horizon": _RULES["nonnegative"]},
    "model": {"K": _RULES["positive_int"], "M": _RULES["positive_int"], **_KERNELS},
    "exponential": {"family": None},
    "powerlaw": {"family": None, "c": None},
    "domain": _fields(BoxDomain),
    "init": _fields(ParamVector),
    "regularization": {"C": _RULES["nonnegative"]},
    "optimizer": _fields(HyperParams, algorithm=_ALGORITHM),
    "params": _fields(ParamVector, **_KERNELS, objective=None, meta=None),
    "benchmark": {
        "recipe": None, "recipe_seed": _RULES["nonnegative_int"], "K": _RULES["positive_int"],
        "horizon": _RULES["positive"], "iters": _or_null(_RULES["positive_int"]),
        "algorithms": _nonempty_list(_ALGORITHM, "a non-empty list of " + _ALGORITHM[1]),
        "seeds": _nonempty_list(_RULES["nonnegative_int"],
                                "a non-empty list of non-negative integers"),
    },
    "consistency": {
        "recipe": None, "recipe_seed": _RULES["nonnegative_int"],
        "seeds_per_T": _RULES["positive_int"], "iters": _or_null(_RULES["positive_int"]),
        "T_grid": _nonempty_list(_RULES["positive"], "a non-empty list of finite numbers > 0"),
    },
    "recipe": _fields(experiments.SyntheticRecipe, **experiments._RECIPE_RULES),
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
            _require(key, value, keys[key])
    return doc


def load_config(path, require=("model", "init", "horizon")):
    """A simulate/fit config document, every section and key in it checked."""
    return _read("", _config, _load_json_object(path, ConfigError), require)


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
    """Build and validate HyperParams for the algorithm that runs; returns (hp, algorithm)."""
    opt = doc.get("optimizer", {})
    kwargs = {k: v for k, v in opt.items() if k != "algorithm"}
    if iters is not None:
        kwargs["max_iters"] = iters
    algorithm = algo or opt.get("algorithm", "aa-ipalm")
    hp = _read("optimizer", lambda: HyperParams(allow_noncompliant=allow_noncompliant, **kwargs))
    _read("optimizer", hp.validate, algorithm)
    return hp, algorithm


def experiment_from_config(path, command):
    """A ``benchmark`` or ``consistency`` config: (recipe, instance, kwargs).  ``kwargs``
    holds the other arguments the config sets for ``run_benchmark`` or
    ``run_consistency_study``; the rest keep those functions' defaults.  The instance is
    generated here, so a bad recipe fails before any stream is simulated."""
    return _read("", _experiment, _load_json_object(path, ConfigError), command)


def _experiment(doc, command):
    kwargs = dict(_section(doc, command))
    for key in ("algorithms", "seeds"):  # a repeat would run the same cells twice
        if key in kwargs:
            _require(key, kwargs[key], ((lambda v: len(set(v)) == len(v)), "distinct values"))
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
    """Order (time, type) rows as the samplers do, shift times to start at zero, write an
    event CSV.  A span past the largest double rebases to inf, which EventSequence refuses."""
    times, types = _by_time_type(np.fromiter((t for t, _ in rows), float, len(rows)),
                                 np.fromiter((k for _, k in rows), np.int64, len(rows)))
    with np.errstate(over="ignore"):
        times = times - times[:1]
    write_events(out_path, EventSequence(times, types, float(times[-1]) if times.size else 0.0))


def ingest_lobster(messages_path, mapping_path, out_path, max_bad_fraction=0.01):
    """Convert an order-book message CSV to the event format.

    Message rows are ``time,event_code,order_id,size,price,direction`` with
    direction +1 for bid/buy and -1 for ask/sell.  The mapping file is JSON
    from event-code strings to one of "L", "M", "C"; unmapped codes are
    dropped and counted.  Rows that fail to parse count as bad; more than
    ``max_bad_fraction`` of them aborts the ingestion; it must lie in [0, 1].
    """
    _require("max_bad_fraction", max_bad_fraction, _RULES["fraction"])
    code_map = _load_json_object(mapping_path, DataError)  # its keys are strings
    for code, letter in code_map.items():
        if letter not in ("L", "M", "C"):
            raise DataError(f"{mapping_path}: code {code!r} maps to {letter!r}, "
                            "expected one of L, M, C")

    rows, bad, unmapped = [], 0, 0
    total = 0
    with open(messages_path) as f:
        for _, line in _lines(f, 1):
            total += 1
            parts = line.split(",")
            # A row is bad when it is short or a field is malformed, when its
            # code is not an integral number ("1.0" is one; 1.9, NaN and inf
            # are not), or when its direction is not +1 or -1 ("-1e0" is one).
            try:
                t = _finite_time(parts[0])
                code, direction = float(parts[1]), float(parts[5])
                ok = code.is_integer() and direction in (1, -1)
            except (ValueError, IndexError):
                ok = False
            if not ok:
                bad += 1
                continue
            letter = code_map.get(str(int(code)))
            if letter is None:
                unmapped += 1
                continue
            rows.append((t, LOB_TYPE_INDEX[(letter, "b" if direction == 1 else "a")]))

    if total and bad / total > max_bad_fraction:
        raise DataError(f"{messages_path}: {bad}/{total} rows unparseable "
                        f"(threshold {max_bad_fraction})")
    _write_rebased(out_path, rows)
    return {"rows_read": total, "rows_written": len(rows), "rows_unmapped": unmapped,
            "rows_bad": bad}


def ingest_memetracker(posts_path, groups_path, out_path):
    """Convert a ``time,url`` posting log to the event format.

    The groups file is JSON from url (or url group) to a type index, an
    integer in [0, 2**63) (an event file's int64 type); posts with unmapped
    urls are dropped and counted.  Times are rebased to zero.
    """
    groups = _load_json_object(groups_path, DataError)
    for url, idx in groups.items():
        if not (type(idx) is int and 0 <= idx < 2**63):
            raise DataError(f"{groups_path}: url {url!r} maps to {idx!r}, "
                            "expected an integer in [0, 2**63)")

    rows, unmapped = [], 0
    with open(posts_path) as f:
        _header(posts_path, f, "time,url")
        for lineno, line in _lines(f, 2):
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
