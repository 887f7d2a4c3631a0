"""File formats: event CSV, parameter JSON, trace CSV, config JSON, ingestion.

Event files are CSV with the exact header ``time,type``: times are seconds
from stream start, types are integers in [0, K).  Parameter files are JSON
documents with keys mu, alpha ([m][i][j]), beta, kernels, objective, meta.
Floats are written with ``repr``, so every file parses back losslessly.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np

from .model import BoxDomain, Exponential, ModelSpec, ParamVector, PowerLawCutoff
from .optim import RUNNERS, HyperParams
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
    "hyperparams_from_config",
    "kernels_to_json",
    "kernels_from_json",
    "ingest_lobster",
    "ingest_memetracker",
]


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


class DataError(ValueError):
    """Malformed data file (event CSV, message CSV, mapping), or a stream
    whose power-law pair list would exceed ``likelihood._PAIR_BUDGET``."""


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
    out = []
    for k in kernels:
        if k.name == "exponential":
            out.append({"family": "exponential"})
        elif k.name == "powerlaw":
            out.append({"family": "powerlaw", "c": k.c})
        else:
            raise ConfigError(f"unknown kernel family {k.name!r}")
    return out


def kernels_from_json(entries):
    kernels = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "family" not in entry:
            raise ConfigError(f"kernels[{i}]: expected an object with a 'family' key")
        fam = entry["family"]
        if fam == "exponential":
            _reject_unknown(entry, {"family"}, f"kernels[{i}]")
            kernels.append(Exponential())
        elif fam == "powerlaw":
            _reject_unknown(entry, {"family", "c"}, f"kernels[{i}]")
            kernels.append(PowerLawCutoff(float(entry.get("c", 0.05))))
        else:
            raise ConfigError(f"kernels[{i}]: unknown family {fam!r}")
    return kernels


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
    doc = _load_json_object(path)
    _reject_unknown(doc, {*_INIT_KEYS, "kernels", "objective", "meta"}, "params")
    try:
        params = ParamVector(**{k: doc[k] for k in _INIT_KEYS})
        kernels = kernels_from_json(doc.get("kernels", []))
        spec = ModelSpec(K=params.K, M=params.M, kernels=kernels)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
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

def _field_names(cls):
    return tuple(f.name for f in fields(cls))


_TOP_KEYS = {"model", "domain", "init", "regularization", "optimizer", "horizon"}
_MODEL_KEYS = {"K", "M", "kernels"}
# The domain, init and optimizer sections are the dataclasses' own fields, in
# field order; allow_noncompliant is a command-line flag, not a config key.
_DOMAIN_KEYS = _field_names(BoxDomain)
_INIT_KEYS = _field_names(ParamVector)
_REG_KEYS = {"C"}
_OPT_KEYS = {"algorithm", *_field_names(HyperParams)} - {"allow_noncompliant"}


def _reject_unknown(doc, allowed, where):
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _load_json_object(path):
    """A JSON file's top-level object (config or params), or a ConfigError."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def load_config(path, require=("model", "init", "horizon")):
    doc = _load_json_object(path)
    _reject_unknown(doc, _TOP_KEYS, path)
    for section in require:
        if section not in doc:
            raise ConfigError(f"{path}: missing required section {section!r}")
    if "model" in doc:
        _reject_unknown(doc["model"], _MODEL_KEYS, "model")
    if "domain" in doc:
        _reject_unknown(doc["domain"], _DOMAIN_KEYS, "domain")
    if "init" in doc:
        _reject_unknown(doc["init"], _INIT_KEYS, "init")
    if "regularization" in doc:
        _reject_unknown(doc["regularization"], _REG_KEYS, "regularization")
    if "optimizer" in doc:
        _reject_unknown(doc["optimizer"], _OPT_KEYS, "optimizer")
    return doc


def spec_from_config(doc):
    model = doc["model"]
    try:
        kernels = kernels_from_json(model["kernels"])
        return ModelSpec(K=int(model["K"]), M=int(model["M"]), kernels=kernels)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from None


def domain_from_config(doc, spec):
    d = doc["domain"]
    try:
        domain = BoxDomain(**{k: d[k] for k in _DOMAIN_KEYS})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"domain: {exc}") from None
    if (domain.K, domain.M) != (spec.K, spec.M):
        raise ConfigError("domain: bound shapes do not match the model spec")
    domain.validate_kernels(spec)
    return domain


def init_from_config(doc, spec):
    init = doc["init"]
    try:
        pv = ParamVector(**{k: init[k] for k in _INIT_KEYS})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"init: {exc}") from None
    if (pv.K, pv.M) != (spec.K, spec.M):
        raise ConfigError("init: parameter shapes do not match the model spec")
    return pv


def hyperparams_from_config(doc, allow_noncompliant=False, algo=None, iters=None):
    """Build HyperParams from the optimizer section; returns (hp, algorithm)."""
    opt = dict(doc.get("optimizer", {}))
    algorithm = algo or opt.pop("algorithm", "aa-ipalm")
    if algorithm not in tuple(RUNNERS):  # a tuple: JSON values may be unhashable
        raise ConfigError(f"optimizer: unknown algorithm {algorithm!r}")
    kwargs = {k: v for k, v in opt.items() if k != "algorithm"}
    if iters is not None:
        kwargs["max_iters"] = int(iters)
    try:
        hp = HyperParams(allow_noncompliant=allow_noncompliant, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"optimizer: {exc}") from None
    return hp, algorithm


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
