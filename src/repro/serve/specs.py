"""JSON experiment specs for the farm server.

The wire format is a small JSON object naming the experiment by the
same dimensions the CLI exposes.  ``POST /jobs`` takes the general
form::

    {"workload": "water", "protocol": "DirnH5SNB", "nodes": 64,
     "software": "flexible", "victim_cache": true,
     "workload_kwargs": {}}

and ``POST /analyze`` mirrors ``repro analyze`` exactly (same field
names, same defaults — both sides read
:data:`repro.analysis.reportgen.ANALYZE_DEFAULTS`), which is what makes
the server's analyze artifact byte-identical to the CLI's.

Specs are validated *strictly*: unknown fields are a 400, not silently
ignored — a typo like ``"node": 32`` must not run a 64-node default
experiment and cache it as if it were the requested one.  Validation
happens before anything is scheduled, so a bad spec never reaches the
farm, the cache, or the fleet log.
"""

from __future__ import annotations

import inspect
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple, Type

from repro.analysis.experiments import APPLICATIONS
from repro.analysis.reportgen import ANALYZE_DEFAULTS, analyze_config
from repro.common.errors import ConfigurationError
from repro.core.spec import ProtocolSpec
from repro.exec.jobs import SimJob, make_job
from repro.workloads.base import Workload
from repro.workloads.worker import WorkerBenchmark

#: Schema tag carried by every structured server response.
SERVE_SCHEMA = "repro-serve/1"

_INVALIDATION_MODES = ("parallel", "sequential", "dynamic")
_SOFTWARE_MODES = ("flexible", "optimized")

_JOB_FIELDS = (
    "workload", "workload_kwargs", "protocol", "nodes",
    "victim_cache", "perfect_ifetch", "software",
    "track_worker_sets", "attribution", "invalidation_mode",
)

_ANALYZE_FIELDS = tuple(sorted(ANALYZE_DEFAULTS))


class SpecError(ValueError):
    """A request spec that cannot describe a valid experiment."""


def workload_registry() -> "OrderedDict[str, Type[Workload]]":
    """Every workload the server accepts, by wire name.

    The six paper applications plus the synthetic ``worker`` benchmark
    (the workload ``repro analyze`` studies).
    """
    registry: "OrderedDict[str, Type[Workload]]" = OrderedDict(APPLICATIONS)
    registry["worker"] = WorkerBenchmark
    return registry


def _require(doc: Mapping[str, Any], allowed: Tuple[str, ...],
             what: str) -> None:
    unknown = [key for key in sorted(doc) if key not in allowed]
    if unknown:
        raise SpecError(
            f"unknown {what} field(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(allowed)})")


def _int_field(doc: Mapping[str, Any], name: str, default: int,
               minimum: int = 1) -> int:
    value = doc.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise SpecError(f"{name} must be >= {minimum}, got {value}")
    return value


def _bool_field(doc: Mapping[str, Any], name: str, default: bool) -> bool:
    value = doc.get(name, default)
    if not isinstance(value, bool):
        raise SpecError(f"{name} must be a boolean, got {value!r}")
    return value


def _choice_field(doc: Mapping[str, Any], name: str, default: str,
                  choices: Tuple[str, ...]) -> str:
    value = doc.get(name, default)
    if value not in choices:
        raise SpecError(
            f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _protocol_field(doc: Mapping[str, Any], default: str) -> str:
    value = doc.get("protocol", default)
    if not isinstance(value, str):
        raise SpecError(f"protocol must be a string, got {value!r}")
    try:
        ProtocolSpec.parse(value)
    except Exception as exc:  # noqa: BLE001 - any parse failure is a 400
        raise SpecError(str(exc))
    return value


def _kwargs_field(doc: Mapping[str, Any],
                  workload_cls: Type[Workload]) -> Dict[str, Any]:
    kwargs = doc.get("workload_kwargs", {})
    if not isinstance(kwargs, dict):
        raise SpecError(
            f"workload_kwargs must be an object, got {kwargs!r}")
    for key, value in sorted(kwargs.items()):
        if not isinstance(key, str):
            raise SpecError(f"workload_kwargs keys must be strings")
        if isinstance(value, (dict, list)):
            raise SpecError(
                f"workload_kwargs[{key!r}] must be a scalar, got {value!r}")
    # Bind against the constructor signature now so a typo fails the
    # request instead of a worker process minutes later.
    try:
        inspect.signature(workload_cls.__init__).bind(None, **kwargs)
    except TypeError as exc:
        raise SpecError(f"workload_kwargs: {exc}")
    return dict(kwargs)


def _make_job(*args: Any, **kwargs: Any) -> SimJob:
    """:func:`make_job`, reporting an impossible machine (say, a node
    count that is not a square) as a :class:`SpecError`."""
    try:
        return make_job(*args, **kwargs)
    except ConfigurationError as exc:
        raise SpecError(str(exc)) from None


def job_from_spec(doc: Any) -> SimJob:
    """Turn a ``POST /jobs`` body into a :class:`SimJob`.

    Raises :class:`SpecError` (mapped to HTTP 400) on anything that
    does not describe a valid experiment.
    """
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    _require(doc, _JOB_FIELDS, "spec")
    registry = workload_registry()
    name = doc.get("workload")
    if name not in registry:
        known = ", ".join(registry)
        raise SpecError(f"unknown workload {name!r} (known: {known})")
    workload_cls = registry[name]
    return _make_job(
        workload_cls,
        _kwargs_field(doc, workload_cls),
        protocol=_protocol_field(doc, "DirnH5SNB"),
        n_nodes=_int_field(doc, "nodes", 64),
        victim_cache=_bool_field(doc, "victim_cache", True),
        perfect_ifetch=_bool_field(doc, "perfect_ifetch", False),
        software=_choice_field(doc, "software", "flexible",
                               _SOFTWARE_MODES),
        track_worker_sets=_bool_field(doc, "track_worker_sets", False),
        attribution=_bool_field(doc, "attribution", False),
        invalidation_mode=_choice_field(doc, "invalidation_mode",
                                        "parallel", _INVALIDATION_MODES),
    )


def analyze_request(doc: Any) -> Tuple[SimJob, Dict[str, Any]]:
    """Turn a ``POST /analyze`` body into a job plus report config.

    Field names, defaults, and the returned config dict all match
    ``repro analyze`` (:data:`ANALYZE_DEFAULTS` is the single source of
    truth), so rendering the resulting stats through
    :func:`repro.analysis.reportgen.analyze_doc` reproduces the CLI
    artifact byte for byte.
    """
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise SpecError("analyze spec must be a JSON object")
    _require(doc, _ANALYZE_FIELDS, "analyze spec")
    registry = workload_registry()
    app = _choice_field(doc, "app", str(ANALYZE_DEFAULTS["app"]),
                        tuple(registry))
    protocol = _protocol_field(doc, str(ANALYZE_DEFAULTS["protocol"]))
    nodes = _int_field(doc, "nodes", int(ANALYZE_DEFAULTS["nodes"]))
    size = _int_field(doc, "size", int(ANALYZE_DEFAULTS["size"]))
    iterations = _int_field(doc, "iterations",
                            int(ANALYZE_DEFAULTS["iterations"]))
    software = _choice_field(doc, "software",
                             str(ANALYZE_DEFAULTS["software"]),
                             _SOFTWARE_MODES)
    victim_cache = _bool_field(doc, "victim_cache",
                               bool(ANALYZE_DEFAULTS["victim_cache"]))
    perfect_ifetch = _bool_field(doc, "perfect_ifetch",
                                 bool(ANALYZE_DEFAULTS["perfect_ifetch"]))
    invalidation_mode = _choice_field(
        doc, "invalidation_mode", str(ANALYZE_DEFAULTS["invalidation_mode"]),
        _INVALIDATION_MODES)
    if app == "worker":
        kwargs: Dict[str, Any] = {"worker_set_size": size,
                                  "iterations": iterations}
    else:
        kwargs = {}
    job = _make_job(
        registry[app],
        kwargs,
        protocol=protocol,
        n_nodes=nodes,
        victim_cache=victim_cache,
        perfect_ifetch=perfect_ifetch,
        software=software,
        attribution=True,
        invalidation_mode=invalidation_mode,
    )
    config = analyze_config(app, protocol, nodes, software,
                            invalidation_mode,
                            worker_set_size=size, iterations=iterations)
    return job, config
