"""Wire codec for the plan-serving service.

Three jobs, all deliberately boring:

- **request parsing** (:func:`parse_plan_request`): a ``POST /v1/plan``
  JSON body becomes a :class:`~repro.plan.engine.PlanRequest`, with
  every field validated up front so a malformed request dies as one
  HTTP 400 line instead of a stack trace halfway through an engine
  resolution.
- **content addressing** (:func:`plan_config`): the canonical config
  dict whose :meth:`~repro.plan.cache.PlanArtifactCache.key` is *the*
  identity of a served plan.  It folds in everything that determines
  the plan bytes — model digest, sense digest, the engine's curvature
  batch size, and the request's physics — so the warm cache, the
  single-flight coalescing map, and the ``GET /v1/plan/<key>`` fetch
  all agree on one key and can never serve each other stale data.
- **plan serialization** (:func:`plan_bytes` + the artifact codec):
  a resolved :class:`~repro.plan.engine.SelectionPlan` is canonical
  JSON, exactly ``json.dumps(plan.to_json(), sort_keys=True,
  separators=(",", ":"))`` encoded as UTF-8, and the ``plan`` cache
  artifact stores *those bytes* verbatim.  The order lists, nearly all
  of the bytes, are written by a NumPy digit encoder rather than by
  ``json.dumps``, which would hold the GIL for the whole list.  Warm
  responses are byte-identical to cold ones by construction — the
  server never re-serializes on the warm path, it replays.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace

import numpy as np

from repro.core.metrics import DEFAULT_NWC_TARGETS
from repro.plan.engine import PLANNED_METHODS, PlanRequest
from repro.robustness.errors import ScenarioConfigError

__all__ = [
    "PlanRequestError",
    "decode_plan_bytes",
    "encode_plan_bytes",
    "is_model_digest",
    "is_plan_key",
    "parse_plan_request",
    "plan_bytes",
    "plan_config",
    "split_plan_route",
]

#: Shape of a cache key as it appears in ``GET /v1/plan/<key>`` —
#: :func:`repro.plan.cache.artifact_key` emits 32 lowercase hex chars.
_KEY_PATTERN = re.compile(r"^[0-9a-f]{32}$")

#: Shape of a model digest as served in ``/v1/models`` and accepted in a
#: request's ``model`` routing field —
#: :func:`repro.plan.cache.model_digest` emits 16 lowercase hex chars.
_MODEL_DIGEST_PATTERN = re.compile(r"^[0-9a-f]{16}$")

#: Name of the single array inside a ``plan`` cache artifact: the
#: canonical JSON bytes of the resolved plan.
_PLAN_ARRAY = "plan_json"


class PlanRequestError(ScenarioConfigError):
    """A malformed ``/v1/plan`` request body (served as HTTP 400).

    A :class:`~repro.robustness.errors.ScenarioConfigError`, so the
    same failure raised outside the HTTP layer (e.g. from a script
    building requests) exits with the usage code 64.
    """


def is_plan_key(text):
    """Whether ``text`` is shaped like a cache key (32 hex chars)."""
    return bool(_KEY_PATTERN.match(text or ""))


def is_model_digest(text):
    """Whether ``text`` is shaped like a model digest (16 hex chars)."""
    return bool(_MODEL_DIGEST_PATTERN.match(text or ""))


def split_plan_route(body):
    """Split the routing fields off a ``POST /v1/plan`` body.

    Returns ``((workload, model), remainder)`` where ``remainder`` is
    the body re-encoded *without* the routing fields — the per-engine
    request the resolved :class:`~repro.serve.service.PlanService`
    parses.  Routing never reaches :func:`plan_config`, so a routed
    request's content key (and therefore its plan bytes) is identical
    to the same request POSTed to a single-workload server.

    Raises :class:`PlanRequestError` on a non-JSON body, a non-object
    body, an ill-typed routing field, or both fields set at once (a
    digest names exactly one workload — a request naming both is
    ambiguous the moment they disagree).
    """
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise PlanRequestError(
            f"request body is not valid JSON: {str(exc).splitlines()[0]}"
        ) from exc
    if not isinstance(data, dict):
        raise PlanRequestError(
            f"request body must be a JSON object, got {type(data).__name__}"
        )
    workload = data.pop("workload", None)
    if workload is not None and not isinstance(workload, str):
        raise PlanRequestError(
            f"workload must be a workload name, got {workload!r}"
        )
    model = data.pop("model", None)
    if model is not None and (
        not isinstance(model, str) or not is_model_digest(model)
    ):
        raise PlanRequestError(
            f"model must be a 16-hex model digest, got {model!r}"
        )
    if workload is not None and model is not None:
        raise PlanRequestError(
            "set workload or model, not both — a model digest already "
            "names its workload"
        )
    return (workload, model), json.dumps(data).encode("utf-8")


def _field(data, name, kinds, default, what):
    value = data.get(name, default)
    if value is not None and not isinstance(value, kinds):
        raise PlanRequestError(f"{name} must be {what}, got {value!r}")
    return value


def _number(data, name, default=None, minimum=None):
    value = _field(data, name, (int, float), default, "a number")
    if isinstance(value, bool):
        raise PlanRequestError(f"{name} must be a number, got {value!r}")
    if value is not None and minimum is not None and value < minimum:
        raise PlanRequestError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def _integer(data, name, default, minimum=1):
    value = data.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise PlanRequestError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise PlanRequestError(f"{name} must be >= {minimum}, got {value!r}")
    return value


_FIELDS = (
    "methods", "nwc_targets", "technology", "sigma", "read_time",
    "weight_bits", "device_bits", "curvature_batches", "wear_inflation",
    "wear_consumed",
)


def parse_plan_request(body):
    """A ``POST /v1/plan`` JSON body as a validated :class:`PlanRequest`.

    Every failure mode — non-JSON body, unknown fields, wrong types,
    unserved methods, unregistered technology, missing physics, a
    ``read_time`` before the technology's retention ``t0`` — raises
    :class:`PlanRequestError` with a single-line message.
    """
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise PlanRequestError(
            f"request body is not valid JSON: {str(exc).splitlines()[0]}"
        ) from exc
    if not isinstance(data, dict):
        raise PlanRequestError(
            f"request body must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - set(_FIELDS))
    if unknown:
        raise PlanRequestError(
            f"unknown request field(s) {unknown}; allowed: {sorted(_FIELDS)}"
        )

    methods = _field(data, "methods", (list, tuple),
                     list(PLANNED_METHODS), "a list of method names")
    if not methods:
        raise PlanRequestError("methods must not be empty")
    unplanned = sorted(set(methods) - set(PLANNED_METHODS))
    if unplanned:
        raise PlanRequestError(
            f"method(s) {unplanned} are not served; served: "
            f"{list(PLANNED_METHODS)}"
        )

    targets = _field(data, "nwc_targets", (list, tuple),
                     list(DEFAULT_NWC_TARGETS), "a list of budgets in [0, 1]")
    if not targets:
        raise PlanRequestError("nwc_targets must not be empty")
    for target in targets:
        if isinstance(target, bool) or not isinstance(target, (int, float)) \
                or not 0.0 <= target <= 1.0:
            raise PlanRequestError(
                f"nwc_targets entries must be numbers in [0, 1], got "
                f"{target!r}"
            )

    technology = _field(data, "technology", (str,), None,
                        "a registered technology name")
    if technology is not None:
        from repro.cim import resolve_technology

        try:
            resolve_technology(technology)
        except KeyError as exc:
            raise PlanRequestError(
                f"unknown technology {technology!r}"
            ) from exc

    sigma = _number(data, "sigma", minimum=0.0)
    if technology is None and sigma is None:
        raise PlanRequestError(
            "request must set a technology or an explicit sigma"
        )

    fields = dict(
        methods=tuple(str(m) for m in methods),
        nwc_targets=tuple(float(t) for t in targets),
        technology=technology,
        sigma=None if sigma is None else float(sigma),
        read_time=_number(data, "read_time", minimum=0.0),
        weight_bits=_integer(data, "weight_bits", 4),
        device_bits=_integer(data, "device_bits", 4),
        curvature_batches=_integer(data, "curvature_batches", 2),
        wear_inflation=float(_number(data, "wear_inflation", 1.0, minimum=0.0)),
        wear_consumed=_number(data, "wear_consumed", minimum=0.0),
    )
    try:
        return PlanRequest(**fields)
    except ScenarioConfigError as exc:  # e.g. a read_time before t0
        raise PlanRequestError(str(exc)) from exc


def plan_config(engine, request):
    """The canonical content address of one served plan.

    The request's canonical form (:meth:`~repro.plan.engine.PlanRequest.
    config`, which a scenario's eval tiles key on too) plus the engine
    parameters that shape the result (model/sense digests, curvature
    batch size), so two servers over the same model agree on every key.
    """
    return {
        "model": engine._model_digest,
        "sense": engine._sense_digest,
        "workload": engine.workload,
        "curvature_batch_size": int(engine.curvature_batch_size),
        "request": request.config(),
    }


def _json_int_list(values):
    """``json.dumps(values.tolist(), separators=(",", ":"))`` as bytes,
    for a flat integer vector, built in NumPy.

    Each entry becomes one row of a character matrix (sign, digits,
    comma), and one boolean compress drops the absent sign, the leading
    zeros and the final comma.  Raises ``TypeError`` on a float or
    ``uint64`` vector, whose JSON this does not write.
    """
    values = np.asarray(values).astype(np.int64, casting="safe", copy=False)
    if values.size == 0:
        return b"[]"
    rest = np.abs(values).view(np.uint64)  # exact for the int64 minimum too
    width = len(str(int(rest.max())))
    if width < 10:  # uint32 division runs about twice as fast
        rest = rest.astype(np.uint32)
    chars = np.empty((values.size, width + 2), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    chars[:, 0] = ord("-")
    np.less(values, 0, out=keep[:, 0])
    for column in range(width, 0, -1):
        np.not_equal(rest, 0, out=keep[:, column])
        quotient = rest // 10
        digit = rest - quotient * 10
        digit += ord("0")
        chars[:, column] = digit
        rest = quotient
    keep[:, width] = True  # the units digit, also of a zero
    chars[:, -1] = ord(",")
    keep[:, -1] = True
    keep[-1, -1] = False
    return b"[" + np.compress(keep.ravel(), chars.ravel()).tobytes() + b"]"


def plan_bytes(plan, encoded=None):
    """A resolved plan as canonical JSON bytes (the response body).

    Exactly ``json.dumps(plan.to_json(), sort_keys=True,
    separators=(",", ":")).encode()``.  The orders are written by
    :func:`_json_int_list` and spliced into the JSON of the plan's other
    fields, in place of one placeholder string per method; the plan is
    not modified.

    ``encoded`` (optional) maps a method to ``(order, order_json)`` from
    an earlier call: an order that is the same array object reuses its
    JSON, and the dict is left holding this plan's encodings only.  The
    plan cache hands out the same immutable order arrays for every read
    time (``swim``, ``magnitude``), so a caller that keeps the dict
    encodes each of those once.
    """
    data = replace(plan, orders={}).to_json()
    # NUL-led, which no method name or model digest (the strings that
    # sort before "orders") holds.
    marks = {method: f"\x00{i}" for i, method in enumerate(plan.orders)}
    data["orders"] = marks
    rest = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    memo = encoded if encoded is not None else {}
    fresh = {}
    parts = []
    for method in sorted(marks):
        order = plan.orders[method]
        old_order, order_json = memo.get(method, (None, None))
        if old_order is not order:
            order_json = _json_int_list(order)
        fresh[method] = (order, order_json)
        head, _, rest = rest.partition(json.dumps(marks[method]).encode())
        parts += [head, order_json]
    parts.append(rest)
    memo.clear()
    memo.update(fresh)
    return b"".join(parts)


def encode_plan_bytes(data):
    """Plan bytes as a cacheable ``name -> array`` artifact dict."""
    return {_PLAN_ARRAY: np.frombuffer(data, dtype=np.uint8).copy()}


def decode_plan_bytes(arrays):
    """The stored canonical plan bytes of one ``plan`` artifact."""
    return arrays[_PLAN_ARRAY].tobytes()
