"""Batched selection planning: one curvature pass serves a whole grid.

The scenario runners sweep grids — read times, correlation lengths,
sigmas, technologies — and each grid point needs a resolved selection
order per method.  Before this subsystem every point paid its own
sensitivity pass even though the curvature diagonal depends only on
(model, sense set), not on the device physics of the point.  The
:class:`PlanEngine` splits planning into cacheable pure stages:

- **curvature** (model, sense set, scorer parameters) — the expensive
  second-derivative accumulation, shared by ``swim`` and
  ``hetero_swim`` across *every* grid point;
- **variance** (model, technology/stack dict, read time, wear) — the
  analytic per-weight ``E[dw^2]`` map, one per distinct physics point;
- **order** (curvature x variance x method) — the resolved descending
  ranking, which is what a deployment actually consumes (the ablations
  add ``untied_swim``, ``fisher`` and ``gradient`` to the sweeps'
  ``swim``, ``hetero_swim`` and ``magnitude``).

Each stage is content-addressed in a :class:`~repro.plan.cache.
PlanArtifactCache`, so a warm re-plan of a whole retention grid is a
handful of disk reads, and a batch of :class:`PlanRequest`\\ s
deduplicates shared stages naturally: planning N read times costs one
curvature pass, N variance passes, and N rankings.

The resolved :class:`SelectionPlan` is a standalone artifact and the
sweep's one input besides its Monte Carlo envelope:
:func:`~repro.experiments.sweeps.run_method_sweep` deploys it, so this
engine is the only producer of orders.  A plan round-trips through
JSON for offline reuse (:func:`save_plans` / :func:`load_plans`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.metrics import DEFAULT_NWC_TARGETS
from repro.obs.trace import span
from repro.core.selection import WeightSpace, rank_descending
from repro.core.sensitivity import (
    FisherScorer,
    GradientScorer,
    MagnitudeScorer,
    SwimScorer,
)
from repro.plan.cache import (
    PLAN_CACHE_VERSION,
    PlanArtifactCache,
    data_digest,
    model_digest,
)
from repro.robustness.errors import ScenarioConfigError

__all__ = [
    "PLANNED_METHODS",
    "PlanEngine",
    "PlanRequest",
    "SelectionPlan",
    "build_engine",
    "load_plans",
    "resolve_physics",
    "save_plans",
]

#: The methods a request plans by default and the plan service serves.
#: ``random`` re-draws per trial and ``insitu`` trains on-chip; neither
#: has a plan.
PLANNED_METHODS = ("swim", "hetero_swim", "magnitude")
_RANKED_METHODS = PLANNED_METHODS + ("untied_swim", "fisher", "gradient")


def resolve_physics(technology, sigma, weight_bits, device_bits,
                    differential=False):
    """``(technology, device, mapping, stack)`` of one physics point.

    The one derivation behind :meth:`PlanRequest.resolve` (the physics
    a plan ranks under) and :meth:`SelectionPlan.resolve` (the physics
    the sweep deploys under).  A registered technology name or instance
    supplies the cell and its full nonideality stack, ``sigma``
    overriding its programming noise; without one, a plain
    ``device_bits``-bit cell at ``sigma`` and no stack (the
    accelerator's paper-default i.i.d. stack).
    """
    from repro.cim import DeviceConfig, MappingConfig, resolve_technology

    if technology is not None:
        tech = resolve_technology(technology)
        device = tech.device_config()
        if sigma is not None:
            device = device.with_sigma(sigma)
        stack = tech.build_stack()
    else:
        tech = None
        device = DeviceConfig(bits=device_bits, sigma=sigma)
        stack = None
    mapping = MappingConfig(weight_bits=weight_bits, device=device,
                            differential=differential)
    return tech, device, mapping, stack


@dataclass(frozen=True)
class PlanRequest:
    """One grid point's planning inputs.

    Attributes
    ----------
    methods:
        Sweep methods; all but ``random`` and ``insitu`` are resolved
        into orders.
    nwc_targets:
        The NWC budget grid; the plan resolves one selection count per
        budget.
    technology:
        Registered :class:`~repro.cim.DeviceTechnology` name or
        instance, or None for the paper's plain-sigma setting.
    sigma:
        Device sigma override (required when ``technology`` is None).
    read_time:
        Seconds since programming at which the deployment is read;
        feeds the drift-aware variance map for ``hetero_swim``.
    weight_bits / device_bits:
        Workload quantization bits M, and cell bits K when no
        technology supplies them.
    curvature_batches:
        Batches accumulated in the shared curvature pass.
    wear_inflation:
        Manual programming-noise variance multiplier (1.0 = fresh).
    wear_consumed:
        Endurance consumed fraction; when set (and ``wear_inflation``
        is left at 1.0) the inflation is derived from the technology's
        sigma-growth-vs-cycling curve — see
        :meth:`~repro.cim.devices.EnduranceModel.wear_inflation`.
    differential:
        Map each weight onto a differential column pair.
    """

    methods: tuple = PLANNED_METHODS
    nwc_targets: tuple = DEFAULT_NWC_TARGETS
    technology: object = None
    sigma: float = None
    read_time: float = None
    weight_bits: int = 4
    device_bits: int = 4
    curvature_batches: int = 2
    wear_inflation: float = 1.0
    wear_consumed: float = None
    differential: bool = False

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "nwc_targets", tuple(self.nwc_targets))
        if self.read_time is not None and "insitu" in self.methods:
            # In-situ training has no deployment-time read; refusing here
            # makes the combination a usage error before any planning.
            raise ScenarioConfigError(
                "the insitu baseline does not support read_time"
            )
        if self.read_time is not None and self.technology is not None:
            from repro.cim import resolve_technology

            retention = resolve_technology(self.technology).retention_model()
            if retention is not None and self.read_time < retention.t0:
                # The drift model reads no earlier than its reference
                # time; refusing here keeps the variance stage from
                # failing halfway through a resolution.
                raise ScenarioConfigError(
                    f"read_time must be >= the technology's retention "
                    f"t0={retention.t0:g} s, got {self.read_time!r}"
                )

    def resolve(self):
        """``(technology, device, mapping, stack)`` through
        :func:`resolve_physics`, the derivation the sweep deploys
        the resolved plan under."""
        return resolve_physics(
            self.technology, self.sigma, self.weight_bits, self.device_bits,
            self.differential,
        )

    def config(self):
        """The request's canonical JSON form, for content addresses.

        Technology instances enter through their ``to_dict`` form and
        budgets as floats, so a scenario's eval tiles and the plan
        service key the same request identically; ``differential``
        enters only when set, so no earlier key moves.
        """
        technology = self.technology
        if technology is not None:
            from repro.cim import resolve_technology

            technology = resolve_technology(technology).to_dict()
        config = {
            "methods": list(self.methods),
            "nwc_targets": [float(t) for t in self.nwc_targets],
            "technology": technology,
            "sigma": self.sigma,
            "read_time": self.read_time,
            "weight_bits": int(self.weight_bits),
            "device_bits": int(self.device_bits),
            "curvature_batches": int(self.curvature_batches),
            "wear_inflation": float(self.wear_inflation),
            "wear_consumed": self.wear_consumed,
        }
        if self.differential:
            config["differential"] = True
        return config

    def effective_wear_inflation(self, technology=None):
        """The variance multiplier this request plans for.

        The manual ``wear_inflation`` knob overrides; otherwise a
        ``wear_consumed`` fraction is run through the technology's
        endurance curve (fresh devices when neither is set).
        """
        if self.wear_inflation != 1.0 or self.wear_consumed is None:
            return float(self.wear_inflation)
        if technology is None:
            technology, _, _, _ = self.resolve()
        if technology is None:
            return 1.0
        return technology.endurance_model().wear_inflation(self.wear_consumed)


@dataclass
class SelectionPlan:
    """A resolved, deployable selection for one grid point.

    ``orders`` maps each planned method to its full descending flat
    ranking over the model's weight space; ``counts`` aligns with
    ``nwc_targets`` (weights selected at each budget).  The plan is
    model-content-bound: the sweep refuses a model whose weight space
    has another size than ``total_weights``.
    """

    workload: str
    methods: tuple
    nwc_targets: tuple
    counts: tuple
    orders: dict = field(default_factory=dict)
    technology: object = None
    sigma: float = None
    read_time: float = None
    weight_bits: int = 4
    device_bits: int = 4
    total_weights: int = 0
    wear_inflation: float = 1.0
    model: str = ""
    cache_version: int = PLAN_CACHE_VERSION
    differential: bool = False

    def resolve(self):
        """``(technology, device, mapping, stack)`` the plan deploys
        under, through :func:`resolve_physics` like the request it was
        resolved from."""
        return resolve_physics(
            self.technology, self.sigma, self.weight_bits, self.device_bits,
            self.differential,
        )

    def order(self, method):
        """The resolved descending ranking of one method."""
        if method not in self.orders:
            raise KeyError(
                f"plan has no order for {method!r}; planned: "
                f"{sorted(self.orders)}"
            )
        return self.orders[method]

    # -------------------------------------------------------- serialization

    def to_json(self):
        """JSON-serializable dict (round-trips via :meth:`from_json`)."""
        technology = self.technology
        if technology is not None and not isinstance(technology, str):
            technology = technology.to_dict()
        data = {
            "workload": self.workload,
            "methods": list(self.methods),
            "nwc_targets": list(self.nwc_targets),
            "counts": [int(c) for c in self.counts],
            "orders": {
                method: np.asarray(order).tolist()
                for method, order in self.orders.items()
            },
            "technology": technology,
            "sigma": self.sigma,
            "read_time": self.read_time,
            "weight_bits": int(self.weight_bits),
            "device_bits": int(self.device_bits),
            "total_weights": int(self.total_weights),
            "wear_inflation": float(self.wear_inflation),
            "model": self.model,
            "cache_version": int(self.cache_version),
        }
        if self.differential:
            data["differential"] = True
        return data

    @classmethod
    def from_json(cls, data):
        """Rebuild a plan from :meth:`to_json` output."""
        technology = data.get("technology")
        if isinstance(technology, dict):
            from repro.cim import DeviceTechnology

            technology = DeviceTechnology.from_dict(technology)
        return cls(
            workload=data["workload"],
            methods=tuple(data["methods"]),
            nwc_targets=tuple(data["nwc_targets"]),
            counts=tuple(int(c) for c in data["counts"]),
            orders={
                method: np.asarray(order, dtype=np.int64)
                for method, order in data["orders"].items()
            },
            technology=technology,
            sigma=data.get("sigma"),
            read_time=data.get("read_time"),
            weight_bits=int(data.get("weight_bits", 4)),
            device_bits=int(data.get("device_bits", 4)),
            total_weights=int(data.get("total_weights", 0)),
            wear_inflation=float(data.get("wear_inflation", 1.0)),
            model=data.get("model", ""),
            cache_version=int(data.get("cache_version", PLAN_CACHE_VERSION)),
            differential=bool(data.get("differential", False)),
        )


def save_plans(path, plans):
    """Write a ``cell key -> SelectionPlan`` mapping as one JSON file.

    Cell keys are stringified with ``repr`` (scenario keys are names or
    (name, value) tuples); :func:`load_plans` returns them as written.
    """
    payload = {
        "cache_version": PLAN_CACHE_VERSION,
        "plans": [
            {"cell": repr(key), "plan": plan.to_json()}
            for key, plan in plans.items()
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def load_plans(path):
    """Load :func:`save_plans` output: ``cell repr -> SelectionPlan``."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return {
        entry["cell"]: SelectionPlan.from_json(entry["plan"])
        for entry in payload["plans"]
    }


class PlanEngine:
    """Resolves batched :class:`PlanRequest`\\ s against one model.

    Parameters
    ----------
    model:
        The trained network the plans select over.
    sense_x / sense_y:
        The sensitivity data (training subset — rankings must never see
        the evaluation set).
    workload:
        Label stored on emitted plans.
    cache:
        A :class:`~repro.plan.cache.PlanArtifactCache` (default: the
        shared on-disk cache under ``$REPRO_CACHE_DIR``).
    curvature_batch_size:
        Batch size of the curvature accumulation (default
        ``min(256, len(sense_x))``, as :meth:`from_zoo` sets it).

    Attributes
    ----------
    stats:
        ``{"curvature_passes", "variance_passes", "ranking_passes",
        "plans"}`` — producer-side counters; a warm cache keeps all of
        the pass counters at zero.

    An engine must not be called from two threads at once: its curvature
    pass runs forward and backward through the engine's one model, whose
    layers keep activations between the two, so overlapping passes
    compute (and cache) wrong vectors.  The plan service gives each
    engine one resolution thread for this reason.
    """

    def __init__(self, model, sense_x, sense_y, workload="", cache=None,
                 curvature_batch_size=None):
        self.model = model
        self.space = WeightSpace.from_model(model)
        self.sense_x = sense_x
        self.sense_y = sense_y
        self.workload = workload
        self.cache = cache if cache is not None else PlanArtifactCache()
        self.curvature_batch_size = int(
            curvature_batch_size
            if curvature_batch_size is not None
            else min(256, len(sense_x))
        )
        self.stats = {
            "curvature_passes": 0,
            "variance_passes": 0,
            "ranking_passes": 0,
            "plans": 0,
        }
        self._model_digest = model_digest(model)
        self._sense_digest = data_digest(
            np.asarray(sense_x), np.asarray(sense_y)
        )

    @classmethod
    def from_zoo(cls, zoo, sense_samples=512, cache=None):
        """An engine over a zoo workload: its model, and its first
        ``sense_samples`` training examples as the sense set, with the
        curvature batch size capped at 256 — the one construction
        behind every scenario and the plan service."""
        return cls(
            zoo.model,
            zoo.data.train_x[:sense_samples],
            zoo.data.train_y[:sense_samples],
            workload=zoo.spec.key,
            cache=cache,
            curvature_batch_size=min(256, int(sense_samples)),
        )

    # ---------------------------------------------------------- stage configs

    def _curvature_config(self, curvature_batches):
        return {
            "model": self._model_digest,
            "sense": self._sense_digest,
            "batch_size": self.curvature_batch_size,
            "max_batches": int(curvature_batches),
        }

    def _variance_config(self, request, technology, mapping, stack):
        # Without a stack the map is the default stack's read-after-write,
        # unworn Eq. 16 map, so the key holds the time and wear it applies;
        # a stack without read stages ignores the read time, as
        # CimAccelerator does.
        drifts = stack is not None and stack.has_read_stages
        return {
            "model": self._model_digest,
            "technology": technology.to_dict() if technology else None,
            "sigma": request.sigma,
            "weight_bits": int(mapping.weight_bits),
            "device_bits": int(mapping.device.bits),
            "differential": bool(mapping.differential),
            "read_time": request.read_time if drifts else None,
            "wear_inflation": (
                request.effective_wear_inflation(technology)
                if stack is not None else 1.0
            ),
        }

    # ------------------------------------------------------------ pure stages

    def curvature(self, curvature_batches=2):
        """The shared curvature pass: ``(scores, tie)`` flat vectors.

        Cached on (model digest, sense digest, scorer parameters), so a
        whole scenario grid — and every later warm re-plan — costs one
        second-derivative accumulation.
        """
        config = self._curvature_config(curvature_batches)

        def produce():
            with span("plan.curvature", batches=int(curvature_batches)):
                self.stats["curvature_passes"] += 1
                scorer = SwimScorer(
                    batch_size=self.curvature_batch_size,
                    max_batches=int(curvature_batches),
                )
                return {
                    "scores": scorer.scores(
                        self.model, self.space, self.sense_x, self.sense_y
                    ),
                    "tie": scorer.tie_break(self.model, self.space),
                }

        arrays = self.cache.get_or_create("curvature", config, produce)
        return arrays["scores"], arrays["tie"]

    def variance(self, request, resolved=None):
        """The per-weight ``E[dw^2]`` map of one request's physics point."""
        technology, _, mapping, stack = (
            resolved if resolved is not None else request.resolve()
        )
        config = self._variance_config(request, technology, mapping, stack)

        def produce():
            with span("plan.variance", read_time=request.read_time):
                self.stats["variance_passes"] += 1
                if stack is not None:
                    variance = stack.variance_map(
                        mapping, self.space, self.model,
                        read_time=request.read_time,
                        wear_inflation=config["wear_inflation"],
                    )
                else:
                    from repro.cim import NonidealityStack

                    # The paper's plain-sigma setting: the constant
                    # per-tensor Eq. 16 map, read after write and unworn.
                    variance = NonidealityStack.default().variance_map(
                        mapping, self.space, self.model
                    )
                return {"variance": variance}

        return self.cache.get_or_create("variance", config, produce)["variance"]

    # -------------------------------------------------------------- planning

    def _order(self, method, request, resolved):
        """The cached descending ranking of one (method, request) pair.

        Order artifacts are keyed on the *configs* of their inputs (not
        the arrays), so a warm hit loads the ranking without touching
        the curvature or variance stages at all.
        """
        technology, _, mapping, stack = resolved
        batches = request.curvature_batches
        if method in ("swim", "untied_swim", "hetero_swim"):
            config = {"method": method,
                      "curvature": self._curvature_config(batches)}
            if method == "hetero_swim":
                config["variance"] = self._variance_config(
                    request, technology, mapping, stack
                )

            def rank():
                scores, tie = self.curvature(batches)
                if method == "hetero_swim":
                    scores = scores * self.variance(request, resolved)
                return rank_descending(
                    scores, None if method == "untied_swim" else tie
                )

        elif method in ("magnitude", "fisher", "gradient"):
            scorer = {"magnitude": MagnitudeScorer, "fisher": FisherScorer,
                      "gradient": GradientScorer}[method]()
            config = {"method": method, "model": self._model_digest}
            if method != "magnitude":  # the first-order scorers read data
                config["sense"] = self._sense_digest

            def rank():
                return scorer.ranking(
                    self.model, self.space, self.sense_x, self.sense_y
                )

        else:
            raise KeyError(
                f"method {method!r} has no deterministic plan; plannable: "
                f"{_RANKED_METHODS}"
            )

        def produce():
            self.stats["ranking_passes"] += 1
            return {"order": rank()}

        with span("plan.order", method=method):
            return self.cache.get_or_create("order", config, produce)["order"]

    def plan(self, request):
        """Resolve one request into a :class:`SelectionPlan`."""
        resolved = request.resolve()
        technology = resolved[0]
        with span("plan.resolve", workload=self.workload):
            orders = {
                method: self._order(method, request, resolved)
                for method in request.methods
                if method in _RANKED_METHODS
            }
        self.stats["plans"] += 1
        return SelectionPlan(
            workload=self.workload,
            methods=request.methods,
            nwc_targets=request.nwc_targets,
            counts=tuple(
                int(round(target * self.space.total_size))
                for target in request.nwc_targets
            ),
            orders=orders,
            technology=technology,
            sigma=request.sigma,
            read_time=request.read_time,
            weight_bits=request.weight_bits,
            device_bits=request.device_bits,
            total_weights=self.space.total_size,
            wear_inflation=request.effective_wear_inflation(technology),
            model=self._model_digest,
            cache_version=self.cache.version,
            differential=request.differential,
        )

def build_engine(workload="lenet-digits", scale=None, cache=None):
    """Load a zoo workload and wire a :class:`PlanEngine` over it.

    The one shared construction path behind the engines the plan
    service builds at startup and the serving benchmark.  It builds the
    engine with :meth:`PlanEngine.from_zoo` at the scale's
    ``sense_samples``, as the scenario orchestrator does, so
    engine-resolved plans are the ones a scenario run would compute.

    Parameters
    ----------
    workload:
        A model-zoo workload key; an unknown one raises
        :class:`~repro.robustness.errors.ScenarioConfigError` (CLI
        exit 64, HTTP 400 through the serving layer).
    scale:
        A scale name (``smoke`` / ``default`` / ``full``), a
        :class:`~repro.experiments.config.ScalePreset`, or None for
        ``REPRO_SCALE``-resolved default.
    cache:
        The :class:`~repro.plan.cache.PlanArtifactCache` the engine
        stores stages in; :func:`repro.serve.build_service` passes one
        shared cache to every engine it builds.
    """
    from repro.experiments.config import get_scale
    from repro.experiments.model_zoo import load_workload
    from repro.robustness.errors import ScenarioConfigError

    scale = get_scale(scale) if not hasattr(scale, "workloads") else scale
    try:
        spec = scale.workload(workload)
    except KeyError as exc:
        raise ScenarioConfigError(
            f"unknown workload {workload!r}; available: "
            f"{sorted(scale.workloads)}"
        ) from exc
    return PlanEngine.from_zoo(
        load_workload(spec), scale.sense_samples, cache=cache
    )
