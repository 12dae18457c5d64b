"""Every public definition under ``src/repro`` is reachable.

An AST scan collects the top-level ``def``s and ``class``es of
``src/repro/**/*.py`` and, one level down, every method whose name is
not a dunder: each such method is a definition of its own.  A class
keeps its bases, decorators, class-level statements and dunder methods,
so constructing or subclassing it keeps ``__init__`` and whatever the
dunders call alive, but not its other methods.  Module-level code is
live: it runs on import and holds the ``__main__`` entry points of the
runner and the validators.  A definition becomes live
when its name appears as an ``ast.Name`` or ``ast.Attribute`` inside
live code other than its own body; the scan iterates to a fixed point,
so code that only dead code calls is dead too.  Imports and ``__all__``
strings are not references, and neither is a name a function binds
itself: its parameters and assignment targets are locals, so a method
that shares its name with a parameter is not reached by it.  Names are matched without their module or
class, so a name that two modules or classes define is live when either
is called.

``KEEP`` lists the public definitions that no code path of the program
reaches, each with the reason it stays; they are live roots too.  A
method is listed as ``Class.method``.  A public definition that is
neither reached nor kept fails the test, and so does a kept name that
the program now reaches or that no longer exists.

The same holds for imports: a module-level import that its module never
names (as an ``ast.Name``, or in its ``__all__``) fails the test unless
``UNUSED_IMPORTS`` lists it with its reason.  ``__init__`` modules are
exempt; their imports are the package's surface.

Callers outside ``src/`` do not count, so the names that
``perfbench/layers.py::instrument()`` wraps or rebinds have a guard of
their own: :func:`test_perfbench_instruments_the_program` runs it.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

KEEP = {
    "PlanClient": "perfbench/serve_mixed.py and benchmarks/bench_serving.py "
                  "drive the plan server through it",
    "load_plans": "reads what `runner --save-plans` writes",
    "speedup_table": "renders the abstract's iso-accuracy speedup "
                     "(ROADMAP item 5)",
    "nwc_to_reach": "the NWC at which a curve reaches a target accuracy, "
                    "for speedup_table (ROADMAP item 5)",
    "speedup_at_iso_accuracy": "the abstract's speedup of one curve over "
                               "another (ROADMAP item 5)",
    "mlp": "the tests' small model, and the only model with the smooth "
           "activations that Eq. 9's exactness tests need",
    "calibrate_alpha": "shows how WriteVerifyConfig.alpha = 0.033 yields "
                       "about 10 cycles per weight; "
                       "examples/custom_device.py calls it",
    "traced": "the decorator form of span(), for moving perfbench's "
              "spans into the program (ROADMAP item 2)",
    "disable_tracing": "benchmarks/bench_obs.py and the tests switch "
                       "tracing off with it",
    "selective_write_verify": "the library form of Algorithm 1 that "
                              "examples/quickstart.py runs; the "
                              "granularity ablation reads the same "
                              "stopping point off a sweep",
    # Methods that only callers outside the program reach.
    "CimAccelerator.apply_all": "deploys every verified weight (NWC = 1); "
                                "examples/custom_device.py calls it",
    "CimAccelerator.total_cycles_trials":
        "perfbench/layers.py reads each trial-batched verify's pulse "
        "count through it",
    "Module.num_parameters": "examples/method_comparison.py prints the "
                             "model size with it",
    "PlanClient.statsz": "benchmarks/bench_serving.py and "
                         "perfbench/serve_mixed.py read GET /statsz "
                         "through it",
    # Tier-1 oracles: the program's answer is checked against them.
    "NonidealityStack.empirical_variance_map":
        "the Monte Carlo estimate that variance_map must match "
        "(test_empirical_variance_matches_analytic)",
    "SpatialVariationModel.correlation_at_lag":
        "measures a sampled field's correlation, the oracle of the "
        "spatial correlation tests",
    "WeightMapper.program_levels":
        "the historical one-shot programming path that the default "
        "stack must reproduce draw for draw",
}

#: ``(module, name)`` imports that their module never names, each with
#: the reason it stays.
UNUSED_IMPORTS = {
    ("repro.core.mc", "evaluate_accuracy_trials"):
        "perfbench/layers.py rebinds this module's name to time it "
        "(ROADMAP item 2)",
}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bound(function):
    """The parameters and assignment targets ``function`` binds (nested
    functions, lambdas and comprehensions included)."""
    return {
        child.arg if isinstance(child, ast.arg) else child.id
        for child in ast.walk(function)
        if isinstance(child, ast.arg)
        or isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load)
    }


def _names(nodes):
    """Every name referenced under ``nodes``, less a function's locals."""
    found = set()
    for node in nodes:
        local = _bound(node) if isinstance(node, _FUNCTIONS) else set()
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and child.id not in local:
                found.add(child.id)
            elif isinstance(child, ast.Attribute):
                found.add(child.attr)
    return found


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


@pytest.fixture(scope="module")
def scan():
    """``(definitions, module_refs)``: name -> [(path, qualname, lineno,
    parts)], where ``parts`` are the AST nodes whose names the
    definition references, and the names referenced by module-level
    code."""
    definitions, module_refs = {}, set()

    def define(name, path, qualname, node, parts):
        definitions.setdefault(name, []).append(
            (path, qualname, node.lineno, parts))

    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, _FUNCTIONS):
                define(node.name, path, node.name, node, [node])
            elif isinstance(node, ast.ClassDef):
                parts = node.bases + node.keywords + node.decorator_list
                for stmt in node.body:
                    if isinstance(stmt, _FUNCTIONS) \
                            and not _is_dunder(stmt.name):
                        define(stmt.name, path, f"{node.name}.{stmt.name}",
                               stmt, [stmt])
                    else:
                        parts.append(stmt)
                define(node.name, path, node.name, node, parts)
            else:
                module_refs |= _names([node])
    return definitions, module_refs


def _live(definitions, roots):
    """Names reachable from ``roots`` through live definitions' bodies."""
    live, frontier = set(roots), set(roots)
    while frontier:
        found = set()
        for name in frontier:
            for *_, parts in definitions.get(name, ()):
                found |= _names(parts) - {name}
        frontier = found - live
        live |= frontier
    return live


def _bare(qualname):
    """The name a ``KEEP`` entry matches: a method's without its class."""
    return qualname.rsplit(".", 1)[-1]


def test_every_public_definition_is_reached_or_kept(scan):
    definitions, module_refs = scan
    live = _live(definitions, module_refs | {_bare(k) for k in KEEP})
    dead = sorted(
        f"{path.relative_to(SRC.parent)}:{lineno}: {qualname}"
        for name, places in definitions.items()
        if not name.startswith("_") and name not in live
        for path, qualname, lineno, _ in places
    )
    assert not dead, (
        "no code path of the program reaches these definitions; delete "
        "them or add each to KEEP with its reason:\n" + "\n".join(dead)
    )


def test_keep_list_is_not_stale(scan):
    definitions, module_refs = scan
    reached = _live(definitions, module_refs)
    qualnames = {qualname for places in definitions.values()
                 for _, qualname, _, _ in places}
    missing = sorted(name for name in KEEP if name not in qualnames)
    called = sorted(name for name in KEEP if _bare(name) in reached)
    assert not missing, f"KEEP names definitions that no longer exist: {missing}"
    assert not called, f"KEEP names definitions the program now reaches: {called}"


def _unused_imports():
    """``(module, name)`` of every module-level import of a non-``__init__``
    module that the module never names."""
    unused = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                named |= {c.value for c in ast.walk(node.value)
                          if isinstance(c, ast.Constant)}
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        unused |= {(module, name) for name in imported - named}
    return unused


def test_every_import_is_named():
    unused = _unused_imports()
    unexplained = sorted(unused - set(UNUSED_IMPORTS))
    stale = sorted(set(UNUSED_IMPORTS) - unused)
    assert not unexplained, (
        "these modules import names they never use; delete the imports "
        "or add each to UNUSED_IMPORTS with its reason:\n"
        + "\n".join(f"{module}: {name}" for module, name in unexplained)
    )
    assert not stale, f"UNUSED_IMPORTS lists imports now used or gone: {stale}"


#: Install perfbench's wrappers, drive every public accelerator call
#: they wrap (plus ``apply_none`` and ``apply_all``) while tracing, and
#: print the drained spans with the pulse counts the verify spans must
#: carry.
_INSTRUMENT = """
import json
import numpy as np
from layers import instrument
instrument()
from repro.cim import CimAccelerator
from repro.nn.models import mlp
from repro.obs import enable_tracing
from repro.obs.trace import TRACER
from repro.utils.rng import RngStream
enable_tracing()
accelerator = CimAccelerator(mlp(RngStream(0), (4, 3)))
accelerator.program(np.random.default_rng(0))
accelerator.write_verify_all(np.random.default_rng(1))
total = accelerator.total_cycles()
accelerator.apply_selection({})
accelerator.apply_none()
accelerator.apply_all()
accelerator.program_trials([np.random.default_rng(2), np.random.default_rng(3)])
accelerator.write_verify_trials(np.random.default_rng(4))
total_trials = int(accelerator.total_cycles_trials().sum())
accelerator.apply_selection_trials({})
spans = [(s["name"], s["parent"], s["attrs"]) for s in TRACER.drain()]
print(json.dumps({"total": total, "total_trials": total_trials,
                  "spans": spans}))
"""


def test_perfbench_instruments_the_program():
    """perfbench's span wrappers find every name they wrap or rebind.

    ``instrument()`` looks each one up with ``getattr``, and the verify
    wrappers read pulse counts through ``total_cycles`` and
    ``total_cycles_trials`` while tracing, so deleting or renaming any
    of them fails here rather than only in a traced perfbench run.

    Each wrapped call records exactly one top-level span: a public
    accelerator method that called another public one (``apply_none``
    through ``apply_selection``, say) would add or nest a span, and a
    nested verify would count its pulses twice in ``cim.verify_pulses``.
    """
    root = SRC.parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", _INSTRUMENT],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    names = [name for name, _, _ in out["spans"]]
    assert sorted(names) == sorted(
        ["cim.program", "cim.write_verify", "cim.apply_selection"] * 2)
    assert all(parent is None for _, parent, _ in out["spans"])
    scalar, trials = (attrs["pulses"] for name, _, attrs in out["spans"]
                      if name == "cim.write_verify")
    assert scalar == out["total"] > 0
    assert trials == out["total_trials"] > 0
