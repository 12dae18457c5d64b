"""Every public definition under ``src/repro`` is reachable.

An AST scan collects the top-level ``def``s and ``class``es of
``src/repro/**/*.py``.  Module-level code is live: it runs on import and
holds the ``__main__`` entry points of the runner, the plan server and
the validators.  A definition becomes live when its name appears as an
``ast.Name`` or ``ast.Attribute`` inside live code other than its own
body; the scan iterates to a fixed point, so code that only dead code
calls is dead too.  Imports and ``__all__`` strings are not references.
Names are matched without their module, so a name that two modules
define is live when either is called.

``KEEP`` lists the public definitions that no code path of the program
reaches, each with the reason it stays; they are live roots too.  A
public definition that is neither reached nor kept fails the test, and
so does a kept name that the program now reaches or that no longer
exists.

The same holds for imports: a module-level import that its module never
names (as an ``ast.Name``, or in its ``__all__``) fails the test unless
``UNUSED_IMPORTS`` lists it with its reason.  ``__init__`` modules are
exempt; their imports are the package's surface.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

KEEP = {
    "PlanClient": "perfbench/serve_mixed.py and benchmarks/bench_serving.py "
                  "drive the plan server through it",
    "PlanClientError": "what PlanClient raises; the same callers catch it",
    "PlanResponse": "what PlanClient returns",
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
}

#: ``(module, name)`` imports that their module never names, each with
#: the reason it stays.
UNUSED_IMPORTS = {
    ("repro.core.mc", "evaluate_accuracy_trials"):
        "perfbench/layers.py rebinds this module's name to time it "
        "(ROADMAP item 2)",
}


def _names(node):
    """Every name referenced under ``node``."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


@pytest.fixture(scope="module")
def scan():
    """``(definitions, module_refs)``: name -> [(path, node)], and the
    names referenced by module-level code."""
    definitions, module_refs = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions.setdefault(node.name, []).append((path, node))
            else:
                module_refs |= _names(node)
    return definitions, module_refs


def _live(definitions, roots):
    """Names reachable from ``roots`` through live definitions' bodies."""
    live, frontier = set(roots), set(roots)
    while frontier:
        found = set()
        for name in frontier:
            for _, node in definitions.get(name, ()):
                found |= _names(node) - {name}
        frontier = found - live
        live |= frontier
    return live


def test_every_public_definition_is_reached_or_kept(scan):
    definitions, module_refs = scan
    live = _live(definitions, module_refs | set(KEEP))
    dead = sorted(
        f"{path.relative_to(SRC.parent)}:{node.lineno}: {name}"
        for name, places in definitions.items()
        if not name.startswith("_") and name not in live
        for path, node in places
    )
    assert not dead, (
        "no code path of the program reaches these definitions; delete "
        "them or add each to KEEP with its reason:\n" + "\n".join(dead)
    )


def test_keep_list_is_not_stale(scan):
    definitions, module_refs = scan
    reached = _live(definitions, module_refs)
    missing = sorted(name for name in KEEP if name not in definitions)
    called = sorted(name for name in KEEP if name in reached)
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
