"""Audit of the catch-all exception handlers in ``src/repro``.

A broad ``except`` (``Exception``, ``BaseException`` or bare) that reroutes
work hides bugs: while the fused slab path had them, a slab forced to raise
left the serial-vs-fused contracts comparing the serial oracle with itself.
Every remaining catch-all handles a *declared* condition and is pinned here
by module and enclosing function, so a new one fails this test until it is
justified in the allowlist.
"""

import ast
import os
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")

BROAD = {"Exception", "BaseException"}

#: (module relative to src/repro, enclosing qualname) -> declared condition.
ALLOWED = {
    ("engine/executor.py", "ProcessExecutor.map"):
        "final in-parent retry of a crashed/timed-out task re-raises as WorkerCrashedError",
    ("engine/executor.py", "ProcessExecutor._run_pooled_locked"):
        "tears the worker pool down on any exit, then re-raises",
    ("engine/checkpoint.py", "load_checkpoint"):
        "corrupt checkpoint file: quarantined, re-raised as CheckpointError",
    ("engine/bank_store.py", "BankStore.get"):
        "corrupt bank cache entry: quarantined, treated as a miss",
    ("service/store.py", "ExperimentStore.get"):
        "corrupt store record: quarantined, treated as a miss",
    ("service/daemon.py", "TuningService._run_job"):
        "job-level poison handling: the failure is journaled against the job",
    ("experiments/fig_methods.py", "_run_task"):
        "sweep containment: a visible failed record, the sweep continues",
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    types = handler.type
    if types is None:
        return True
    names = types.elts if isinstance(types, ast.Tuple) else [types]
    return any(isinstance(n, ast.Name) and n.id in BROAD for n in names)


class _Finder(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module = module
        self.scope = []
        self.sites = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_ExceptHandler(self, node):
        if _is_broad(node):
            self.sites.append((self.module, ".".join(self.scope) or "<module>"))
        self.generic_visit(node)


def broad_except_sites():
    sites = []
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            module = os.path.relpath(path, SRC).replace(os.sep, "/")
            with open(path) as fh:
                finder = _Finder(module)
                finder.visit(ast.parse(fh.read(), path))
            sites.extend(finder.sites)
    return Counter(sites)


def test_broad_excepts_match_the_allowlist():
    sites = broad_except_sites()
    unexpected = sorted(site for site in sites if site not in ALLOWED)
    assert not unexpected, (
        f"new catch-all handler(s) {unexpected}: catch the declared exception "
        "instead, or add the site to ALLOWED with the condition it handles"
    )
    stale = sorted(site for site in ALLOWED if site not in sites)
    assert not stale, f"allowlisted handler(s) {stale} are gone; drop them from ALLOWED"
    repeated = sorted(site for site, n in sites.items() if n > 1)
    assert not repeated, f"more than one catch-all in {repeated}"


def test_training_and_tuning_layers_have_no_catch_all():
    layers = ("fl/", "core/", "nn/")
    assert not [site for site in broad_except_sites() if site[0].startswith(layers)]
