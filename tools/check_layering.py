#!/usr/bin/env python
"""Import-layering check for the ``repro`` package.

The architecture is layered bottom-up::

    repro.util      (leaf helpers)
    repro.store     (the on-disk cache substrate; imports util ONLY)
    repro.sim       (discrete-event kernel)
    repro.arch      (hardware component models)
    repro.machine   (datapath composition + run lifecycle + metrics bus)
    repro.core      (the Delta / TaskStream execution model)
    repro.graph     (the TaskGraph IR: recovered program structure)
    repro.sched     (scheduling policies: protocol, registry, hints)
    repro.baseline  (alternative execution models on the same machine)
    repro.isa / repro.workloads / repro.eval
    repro.serve     (the sweep server: harness + store + metrics, no sim)
    repro.cli       (top)

The store layer is deliberately narrow: it sits just above util and
below everything that simulates. Only its schemas (the ``eval`` result
cache, ``serve``'s job records) and the CLI consume it; the simulation
stack (``sim`` / ``arch`` / ``machine`` / ``core``) must never know
results are cached — caching above, simulating below.

The sched layer is deliberately split-level: ``sched.api`` (protocol +
registry) sits *below* core — the dispatcher resolves its policy from the
registry — while ``sched.structure`` sits above graph (it digests the IR
into hints) and ``sched.policies`` holds the implementations. Core may
therefore use ``sched.api`` only, never the implementations; ``arch``'s
single lazy registry import (``DispatchConfig`` validation) is the one
sanctioned down-reference.

This script parses every source file's *runtime* imports (``if
TYPE_CHECKING:`` blocks are exempt — they never execute) and fails on any
edge that points down-to-up, most importantly:

- ``baseline -> core.delta`` — the inversion this check was introduced to
  prevent: baselines must run through ``repro.machine``, never reach into
  the Delta runtime;
- ``arch -> core`` — hardware component models must stay
  execution-model agnostic.

Run from the repository root (CI does)::

    python tools/check_layering.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Forbidden import edges: (source package prefix, target module prefix).
#: A module whose dotted name starts with the source prefix may not import
#: any module whose dotted name starts with the target prefix.
FORBIDDEN_EDGES: list[tuple[str, str, str]] = [
    # The headline rules.
    ("repro.baseline", "repro.core.delta",
     "baselines must run through repro.machine, not the Delta runtime"),
    ("repro.arch", "repro.core",
     "hardware models must stay execution-model agnostic"),
    # The rest of the bottom-up ordering.
    ("repro.sim", "repro.arch", "the event kernel is below the hardware"),
    ("repro.sim", "repro.machine", "the event kernel is below the machine"),
    ("repro.sim", "repro.core", "the event kernel is below the core"),
    ("repro.arch", "repro.machine",
     "hardware components are composed by the machine, not vice versa"),
    ("repro.arch", "repro.baseline", "hardware is below execution models"),
    ("repro.arch", "repro.eval", "hardware is below the harness"),
    ("repro.machine", "repro.core",
     "the machine layer hosts execution models, it must not know them"),
    ("repro.machine", "repro.baseline",
     "the machine layer hosts execution models, it must not know them"),
    ("repro.machine", "repro.eval", "the machine is below the harness"),
    ("repro.machine", "repro.workloads", "the machine is below workloads"),
    ("repro.core", "repro.eval", "execution models are below the harness"),
    ("repro.baseline", "repro.eval",
     "execution models are below the harness"),
    ("repro.workloads", "repro.eval", "workloads are below the harness"),
    # The structure layer: core -> graph -> {baseline, eval, ...}. The IR
    # is derived *from* core's tasks and annotations and consumed by
    # everything above it; core re-deriving from the IR would be circular.
    ("repro.core", "repro.graph",
     "core is the graph layer's substrate, it must not consume the IR"),
    ("repro.graph", "repro.eval", "the structure layer is below the harness"),
    ("repro.graph", "repro.workloads",
     "the structure layer analyses programs, it must not build them"),
    ("repro.graph", "repro.baseline",
     "execution models consume the IR, not vice versa"),
    ("repro.sim", "repro.graph", "the event kernel is below the IR"),
    ("repro.arch", "repro.graph", "hardware is below the IR"),
    ("repro.machine", "repro.graph", "the machine is below the IR"),
    ("repro.util", "repro.graph", "util is the leaf layer"),
    # The scheduling seam: layers below the dispatcher never see
    # policies, and the seam itself never reaches into the harness.
    ("repro.util", "repro.sched", "util is the leaf layer"),
    ("repro.sim", "repro.sched", "the event kernel is below the seam"),
    ("repro.machine", "repro.sched",
     "the machine hosts execution models; policy choice lives above it"),
    ("repro.graph", "repro.sched",
     "the IR is policy-agnostic; sched digests it, not vice versa"),
    ("repro.sched", "repro.eval", "the seam is below the harness"),
    ("repro.sched", "repro.workloads",
     "policies schedule programs, they must not build them"),
    ("repro.sched", "repro.baseline",
     "execution models consume policies, not vice versa"),
    ("repro.sched", "repro.cli", "the seam is below the CLI"),
    # Core resolves policies through the registry only: the seam's API is
    # the contract, the implementations stay swappable behind it.
    ("repro.core", "repro.sched.policies",
     "core may use the sched API only, never policy implementations"),
    ("repro.core", "repro.sched.structure",
     "hint recovery runs above core (twin builds); core only carries "
     "hints opaquely"),
    # The store layer: util < store < everything that caches. The store
    # imports only util; its schemas (eval/cache.py, serve/queue.py) and
    # the CLI consume it — the simulation stack must never know results
    # are cached.
    ("repro.store", "repro.sim", "the store imports util only"),
    ("repro.store", "repro.arch", "the store imports util only"),
    ("repro.store", "repro.machine", "the store imports util only"),
    ("repro.store", "repro.core", "the store imports util only"),
    ("repro.store", "repro.graph", "the store imports util only"),
    ("repro.store", "repro.sched", "the store imports util only"),
    ("repro.store", "repro.baseline", "the store imports util only"),
    ("repro.store", "repro.isa", "the store imports util only"),
    ("repro.store", "repro.workloads", "the store imports util only"),
    ("repro.store", "repro.eval", "the store imports util only"),
    ("repro.store", "repro.cli", "the store imports util only"),
    ("repro.util", "repro.store", "util is the leaf layer"),
    ("repro.sim", "repro.store",
     "the event kernel must not know results are cached"),
    ("repro.arch", "repro.store",
     "hardware models must not know results are cached"),
    ("repro.machine", "repro.store",
     "the machine layer must not know results are cached"),
    ("repro.core", "repro.store",
     "execution models must not know results are cached"),
    ("repro.baseline", "repro.store",
     "execution models must not know results are cached"),
    ("repro.sched", "repro.store",
     "policies schedule tasks; caching lives in the schemas above"),
    ("repro.workloads", "repro.store",
     "workloads build programs; caching lives in the harness above"),
    # The serve layer: the sweep server drives the harness (eval), the
    # store, and the metrics bus — it must never reach into the
    # simulation stack directly, and nothing below the CLI may know the
    # server exists.
    ("repro.serve", "repro.sim",
     "serve drives the harness; it never touches the event kernel"),
    ("repro.serve", "repro.core",
     "serve drives the harness; it never touches execution models"),
    ("repro.serve", "repro.baseline",
     "serve drives the harness; it never touches execution models"),
    ("repro.serve", "repro.graph",
     "serve consumes harness results, not the IR"),
    ("repro.serve", "repro.sched",
     "policy choice validates through arch config, never the registry"),
    ("repro.serve", "repro.isa", "serve is above the whole machine stack"),
    ("repro.serve", "repro.cli", "the CLI hosts the server, not vice versa"),
    ("repro.util", "repro.serve", "util is the leaf layer"),
    ("repro.store", "repro.serve", "the store imports util only"),
    ("repro.sim", "repro.serve", "the simulation stack never serves"),
    ("repro.arch", "repro.serve", "the simulation stack never serves"),
    ("repro.machine", "repro.serve", "the simulation stack never serves"),
    ("repro.core", "repro.serve", "the simulation stack never serves"),
    ("repro.graph", "repro.serve", "the IR layer never serves"),
    ("repro.sched", "repro.serve", "the scheduling seam never serves"),
    ("repro.baseline", "repro.serve", "the simulation stack never serves"),
    ("repro.isa", "repro.serve", "the ISA layer never serves"),
    ("repro.workloads", "repro.serve", "workloads never serve"),
    ("repro.eval", "repro.serve",
     "the harness is the server's engine, not its client"),
]


def module_name(path: Path, src_root: Path) -> str:
    """Dotted module name of ``path`` relative to the ``src`` root."""
    rel = path.relative_to(src_root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_type_checking_guard(node: ast.If) -> bool:
    test = node.test
    return ((isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
            or (isinstance(test, ast.Attribute)
                and test.attr == "TYPE_CHECKING"))


def runtime_imports(tree: ast.Module) -> list[str]:
    """Dotted names imported at runtime (skipping TYPE_CHECKING blocks)."""
    imports: list[str] = []

    def visit(nodes: list[ast.stmt]) -> None:
        for node in nodes:
            if isinstance(node, ast.Import):
                imports.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                # Relative imports do not occur in this codebase; level>0
                # would need resolving against the module package.
                if node.module is not None and node.level == 0:
                    imports.append(node.module)
            elif isinstance(node, ast.If):
                if not _is_type_checking_guard(node):
                    visit(node.body)
                visit(node.orelse)
            elif hasattr(node, "body"):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    children = getattr(node, field, [])
                    visit([c for c in children if isinstance(c, ast.stmt)])
                    for child in children:
                        if isinstance(child, ast.ExceptHandler):
                            visit(child.body)
    visit(tree.body)
    return imports


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def check_layering(src_root: Path) -> list[str]:
    """Return one violation message per forbidden edge found (empty = ok)."""
    violations: list[str] = []
    for path in sorted(src_root.rglob("*.py")):
        module = module_name(path, src_root)
        tree = ast.parse(path.read_text(), filename=str(path))
        for imported in runtime_imports(tree):
            for source_prefix, target_prefix, why in FORBIDDEN_EDGES:
                if (_matches(module, source_prefix)
                        and _matches(imported, target_prefix)):
                    violations.append(
                        f"{module} imports {imported} "
                        f"(forbidden: {source_prefix} -> {target_prefix}; "
                        f"{why})")
    return violations


def main() -> int:
    repo_root = Path(__file__).resolve().parents[1]
    src_root = repo_root / "src"
    violations = check_layering(src_root)
    if violations:
        print(f"layering check FAILED ({len(violations)} violation(s)):")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print("layering check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
