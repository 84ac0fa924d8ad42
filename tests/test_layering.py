"""The import-layering check (tools/check_layering.py) as a test.

Running the checker inside the suite means a layering inversion fails
`pytest` locally with the same message CI prints, and the checker's own
mechanics (TYPE_CHECKING exemption, prefix matching) are covered too.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
CHECKER = REPO_ROOT / "tools" / "check_layering.py"
SRC_ROOT = REPO_ROOT / "src"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_layering", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRepositoryLayering:
    def test_tree_has_no_violations(self):
        checker = load_checker()
        violations = checker.check_layering(SRC_ROOT)
        assert violations == []

    def test_cli_entry_point_passes(self):
        proc = subprocess.run([sys.executable, str(CHECKER)],
                              capture_output=True, text=True,
                              cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "passed" in proc.stdout

    def test_baseline_static_does_not_import_core_delta(self):
        # The inversion this PR removed must not come back.
        checker = load_checker()
        source = (SRC_ROOT / "repro" / "baseline" / "static.py").read_text()
        imports = checker.runtime_imports(ast.parse(source))
        assert not any(name.startswith("repro.core.delta")
                       for name in imports)

    def test_arch_does_not_import_core_at_runtime(self):
        checker = load_checker()
        for path in (SRC_ROOT / "repro" / "arch").glob("*.py"):
            imports = checker.runtime_imports(ast.parse(path.read_text()))
            offending = [name for name in imports
                         if name.startswith("repro.core")
                         or name.startswith("repro.machine")]
            assert not offending, f"{path.name}: {offending}"

    def test_core_does_not_import_the_graph_layer(self):
        # core is the IR's substrate; consuming the IR would be circular.
        checker = load_checker()
        for path in (SRC_ROOT / "repro" / "core").glob("*.py"):
            imports = checker.runtime_imports(ast.parse(path.read_text()))
            offending = [name for name in imports
                         if name.startswith("repro.graph")]
            assert not offending, f"{path.name}: {offending}"

    def test_graph_layer_stays_below_its_consumers(self):
        checker = load_checker()
        for path in (SRC_ROOT / "repro" / "graph").glob("*.py"):
            imports = checker.runtime_imports(ast.parse(path.read_text()))
            offending = [name for name in imports
                         if name.startswith("repro.eval")
                         or name.startswith("repro.workloads")
                         or name.startswith("repro.baseline")]
            assert not offending, f"{path.name}: {offending}"

    def test_sched_seam_stays_below_its_consumers(self):
        checker = load_checker()
        for path in (SRC_ROOT / "repro" / "sched").glob("*.py"):
            imports = checker.runtime_imports(ast.parse(path.read_text()))
            offending = [name for name in imports
                         if name.startswith(("repro.eval",
                                             "repro.workloads",
                                             "repro.baseline",
                                             "repro.cli"))]
            assert not offending, f"{path.name}: {offending}"

    def test_core_uses_only_the_sched_api(self):
        # The dispatcher resolves policies through the registry; the
        # implementations (and hint recovery) stay swappable behind it.
        checker = load_checker()
        for path in (SRC_ROOT / "repro" / "core").glob("*.py"):
            imports = checker.runtime_imports(ast.parse(path.read_text()))
            offending = [name for name in imports
                         if name.startswith(("repro.sched.policies",
                                             "repro.sched.structure"))]
            assert not offending, f"{path.name}: {offending}"

    def test_sched_edges_are_enforced_by_the_checker(self):
        checker = load_checker()
        forbidden_pairs = {(src, dst) for src, dst, _ in
                           checker.FORBIDDEN_EDGES}
        assert ("repro.sched", "repro.eval") in forbidden_pairs
        assert ("repro.sched", "repro.workloads") in forbidden_pairs
        assert ("repro.machine", "repro.sched") in forbidden_pairs
        assert ("repro.core", "repro.sched.policies") in forbidden_pairs
        assert ("repro.core", "repro.sched.structure") in forbidden_pairs

    def test_store_imports_util_only(self):
        # The store is the cache substrate: one layer above util, below
        # everything that simulates. Any repro import other than util
        # (or the store package itself) is an inversion.
        checker = load_checker()
        for path in (SRC_ROOT / "repro" / "store").glob("*.py"):
            imports = checker.runtime_imports(ast.parse(path.read_text()))
            offending = [name for name in imports
                         if name.startswith("repro.")
                         and not name.startswith(("repro.util",
                                                  "repro.store"))]
            assert not offending, f"{path.name}: {offending}"

    def test_simulation_stack_does_not_know_results_are_cached(self):
        # Caching above, simulating below: the machine being evaluated
        # must never observe (or perturb) the harness's cache.
        checker = load_checker()
        for layer in ("sim", "arch", "machine", "core", "baseline"):
            for path in (SRC_ROOT / "repro" / layer).glob("*.py"):
                imports = checker.runtime_imports(
                    ast.parse(path.read_text()))
                offending = [name for name in imports
                             if name.startswith("repro.store")]
                assert not offending, f"{layer}/{path.name}: {offending}"

    def test_store_edges_are_enforced_by_the_checker(self):
        checker = load_checker()
        forbidden_pairs = {(src, dst) for src, dst, _ in
                           checker.FORBIDDEN_EDGES}
        # The store reaches nothing above util...
        for target in ("sim", "arch", "machine", "core", "graph",
                       "eval", "cli"):
            assert ("repro.store", f"repro.{target}") in forbidden_pairs
        # ...and the simulation stack never reaches the store.
        for source in ("util", "sim", "arch", "machine", "core",
                       "baseline", "workloads"):
            assert (f"repro.{source}", "repro.store") in forbidden_pairs

    def test_serve_stays_above_the_simulation_stack(self):
        # The server drives the harness, the store and the metrics bus;
        # touching the simulation stack directly would let serving
        # perturb what is being measured.
        checker = load_checker()
        for path in (SRC_ROOT / "repro" / "serve").glob("*.py"):
            imports = checker.runtime_imports(ast.parse(path.read_text()))
            offending = [name for name in imports
                         if name.startswith(("repro.sim", "repro.core",
                                             "repro.baseline",
                                             "repro.graph", "repro.sched",
                                             "repro.isa", "repro.cli"))]
            assert not offending, f"{path.name}: {offending}"

    def test_simulation_stack_never_imports_serve(self):
        checker = load_checker()
        for layer in ("util", "store", "sim", "arch", "machine", "core",
                      "graph", "sched", "baseline", "workloads", "eval"):
            for path in (SRC_ROOT / "repro" / layer).glob("*.py"):
                imports = checker.runtime_imports(
                    ast.parse(path.read_text()))
                offending = [name for name in imports
                             if name.startswith("repro.serve")]
                assert not offending, f"{layer}/{path.name}: {offending}"

    def test_serve_edges_are_enforced_by_the_checker(self):
        checker = load_checker()
        forbidden_pairs = {(src, dst) for src, dst, _ in
                           checker.FORBIDDEN_EDGES}
        for target in ("sim", "core", "baseline", "graph", "sched", "cli"):
            assert ("repro.serve", f"repro.{target}") in forbidden_pairs
        for source in ("sim", "arch", "machine", "core", "baseline",
                       "eval", "store"):
            assert (f"repro.{source}", "repro.serve") in forbidden_pairs

    def test_graph_edges_are_enforced_by_the_checker(self):
        # The rules themselves, not just today's tree: a core module that
        # imports the IR must be reported.
        checker = load_checker()
        forbidden_pairs = {(src, dst) for src, dst, _ in
                           checker.FORBIDDEN_EDGES}
        assert ("repro.core", "repro.graph") in forbidden_pairs
        assert ("repro.graph", "repro.eval") in forbidden_pairs
        assert ("repro.graph", "repro.baseline") in forbidden_pairs


class TestCheckerMechanics:
    def test_type_checking_imports_are_exempt(self):
        checker = load_checker()
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.core.delta import Delta\n"
            "import repro.sim\n"
        )
        imports = checker.runtime_imports(ast.parse(source))
        assert "repro.sim" in imports
        assert "repro.core.delta" not in imports

    def test_runtime_violation_is_reported(self, tmp_path):
        checker = load_checker()
        pkg = tmp_path / "repro" / "baseline"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "bad.py").write_text("from repro.core.delta import Delta\n")
        violations = checker.check_layering(tmp_path)
        assert len(violations) == 1
        assert "repro.baseline.bad imports repro.core.delta" in violations[0]

    def test_pickle_import_is_reported(self, tmp_path):
        checker = load_checker()
        pkg = tmp_path / "repro" / "serve"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("import pickle\n")
        (pkg / "__init__.py").write_text("")
        (pkg / "bad.py").write_text("from pickle import loads\n")
        violations = checker.check_layering(tmp_path)
        assert len(violations) == 2
        assert "repro imports pickle" in violations[0]
        assert "repro.serve.bad imports pickle" in violations[1]

    def test_prefix_matching_is_on_module_boundaries(self):
        checker = load_checker()
        # "repro.corelib" must NOT match the "repro.core" prefix.
        assert not checker._matches("repro.corelib", "repro.core")
        assert checker._matches("repro.core.delta", "repro.core")
        assert checker._matches("repro.core", "repro.core")
