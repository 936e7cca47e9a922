"""The package names the benchmark calls and the README names still resolve.

The benchmark's traced run wraps the functions listed in
``perfbench/layers.py``'s ``TRACE_TARGETS`` and its probes call more
package functions directly; the untraced run touches only a few of them,
so a deleted name would pass every other test and still break a traced
run.  The file is read, not imported, so the check needs nothing from
the benchmark.  The README is the package's only list of its public
API, so every ``mw.<name>`` it mentions must exist too.
"""

import ast
import importlib
import re
from pathlib import Path

import mmwshare as mw

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"
MODULES = {"analytic", "channel", "cli", "core", "estimation", "geometry", "montecarlo"}


def _package_references(tree: ast.AST) -> tuple[set, set]:
    """(module, name) pairs of TRACE_TARGETS-style tuples and of attribute reads."""
    aliases = {"mw": "__init__", **{m: m for m in MODULES}}
    targets, reads = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                and isinstance(node.elts[0], ast.Name) and node.elts[0].id in MODULES
                and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)):
            targets.add((node.elts[0].id, node.elts[1].value))
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            reads.add((aliases[node.value.id], node.attr))
    return targets, reads


def test_every_name_the_benchmark_calls_resolves():
    targets, reads = _package_references(ast.parse(LAYERS.read_text()))
    assert ("montecarlo", "run_simulation") in targets and len(targets) >= 15
    for needed in (("channel", "sinr_at_user"), ("geometry", "thin_blockage"),
                   ("geometry", "sample_block_model"), ("analytic", "laplace_general")):
        assert needed in reads | targets
    missing = []
    for module, name in sorted(targets | reads):
        path = "mmwshare" if module == "__init__" else f"mmwshare.{module}"
        if not hasattr(importlib.import_module(path), name):
            missing.append(f"{path}.{name}")
    assert missing == []


def test_every_name_the_readme_uses_resolves():
    names = set(re.findall(r"\bmw\.([A-Za-z_]\w*)", (ROOT / "README.md").read_text()))
    assert len(names) >= 18
    assert sorted(n for n in names if not hasattr(mw, n)) == []
