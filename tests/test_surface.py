"""Every public definition in ``src/covpom`` is reached from the CLI or the benchmark, or is kept.

The walk starts from the names that ``cli.py``, ``perfbench/*.py`` and each
module's top-level statements outside ``def`` and ``class`` refer to, and
follows the names in module-level ``def`` and ``class`` bodies until nothing
new is reached.  A public definition it leaves unreached must be on ``KEEP``,
so library code that only tests call cannot come back unnoticed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Reached by no subcommand; kept for the acceptance gates, the paper's equivalence result and the
# CLI's test inputs, each with the report type it returns.
KEEP = {
    "verify_pom_equivalence", "EquivalenceReport",
    "covariance_densities", "CovarianceDensities",
    "weyl_apply", "WeylApplied",
    "phase_space_pom", "phase_space_effect",
    "induced_translation_matrix", "dual_translation_matrix",
    "regular_decomposition", "RegularDecomposition",
    "subgroup_to_json", "rep_to_json", "isometries_to_json", "state_to_json",
}


def referenced(tree):
    """The names and attribute names that an AST refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_unreached_public_definitions_are_the_kept_ones():
    defs, roots = {}, set()
    for path in sorted((ROOT / "src" / "covpom").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, set()).update(referenced(node))
            else:
                roots |= referenced(node)
    for path in [ROOT / "src" / "covpom" / "cli.py", *sorted((ROOT / "perfbench").glob("*.py"))]:
        roots |= referenced(ast.parse(path.read_text()))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo.extend(defs[name])
    assert {name for name in defs if not name.startswith("_")} - reached == KEEP
