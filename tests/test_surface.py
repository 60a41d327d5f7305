"""Every public name in `src/wordlab` has a caller outside its own unit tests.

A caller is a reference from another `src/` module, from the defining
module outside the name's own definition, from the CLI, the benchmark
(`perfbench/*.py`), the README's code spans or the acceptance suite.
`__init__.py` re-exports names and calls none, so it is not a caller.
A reference is an identifier (a name or an attribute) or a string
literal that is exactly the name, as in `getattr(module, "thue_morse")`.
Names are matched by their last part alone, so two definitions of one
name share their callers, as does a method with every attribute of its
name.  A caller counts whether or not it is reached itself: the survey is
one level deep.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wordlab"

# Names that state the paper's definitions and lemmas but that no system
# caller reaches yet; each waits for a row of the verification ledger
# (ROADMAP item 17).
LEDGER_NAMES = {
    "is_n_light": "the definition of an n-light coding class",
    "FragmentDecomposition.tally": "the fragment tally of the periodic-fragment lemma",
    "TailColoring.snapshot": "the snapshot stability of a Dilworth tail coloring",
    "k_tail": "the k-tail of a word, the truncation the tail sense reads",
    "strongly_comparable": "strong comparability of two word cycles",
    "subword_count_period": "the period of the subword counts of a periodic word",
    "conjugate_classes": "the conjugacy classes of words of one length",
    "pattern_occurs": "pattern occurrence, the statement behind Zimin's theorem",
    "zimin_word": "the Zimin words Z(n), the unavoidable patterns",
    "lex_compare": "lexicographic comparison with prefix-incomparability",
    "tails": "the tails of a word, which the tail sense of n-divisibility compares",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module) -> list[tuple[str, str, ast.AST]]:
    """(qualified name, bare name, node) of each public top-level function
    and class, and each public method of a public class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            out.append((node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        out.append((f"{node.name}.{item.name}", item.name, item))
    return out


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Identifiers and identifier-valued string literals in `tree`,
    outside the subtree `skip` (the name's own definition)."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _readme_identifiers() -> set[str]:
    text = (ROOT / "README.md").read_text()
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.DOTALL)
    return {ident for span in spans for ident in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", span)}


def unreached_names() -> list[str]:
    """Qualified public names of `src/wordlab` that no caller references."""
    modules = {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    outside = set(_readme_identifiers())
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        outside |= _references(ast.parse(path.read_text()))
    refs = {path: _references(tree) for path, tree in modules.items()}
    unreached = []
    for path, tree in modules.items():
        others = outside.union(*(r for other, r in refs.items() if other != path))
        for qualified, bare, node in _definitions(tree):
            if bare not in others and bare not in _references(tree, skip=node):
                unreached.append(f"{path.stem}.{qualified}")
    return unreached


def test_every_public_name_has_a_caller():
    unreached = [n for n in unreached_names() if n.split(".", 1)[1] not in LEDGER_NAMES]
    assert unreached == []


def test_ledger_names_are_still_defined():
    # `FragmentDecomposition.tally` shares its name with the benchmark ops'
    # `tally`, so the survey cannot see that it has no caller; it is listed
    # all the same
    defined = set()
    for path in SRC.glob("*.py"):
        defined |= {qualified for qualified, _, _ in _definitions(ast.parse(path.read_text()))}
    assert set(LEDGER_NAMES) - defined == set()
