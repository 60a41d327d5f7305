"""Every public name in `src/wordlab` has a caller outside its own unit tests,
and every knob of a public function or method is set by one.

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

A parameter with a default value is a knob.  The knob survey reads the
calls of the same callers, a function's own body included (a knob that
carries a recursion's state has two values in use), and asserts that
each knob of a public function or method is passed by one of them, by
position or by keyword.  A knob that no caller passes has one value in
use, and one value in use makes a constant.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wordlab"
# the callers outside `src/` that are Python; the README's code spans are the other
CALLERS = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]

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

# Knobs, as "qualified name(parameter)", that state a free parameter of the
# paper's definitions but that no system caller sets yet.
PAPER_PARAMETERS = {
    "is_n_divisible(min_power)": "the power that opens a block of the strong sense",
    "dilworth_tail_coloring(d)": "the d of the tail sense, which the report of ROADMAP item 10 sets",
    "large_selective_height(gap_len)": "the gap of the large selective height's definition",
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
    for path in CALLERS:
        outside |= _references(ast.parse(path.read_text()))
    refs = {path: _references(tree) for path, tree in modules.items()}
    unreached = []
    for path, tree in modules.items():
        others = outside.union(*(r for other, r in refs.items() if other != path))
        for qualified, bare, node in _definitions(tree):
            if bare not in others and bare not in _references(tree, skip=node):
                unreached.append(f"{path.stem}.{qualified}")
    return unreached


def _knobs(node: ast.AST, method: bool) -> list[tuple[str, int | None]]:
    """(name, 0-based position or None for keyword-only) of each parameter
    of the function `node` that has a default; a method's positions leave
    out self or cls."""
    if not isinstance(node, ast.FunctionDef):
        return []
    spec = node.args
    positional = spec.posonlyargs + spec.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list):
        positional = positional[1:]
    knobs = [(a.arg, i) for i, a in enumerate(positional) if i >= len(positional) - len(spec.defaults)]
    return knobs + [(a.arg, None) for a, d in zip(spec.kwonlyargs, spec.kw_defaults) if d is not None]


def unset_knobs() -> list[str]:
    """"module.qualified name(parameter)" for each knob of a public function
    or method that no caller passes.  Arguments unpacked with * or ** pass
    nothing the survey can see.  The README's code spans call nothing."""
    passed: dict[str, set] = {}  # called name -> 0-based positions and keywords passed
    for path in [*sorted(SRC.glob("*.py")), *CALLERS]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                args = passed.setdefault(node.func.id if isinstance(node.func, ast.Name) else node.func.attr, set())
                stars = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
                args |= set(range(stars[0] if stars else len(node.args)))
                args |= {kw.arg for kw in node.keywords if kw.arg is not None}
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for qualified, bare, node in _definitions(ast.parse(path.read_text())):
            args = passed.get(bare, set())
            for name, position in _knobs(node, method="." in qualified):
                if position not in args and name not in args:
                    unset.append(f"{path.stem}.{qualified}({name})")
    return unset


def test_every_public_name_has_a_caller():
    unreached = [n for n in unreached_names() if n.split(".", 1)[1] not in LEDGER_NAMES]
    assert unreached == []


def test_every_knob_is_set_by_a_caller():
    unset = []
    for knob in unset_knobs():
        qualified = knob.split(".", 1)[1]
        if qualified.split("(")[0] not in LEDGER_NAMES and qualified not in PAPER_PARAMETERS:
            unset.append(knob)
    assert unset == []


def test_paper_parameters_are_still_knobs():
    knobs = set()
    for path in SRC.glob("*.py"):
        for qualified, _, node in _definitions(ast.parse(path.read_text())):
            knobs |= {f"{qualified}({name})" for name, _ in _knobs(node, method="." in qualified)}
    assert set(PAPER_PARAMETERS) - knobs == set()


def test_ledger_names_are_still_defined():
    # `FragmentDecomposition.tally` shares its name with the benchmark ops'
    # `tally`, so the survey cannot see that it has no caller; it is listed
    # all the same
    defined = set()
    for path in SRC.glob("*.py"):
        defined |= {qualified for qualified, _, _ in _definitions(ast.parse(path.read_text()))}
    assert set(LEDGER_NAMES) - defined == set()
