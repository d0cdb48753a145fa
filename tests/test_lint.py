"""Lint step: no module of the package or of the tests imports a name it never uses, every
top-level function or class of the package has a use, every exported name has one
outside its own module, the enumerating paths make no stacked per-row products, a row
range's ancestors are worked out in one place, one function builds the Gauss rule,
reached only from the level chain, and the IBP measure side's O(l) oracle reaches no
package code beyond an allow-list."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stretched_gasket"
MODULES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name bound by an import and never referenced.

    A name listed in the module's ``__all__`` counts as referenced, so a
    package can re-export what it imports.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used | set(exported_names(tree)))


def exported_names(tree: ast.Module) -> list[str]:
    """The names a module lists in its ``__all__``."""
    return [
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]


def references(node: ast.AST) -> set[str]:
    """The names a syntax tree reads: bare names and attribute names."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreferenced_definitions(sources: dict[str, str], exported: set[str], named: str) -> list[tuple[str, str]]:
    """(module, name) of every top-level function or class of ``sources`` (module -> text) that
    no other top-level statement of them references, that is not ``exported`` and that the text
    ``named`` does not name."""
    statements = [(module, node) for module, text in sources.items() for node in ast.parse(text).body]
    uses = [(node, references(node)) for _, node in statements]
    return sorted(
        (module, node.name)
        for module, node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in names for other, names in uses if other is not node)
        and node.name not in exported
        and not re.search(rf"\b{node.name}\b", named)
    )


def test_unused_imports_are_found():
    source = "import json\nimport os.path\nfrom math import pi, tau\nimport numpy as np\n__all__ = ['tau']\nnp.zeros(os.sep)\n"
    assert unused_imports(source) == [(1, "json"), (3, "pi")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_unreferenced_definitions_are_found():
    # A self-call is no use; an export, a use in another module and a name in the
    # benchmark's text are.
    sources = {
        "a": "def used():\n    pass\n\n\ndef unused():\n    return unused()\n\n\nclass Kept:\n    pass\n\n\ndef timed():\n    pass\n",
        "b": "from a import used\n\nused()\n",
    }
    assert unreferenced_definitions(sources, exported={"Kept"}, named='TARGETS = [("a", "timed")]') == [("a", "unused")]


def test_every_package_definition_has_a_use():
    # Each top-level function or class of src/ is referenced from src/, exported, or named in
    # perfbench/ (which wraps some by name); one kept only for the tests belongs in tests/.
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    exported = set(exported_names(ast.parse(sources["__init__"])))
    named = "\n".join(path.read_text(encoding="utf-8") for path in PERFBENCH)
    assert unreferenced_definitions(sources, exported, named) == []


#: The enumerating functions, by module, whose per-row 2x2 products go through ``geometry._images``.
FLAT_PRODUCT_FUNCTIONS = {
    "geometry": {"_edge_rows"},
    "harmonicity": {"_vertex_blocks"},
    "laplacian": {"_sample_rows"},
}


def stacked_products(source: str, functions: set[str]) -> list[tuple[str, int]]:
    """(function, line) of every ``@``, ``@=`` or ``matmul`` inside the named top-level
    functions of ``source``, nested functions included."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            for sub in ast.walk(node):
                matmult = isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult)
                if matmult or getattr(sub, "id", getattr(sub, "attr", None)) == "matmul":
                    found.append((node.name, sub.lineno))
    return sorted(found)


def test_stacked_products_are_found():
    source = (
        "import numpy as np\nfrom numpy import matmul\n\n\ndef f(a, b):\n    def g():\n        return a @ b\n\n"
        "    c = np.matmul(a, b) + matmul(a, b)\n    c @= b\n    return g, np.dot(a, b)\n\n\ndef h(a, b):\n    return a @ b\n"
    )
    assert stacked_products(source, {"f"}) == [("f", 7), ("f", 9), ("f", 9), ("f", 10)]


def _package_products(functions_by_module: dict[str, set[str]]) -> list[str]:
    """module.function:line of every product ``stacked_products`` finds in the named package functions."""
    return [
        f"{module}.{name}:{line}"
        for module, functions in functions_by_module.items()
        for name, line in stacked_products((PACKAGE / f"{module}.py").read_text(encoding="utf-8"), functions)
    ]


def test_enumerating_paths_make_no_stacked_products():
    # Their per-row products are image tables of geometry._images, one GEMM each.
    assert _package_products(FLAT_PRODUCT_FUNCTIONS) == []


#: The one-object reads, by module: each is a one-row call of its table's kernel.
ONE_ROW_FUNCTIONS = {"geometry": {"word_point"}, "kusuoka": {"gibbs_tau", "cable_mass"}, "laplacian": {"teplyaev"}}


def test_one_object_reads_make_no_products_of_their_own():
    # word_point and teplyaev map their point as a one-row geometry._images table, gibbs_tau
    # is a row of kusuoka._linears and cable_mass a row of _cable_directions.
    assert _package_products(ONE_ROW_FUNCTIONS) == []


#: The functions of src/ that may read each range-walk function: a row range's ancestors are
#: worked out in ``geometry._ancestors`` alone, and every range read of map rows goes through
#: ``_word_rows``; ``compose`` (one row of any length) walks ``_word_levels`` itself, and so do
#: the two readers of every level of a walk, which ``_word_rows`` (the last level only) cannot
#: serve: ``_vertex_blocks`` (each cable generation's prefixes are the range's ancestors) and
#: ``_carrier_walk`` (the prefixes of every shallow cable generation of a range from one walk).
RANGE_WALK_READERS = {
    "_ancestors": {"geometry._word_levels", "kusuoka._linears"},
    "_word_levels": {"geometry._word_rows", "geometry.compose", "geometry._carrier_walk", "harmonicity._vertex_blocks"},
}


def readers(sources: dict[str, str], name: str) -> list[str]:
    """module.function of every top-level function or class of ``sources`` (module -> text) that
    reads ``name``, nested functions included, and module:line of every other top-level
    statement that does."""
    found = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if name in references(node):
                named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
                found.append(f"{module}.{node.name}" if named else f"{module}:{node.lineno}")
    return sorted(found)


def test_range_walk_readers_are_found():
    # An import binds no read; a nested function, an attribute read and an alias are reads.
    sources = {
        "a": "def _walk():\n    pass\n\n\ndef rows():\n    return _walk()\n\n\nstep = _walk\n",
        "b": "from a import _walk\nimport a\n\n\ndef f():\n    def g():\n        return a._walk()\n\n    return g\n",
    }
    assert readers(sources, "_walk") == ["a.rows", "a:9", "b.f"]


def test_stray_range_walk_readers_are_refused():
    # A second walk of every level beside the allowed readers, in a module that has none.
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    sources["laplacian"] += "\n\ndef _stray(seq, l):\n    return list(_word_levels(seq, l, 0, 3**l))\n"
    found = [f for f in readers(sources, "_word_levels") if f not in RANGE_WALK_READERS["_word_levels"]]
    assert found == ["laplacian._stray"]


def test_a_row_range_is_walked_in_one_place():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: [f for f in readers(sources, name) if f not in allowed] for name, allowed in RANGE_WALK_READERS.items()}
    assert found == {name: [] for name in RANGE_WALK_READERS}


#: The readers, within src/, of the Gauss rule's builder and of each step that reaches it:
#: numpy's ``leggauss`` is called by ``energy._gauss`` alone, which only the level chain's
#: segment integrals reach, built with the level tables that the chain's readouts read, from
#: the chain's two entries.
RULE_READERS = {
    "leggauss": ["energy._gauss"],
    "_gauss": ["energy._segment_integrals"],
    "_segment_integrals": ["energy._level_tables"],
    "_level_tables": ["energy._readouts"],
    "_readouts": ["energy._moment_terms", "energy._one_step"],
}


def rule_readers(sources: dict[str, str]) -> dict[str, list[str]]:
    """The readers of each name of ``RULE_READERS`` in ``sources`` (module -> text)."""
    return {name: readers(sources, name) for name in RULE_READERS}


def test_stray_rule_builders_are_found():
    # A second leggauss call beside the pass, and a module that builds the pass's rule itself.
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    sources["energy"] += "\n\ndef _stray(points):\n    return np.polynomial.legendre.leggauss(points)\n"
    sources["kusuoka"] += "\n\ndef _nodes():\n    return _gauss(8)[0]\n"
    found = rule_readers(sources)
    assert found["leggauss"] == ["energy._gauss", "energy._stray"]
    assert found["_gauss"] == ["energy._segment_integrals", "kusuoka._nodes"]


def test_one_gauss_rule_builder_reached_only_from_the_pass():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert rule_readers(sources) == RULE_READERS


#: The vertex-path functions, by module, whose row gathers go through ``np.take`` or ``np.compress``.
BASIC_INDEXING_FUNCTIONS = {
    "harmonicity": {"_vertex_blocks", "_corner_geometry", "_cell_corners", "_block_vertices", "_vertex_arrays"},
    "geometry": {"prefractal_edges", "_edge_rows"},
}


def _basic_index(node: ast.AST) -> bool:
    """Whether a subscript's index is a slice, an int, None or Ellipsis, or a tuple of these."""
    if isinstance(node, ast.Tuple):
        return all(_basic_index(elt) for elt in node.elts)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) and isinstance(node.operand, ast.Constant):
        return type(node.operand.value) is int
    constant = isinstance(node, ast.Constant) and (node.value in (None, Ellipsis) or type(node.value) is int)
    return constant or isinstance(node, ast.Slice)


def index_gathers(source: str, functions: set[str]) -> list[tuple[str, int]]:
    """(function, line) of every subscript with an index other than ``_basic_index``'s
    inside the named top-level functions of ``source``, nested functions included."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            subscripts = [sub for sub in ast.walk(node) if isinstance(sub, ast.Subscript)]
            found += [(node.name, sub.lineno) for sub in subscripts if not _basic_index(sub.slice)]
    return sorted(found)


def test_index_gathers_are_found():
    source = (
        "def f(a, i):\n    def g():\n        return a[i]\n\n"
        "    b = a[:, None, 1:2, ..., 0, -1] + a[None] + a[...] + a[-1][1:]\n"
        "    a[i, 0] = a[a > 0] + a[[0, 1]] + a[:, i] + a[-i] + a[True] + a[1.0]\n    return g\n\n\n"
        "def h(a, i):\n    return a[i]\n"
    )
    assert index_gathers(source, {"f"}) == [("f", 3)] + [("f", 6)] * 7


def test_vertex_path_gathers_rows_through_take():
    # An index-array subscript of a multi-column array runs about 10 times slower than np.take.
    found = [
        f"{module}.{name}:{line}"
        for module, functions in BASIC_INDEXING_FUNCTIONS.items()
        for name, line in index_gathers((PACKAGE / f"{module}.py").read_text(encoding="utf-8"), functions)
    ]
    assert found == []


def _readme_code() -> str:
    """The README's fenced code blocks and inline code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return "\n".join(re.findall(r"```.*?```", text, re.S) + re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S)))


def _definitions(tree: ast.Module):
    """The names a module's top-level functions, classes and assignments bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_public_surface():
    # Every name in __all__ has a use outside the module that defines it: in the CLI or
    # another module of src/, in the README's code, or in perfbench/.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    home = {name: module for module, tree in trees.items() for name in _definitions(tree)}
    used = {module: references(tree) for module, tree in trees.items() if module != "__init__"}
    readme = _readme_code()
    perfbench = set().union(*(references(ast.parse(path.read_text(encoding="utf-8"))) for path in PERFBENCH))
    unused = [
        name
        for name in exported_names(trees["__init__"])
        if not any(name in names for module, names in used.items() if module != home[name])
        and not re.search(rf"\b{name}\b", readme)
        and name not in perfbench
    ]
    assert unused == []


#: The package names that the IBP measure side's O(l) oracle (``tests/oracles.py::ibp_gasket_half``
#: with its Horner substitution) may reach: the polynomial type, the conjugation table, the map
#: triples and the barycenter.  Anything else would be code shared with the chain it checks.
ORACLE_ROOTS = ("ibp_gasket_half", "_compose_affine", "_dense")
ORACLE_ALLOWED = {"Poly2", "triple", "barycenter", "_CONJUGATIONS"}


def package_names_reached(source: str, roots) -> set[str]:
    """The names imported from the package that the top-level definitions ``roots`` of ``source``
    read, directly or through the module's other top-level functions, classes and assignments."""
    tree = ast.parse(source)
    package = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("stretched_gasket")
        for alias in node.names
    }
    local = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            local[node.name] = node
        elif isinstance(node, ast.Assign):
            local.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    found, seen, todo = set(), set(roots), list(roots)
    while todo:
        names = references(local[todo.pop()])
        found |= names & package
        todo += [name for name in names - seen if name in local]
        seen |= names
    return found


def test_a_stray_package_name_in_the_oracle_is_found():
    # A helper of the Horner substitution that reads the package's own substitution.
    source = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    marker = "    out = rows[d]\n"
    assert marker in source
    source = source.replace(marker, "    out = rows[d] + 0 * _stray(lin, off, d)\n") + "\n\ndef _stray(lin, off, d):\n    return _pullback(lin, off, d)[0, 0, 0]\n"
    assert package_names_reached(source, ORACLE_ROOTS) - ORACLE_ALLOWED == {"_pullback"}


def test_the_ibp_oracle_shares_no_code_with_the_chain():
    source = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    assert package_names_reached(source, ORACLE_ROOTS) - ORACLE_ALLOWED == set()
