"""AST lint: the count of broad ``except`` handlers in ``src/repro`` only falls.

A broad handler catches ``Exception`` (alone or in a tuple) or is a bare
``except:``.  Each one can hide a failure a chaos invariant should have
seen, so the ceiling below is exact: adding one fails this test, and a
change that narrows one must lower the ceiling in the same commit.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

BROAD_EXCEPT_CEILING = 31

# Broad handlers whose whole body is ``pass``: the error vanishes without
# a trace.  Keyed by file (relative to src/repro) and enclosing function.
PASS_ONLY = {
    ("ots/coordinator.py", "Transaction._finish"),
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id == "Exception" for t in types)


class _Finder(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.scope = []
        self.found = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if _is_broad(node):
            pass_only = all(isinstance(stmt, ast.Pass) for stmt in node.body)
            self.found.append((self.path, ".".join(self.scope), node.lineno, pass_only))
        self.generic_visit(node)


def broad_handlers():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        finder = _Finder(path.relative_to(SRC).as_posix())
        finder.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        found.extend(finder.found)
    return found


def test_broad_except_count_is_at_the_ceiling():
    found = broad_handlers()
    listing = "\n".join(f"  {p}:{line} in {scope}" for p, scope, line, _ in found)
    assert len(found) <= BROAD_EXCEPT_CEILING, (
        f"{len(found)} broad except handlers in src/repro, ceiling is "
        f"{BROAD_EXCEPT_CEILING}: catch the specific error instead.\n{listing}"
    )
    assert len(found) == BROAD_EXCEPT_CEILING, (
        f"{len(found)} broad except handlers, below the ceiling of "
        f"{BROAD_EXCEPT_CEILING}: lower BROAD_EXCEPT_CEILING to {len(found)}."
    )


def test_pass_only_handlers_are_the_known_one():
    pass_only = {(p, scope) for p, scope, _, only in broad_handlers() if only}
    assert pass_only == PASS_ONLY
