"""Every name the benchmark reaches in ``taquin`` still resolves.

``bench/`` is not a package and its runs are not part of this suite, so a
pruned or renamed name would otherwise show only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _module(name: str):
    """``taquin.<name>``; the workloads reach the package itself as ``tq.pkg``."""
    return importlib.import_module("taquin" if name == "pkg" else f"taquin.{name}")


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for module, path in spans.TARGETS:
        home = _module(module)
        if "." in path:  # ``Tracer.install`` wraps the class's own attribute
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(home, cls_name, object))
        else:
            found = hasattr(home, path)
        if not found:
            missing.append(f"{module}.{path}")
    assert missing == []


def _tq_module(node: ast.AST) -> str | None:
    """``m`` for an expression ``tq.m`` or ``self.tq.m``, else None."""
    if not isinstance(node, ast.Attribute):
        return None
    owner = node.value
    if (isinstance(owner, ast.Name) and owner.id == "tq") or (
        isinstance(owner, ast.Attribute) and owner.attr == "tq"
    ):
        return node.attr
    return None


def workload_references() -> set[tuple[str, str]]:
    """(module, name) for each ``tq.<module>.<name>`` in workloads.py, also through aliases.

    An alias is a local name bound to ``tq.<module>``, as in
    ``io, hms = tq.jsonio, tq.hms`` or ``rsk = self.tq.rsk``.
    """
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = list(zip(target.elts, value.elts))
            else:
                pairs = [(target, value)]
            for name, bound in pairs:
                if isinstance(name, ast.Name) and _tq_module(bound):
                    aliases[name.id] = _tq_module(bound)
    references = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            module = _tq_module(base)
            if module is None and isinstance(base, ast.Name):
                module = aliases.get(base.id)
            if module is not None:
                references.add((module, node.attr))
    return references


def test_workload_references_resolve():
    references = workload_references()
    # The scan must see direct uses and uses through each kind of alias.
    assert {("randgen", "random_standard_filling"), ("jsonio", "encode_tableau"),
            ("hms", "turnaround_sequential"), ("rsk", "rsk_inverse")} <= references
    missing = [f"{m}.{name}" for m, name in sorted(references) if not hasattr(_module(m), name)]
    assert missing == []
