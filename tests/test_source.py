"""Static checks on the package source."""

import ast
from pathlib import Path

import cqcap
from cqcap import errors

SOURCE_DIR = Path(cqcap.__file__).resolve().parent


def test_no_runtime_asserts_or_debug_switches():
    # both vanish under ``python -O``; runtime invariants must raise typed errors
    offenders = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Name) and node.id == "__debug__":
                offenders.append(f"{path.name}:{node.lineno}: __debug__")
    assert offenders == []


def test_every_error_type_is_raised():
    raised = set()
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name):
                    raised.add(target.id)
                elif isinstance(target, ast.Attribute):
                    raised.add(target.attr)
    defined = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.CqcapError)
        and obj is not errors.CqcapError
    }
    assert sorted(defined - raised) == []


def test_oracles_stay_off_the_solver_basis():
    # the oracles verify the solver, so they read the full state_stack,
    # never the compressed joint-support stack the solver steps on
    path = SOURCE_DIR / "oracle.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    assert "state_stack" in names
    assert not names & {"support_stack", "_support_stack", "_outside_mass"}


def test_solver_has_one_divergence_and_one_holevo_path():
    # divergences come only from the step kernel on the support stack, and
    # the final value only from holevo_quantity
    path = SOURCE_DIR / "solver.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    forbidden = {"state_stack", "output_state", "log_on_support", "_holevo_bits", "einsum"}
    assert sorted(names & forbidden) == []
