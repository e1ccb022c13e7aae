"""Checks on the package source and on the README's example."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cqcap
import cqcap.solver
from cqcap import errors

SOURCE_DIR = Path(cqcap.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_top_level_imports_stay_cheap():
    # importing cqcap and its CLI is part of every command's start-up, so a
    # module imports only the standard library, numpy and its own package
    # at top level
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    offenders = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {root}" for root in roots
                          if root not in allowed]
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
    # the oracles and the reference math verify the solver, so they read the
    # full state_stack, never the compressed joint-support stack it steps on
    for path in (SOURCE_DIR / "oracle.py", SOURCE_DIR / "reference.py"):
        names = set()
        for node in ast.walk(_module(path)):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        assert "state_stack" in names, path.name
        assert not names & {"support_stack", "_support_stack", "_outside_mass"}, path.name


def test_solver_path_never_imports_the_reference_math():
    # the reference math checks the solver, so no module on the solver path
    # or the package's own import reaches it
    offenders = []
    for name in ("__init__", "hermitian", "channel", "solver", "capacity", "cli"):
        for node in ast.walk(_module(SOURCE_DIR / f"{name}.py")):
            # "import cqcap.reference", "from .reference import x", "from . import reference"
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(module.split(".")[-1] == "reference" for module in imported):
                offenders.append(f"{name}.py:{node.lineno}")
    assert offenders == []


def test_importing_the_package_and_cli_leaves_the_reference_math_unloaded():
    code = "import sys, cqcap, cqcap.cli; print('cqcap.reference' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SOURCE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_importing_the_package_and_cli_leaves_hashlib_unloaded():
    # the CLI digests a channel file only when it loads one
    code = "import sys, cqcap, cqcap.cli; print('hashlib' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SOURCE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_importing_the_package_and_cli_leaves_csv_unloaded():
    # the CLI formats its trace rows itself
    code = "import sys, cqcap, cqcap.cli; print('csv' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SOURCE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_no_file_is_opened_for_writing_with_open():
    # every file the package writes goes through channel.write_in_place, which
    # writes over a file in place and never truncates it to zero
    offenders = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        for node in ast.walk(_module(path)):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
            if name in ("write_text", "write_bytes"):
                offenders.append(f"{path.name}:{node.lineno}: {name}")
            elif name == "open":
                modes = node.args + [kw.value for kw in node.keywords if kw.arg == "mode"]
                if any(isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                       and "w" in mode.value and set(mode.value) <= set("rwxabt+")
                       for mode in modes):
                    offenders.append(f"{path.name}:{node.lineno}: open")
    assert offenders == []


def test_solver_has_one_divergence_and_one_holevo_path():
    # divergences come only from the step kernel on the support stack, and
    # the final value only from holevo_quantity
    forbidden = {"state_stack", "output_state", "log_on_support", "_holevo_bits", "einsum"}
    assert sorted(_names(_module(SOURCE_DIR / "solver.py")) & forbidden) == []


def test_solve_loop_knows_no_run_mode():
    # the step rule (a fixed penalty or a solved tilt) is chosen before the
    # loop, and the loop reads it only through ``evaluate``: it neither widens
    # a bound, tests for the infinite tilt, nor solves a tilt itself
    forbidden = {"widen", "inf", "solve_tilt", "_tilt", "powers", "budget"}
    assert sorted(_names(_solve_loop()) & forbidden) == []


def test_solve_loop_reduces_nothing_for_the_trace():
    # the trace keeps only what the loop computes; a reader derives the rest
    # from the recorded iterates, so no step pays for a cost or an l1 move
    assert sorted(_names(_solve_loop()) & {"costs", "abs"}) == []


def test_capacity_is_one_solve_on_the_callers_channel():
    # every budget, the cheapest cost included, is the solver's to meet: the
    # capacity layer builds no sub-channel and knows no headroom threshold
    path = SOURCE_DIR / "capacity.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    called = [node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert "CqChannel" not in called
    assert called.count("solve_fixed_lambda") == 1
    assert "MIN_HEADROOM" not in _names(tree)


def test_library_types_own_every_parameter_check():
    # SolverConfig and GridSpec check the solve and grid parameters: the
    # capacity layer raises nothing itself, and the CLI only maps BadParams
    # to its exit code
    capacity = _module(SOURCE_DIR / "capacity.py")
    assert [node.lineno for node in ast.walk(capacity) if isinstance(node, ast.Raise)] == []
    raises = [node for node in ast.walk(_module(SOURCE_DIR / "cli.py"))
              if isinstance(node, ast.Raise)]
    assert [node.lineno for node in raises if "BadParams" in _names(node)] == []


def _module(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _solve_loop():
    """The ``while`` loop of ``solve_fixed_lambda``."""
    solve = next(node for node in _module(SOURCE_DIR / "solver.py").body
                 if isinstance(node, ast.FunctionDef) and node.name == "solve_fixed_lambda")
    return next(node for node in ast.walk(solve) if isinstance(node, ast.While))


def _names(tree):
    """Every attribute, name and imported name mentioned under an AST node."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_one_function_solves_every_newton_kkt_system():
    # _newton_proposal forms the active set, solves the KKT system and takes
    # the blocking letters out, and allocates its matrix at its final size
    # rather than stacking the budget's border onto it
    tree = _module(SOURCE_DIR / "solver.py")
    assert "_take_out" not in [node.name for node in ast.walk(tree)
                               if isinstance(node, ast.FunctionDef)]
    proposal = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_newton_proposal")
    solves = [node.lineno for node in ast.walk(tree) if _called(node) == "solve"]
    assert solves and solves == [node.lineno for node in ast.walk(proposal)
                                 if _called(node) == "solve"]
    stacked = [node.lineno for node in ast.walk(tree)
               if _called(node) in ("vstack", "column_stack")]
    assert stacked == []


def test_a_newton_proposal_factors_its_kkt_matrix_once():
    # the one solve, on [rhs | I], comes before the take-out loop, whose
    # letters leave by sweeping the inverse rather than by solving sub-blocks
    tree = _module(SOURCE_DIR / "solver.py")
    assert [node.lineno for node in ast.walk(tree) if _called(node) == "ix_"] == []
    proposal = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_newton_proposal")
    assert len([node for node in ast.walk(proposal) if _called(node) == "solve"]) == 1
    looped = [node.lineno for loop in ast.walk(proposal) if isinstance(loop, (ast.For, ast.While))
              for node in ast.walk(loop) if _called(node) == "solve"]
    assert looped == []


def _called(node):
    """The last name of what a call node calls, such as ``solve``; "" for any other node."""
    if not isinstance(node, ast.Call):
        return ""
    return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")


def test_validation_has_three_tolerances_and_one_eigenvalue_call():
    # the rank-one test's bound derives from EIGENVALUE_REL rather than adding
    # a knob, and the states that fail it share one batched eigvalsh; the
    # test itself runs once, on the whole stack, so one rule covers every state
    tree = _module(SOURCE_DIR / "hermitian.py")
    assigned = [target for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in getattr(node, "targets", [getattr(node, "target", None)])]
    tolerances = {target.id for target in assigned if isinstance(target, ast.Name)
                  and target.id.endswith(("_TOL", "_REL"))}
    assert tolerances == {"HERMITIAN_TOL", "TRACE_TOL", "EIGENVALUE_REL"}
    validate = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_validate_stack")
    for name in ("eigvalsh", "_rank_one"):
        assert len([node for node in ast.walk(validate) if _called(node) == name]) == 1
        looped = [node.lineno for loop in ast.walk(validate)
                  if isinstance(loop, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp))
                  for node in ast.walk(loop) if _called(node) == name]
        assert looped == []


def test_solver_leaves_the_support_layout_to_the_channel():
    # the step kernel lives in channel.py; the solver takes no spectrum and
    # reads no private field of a channel itself
    assert cqcap.solver._spectral_terms.__module__ == "cqcap.channel"
    forbidden = {"eigh", "eigvalsh", "_packed_support", "_outside_mass", "_support_mixture",
                 "support_stack", "EIGENVALUE_REL"}
    assert sorted(_names(_module(SOURCE_DIR / "solver.py")) & forbidden) == []


def test_readme_quick_start_runs_and_prints_the_documented_values():
    # the first python block of the README, run as written
    code = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert float(lines[0]) == pytest.approx(0.6008760366928562, abs=1e-6)
    # the budgeted line prints capacity, expected cost and multiplier
    assert float(lines[-1].split()[1]) == pytest.approx(0.3, abs=1e-12)
