"""What ``import e2vem``, the solves and the error norms load of scipy.

A system of at most ``assembly._DENSE_ROWS`` rows is stored dense, so
``import e2vem``, both solvers on such a system and the error norms load
no scipy module at all; ``scipy.sparse`` costs a process about 20 MiB and
0.15 s. Only CG above ``_DENSE_ROWS`` rows, whose multigrid levels are
CSR, loads ``scipy.sparse``, and it loads no other scipy subpackage:
``scipy.linalg`` costs about 8 MiB and 0.1 s and loads a second OpenBLAS
runtime, ``scipy.special`` about 3.4 MiB. ``scipy.optimize`` (with the
``scipy.spatial`` and ``scipy.fft`` it pulls in) costs about 17 MiB and
0.15 s, so e2vem imports it only for the kernel linear program of a
polygon whose centroid is not a star center. The check runs in a fresh
interpreter, since this one may have imported anything.
``python tests/test_import_footprint.py`` runs it on the installed
package instead of this checkout's sources.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports e2vem, solves honeycomb L0 (540 free DOFs) by Cholesky and by
#: CG, takes the error norms, whose large class takes a compressed error
#: rule (``analysis.compressed_rules`` is wrapped to see it built), solves
#: honeycomb L1 (2,196 free DOFs) by CG, then builds a dart, whose
#: centroid lies outside its kernel; prints the watched scipy modules
#: loaded after each step.
CHECK = """
import sys
import e2vem
from e2vem import analysis

watched = ("scipy", "scipy.sparse", "scipy.linalg", "scipy.special",
           "scipy.optimize", "scipy.spatial", "scipy.fft")
built = []

def recorded(s, compress=analysis.compressed_rules):
    rules = compress(s)
    built.extend(rules)
    return rules

def report(step):
    print(step + ":", *[m for m in watched if m in sys.modules])

report("import")
analysis.compressed_rules = recorded
problem = e2vem.sin_sin_problem("poisson")
mesh = e2vem.make_mesh(e2vem.MeshFamilySpec("honeycomb", level=0))
for solver in ("cholesky", "cg"):
    result = e2vem.solve_problem(mesh, "minimal", problem, solver=solver)
    assert result.stats.method == solver and result.n_dofs == 540
    report(solver)
e2vem.solution_errors(result)
assert any(rule is not None for rule in built), "no compressed rule was built"
report("errors")
mesh = e2vem.make_mesh(e2vem.MeshFamilySpec("honeycomb", level=1))
result = e2vem.solve_problem(mesh, "minimal", problem, solver="cg")
assert len(result.stats.levels) > 1 and result.n_dofs == 2196
report("cg-levels")
e2vem.build_polygon([(0, 0), (2, 2.5), (4, 0), (2, 3)])
report("dart")
"""

#: The steps on systems of at most ``_DENSE_ROWS`` rows, which must load
#: no scipy module.
DENSE_STEPS = ("import", "cholesky", "cg", "errors")


def loaded_modules(env=None):
    """The watched scipy modules loaded after each step of ``CHECK``, by
    step."""
    out = subprocess.run([sys.executable, "-c", CHECK], env=env,
                         capture_output=True, text=True, check=True).stdout
    return {step: names.split()
            for step, names in (line.split(":", 1)
                                for line in out.splitlines())}


def footprint_holds(loaded) -> bool:
    return (all(loaded[step] == [] for step in DENSE_STEPS)
            and loaded["cg-levels"] == ["scipy", "scipy.sparse"]
            and "scipy.optimize" in loaded["dart"])


def test_solve_leaves_scipy_optimize_unloaded():
    # and every other scipy module on systems of at most _DENSE_ROWS
    # rows: scipy.sparse alone for multigrid CG, until the dart
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    loaded = loaded_modules(env)
    assert footprint_holds(loaded), loaded


if __name__ == "__main__":
    loaded = loaded_modules()
    print(", ".join(f"after {step}: {names}" for step, names in loaded.items()))
    sys.exit(0 if footprint_holds(loaded) else 1)
