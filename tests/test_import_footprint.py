"""What ``import e2vem``, the solves and the error norms load of scipy.

e2vem needs ``scipy.sparse`` and no other scipy subpackage on its import,
solve and error path. ``scipy.linalg`` costs a process about 8 MiB and
0.1 s, and loads a second OpenBLAS runtime; ``scipy.special`` about
3.4 MiB. ``scipy.optimize`` (with the ``scipy.spatial`` and ``scipy.fft``
it pulls in) costs about 17 MiB and 0.15 s, so e2vem imports it only for
the kernel linear program of a polygon whose centroid is not a star
center. The check runs in a fresh interpreter, since this one may have
imported anything. ``python tests/test_import_footprint.py`` runs it on
the installed package instead of this checkout's sources.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports e2vem, solves honeycomb L1 by Cholesky and by CG, takes the
#: error norms, whose large class takes a compressed error rule
#: (``analysis.compressed_rules`` is wrapped to see it built), then builds
#: a dart, whose centroid lies outside its kernel; prints the heavy
#: modules loaded after each step.
CHECK = """
import sys
import e2vem
from e2vem import analysis

heavy = ("scipy.linalg", "scipy.special", "scipy.optimize", "scipy.spatial",
         "scipy.fft")
built = []

def recorded(s, compress=analysis.compressed_rules):
    rules = compress(s)
    built.extend(rules)
    return rules

def report(step):
    print(step + ":", *[m for m in heavy if m in sys.modules])

report("import")
analysis.compressed_rules = recorded
mesh = e2vem.make_mesh(e2vem.MeshFamilySpec("honeycomb", level=1))
problem = e2vem.sin_sin_problem("poisson")
for solver in ("cholesky", "cg"):
    result = e2vem.solve_problem(mesh, "minimal", problem, solver=solver)
    assert result.stats.method == solver
    report(solver)
e2vem.solution_errors(result)
assert any(rule is not None for rule in built), "no compressed rule was built"
report("errors")
e2vem.build_polygon([(0, 0), (2, 2.5), (4, 0), (2, 3)])
report("dart")
"""

#: The steps before the dart, which must load none of the heavy modules.
STEPS = ("import", "cholesky", "cg", "errors")


def loaded_modules(env=None):
    """The heavy modules loaded after each step of ``CHECK``, by step."""
    out = subprocess.run([sys.executable, "-c", CHECK], env=env,
                         capture_output=True, text=True, check=True).stdout
    return {step: names.split()
            for step, names in (line.split(":", 1)
                                for line in out.splitlines())}


def footprint_holds(loaded) -> bool:
    return (all(loaded[step] == [] for step in STEPS)
            and "scipy.optimize" in loaded["dart"])


def test_solve_leaves_scipy_optimize_unloaded():
    # and scipy.linalg and scipy.special too: scipy.sparse alone until
    # the dart
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    loaded = loaded_modules(env)
    assert footprint_holds(loaded), loaded


if __name__ == "__main__":
    loaded = loaded_modules()
    print(", ".join(f"after {step}: {names}" for step, names in loaded.items()))
    sys.exit(0 if footprint_holds(loaded) else 1)
