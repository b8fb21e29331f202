"""What ``import e2vem`` and a solve load of scipy.

``scipy.optimize`` (with the ``scipy.spatial`` and ``scipy.fft`` it pulls
in) costs a process about 17 MiB and 0.15 s, so e2vem imports it only
for the kernel linear program of a polygon whose centroid is not a star
center. The check runs in a fresh interpreter, since this one may have
imported anything. ``python tests/test_import_footprint.py`` runs it on
the installed package instead of this checkout's sources.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports e2vem, solves honeycomb L1, whose large class takes a
#: compressed error rule (``analysis.compressed_rules`` is wrapped to see
#: it built), then builds a dart, whose centroid lies outside its kernel;
#: prints the heavy modules loaded after each.
CHECK = """
import sys
import e2vem
from e2vem import analysis

heavy = ("scipy.optimize", "scipy.spatial", "scipy.fft")
built = []

def recorded(s, compress=analysis.compressed_rules):
    rules = compress(s)
    built.extend(rules)
    return rules

analysis.compressed_rules = recorded
mesh = e2vem.make_mesh(e2vem.MeshFamilySpec("honeycomb", level=1))
result = e2vem.solve_problem(mesh, "minimal", e2vem.sin_sin_problem("poisson"))
e2vem.solution_errors(result)
assert any(rule is not None for rule in built), "no compressed rule was built"
print("solve:", *[m for m in heavy if m in sys.modules])
e2vem.build_polygon([(0, 0), (2, 2.5), (4, 0), (2, 3)])
print("dart:", *[m for m in heavy if m in sys.modules])
"""


def loaded_modules(env=None):
    """The heavy modules loaded after the solve and after the dart."""
    out = subprocess.run([sys.executable, "-c", CHECK], env=env,
                         capture_output=True, text=True, check=True).stdout
    lines = dict(line.split(":", 1) for line in out.splitlines())
    return lines["solve"].split(), lines["dart"].split()


def test_solve_leaves_scipy_optimize_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    after_solve, after_dart = loaded_modules(env)
    assert after_solve == []
    assert "scipy.optimize" in after_dart


if __name__ == "__main__":
    after_solve, after_dart = loaded_modules()
    print(f"after the solve: {after_solve}; after the dart: {after_dart}")
    sys.exit(0 if not after_solve and "scipy.optimize" in after_dart else 1)
