"""Record the reference degree histograms and errors of every workload at
the default seed into ``references.json``.

The references are the outcomes of ``run.timed_run`` on the inputs of the
first timed run at the default seed, so they are computed exactly as the
benchmark computes what it checks. Run from the root of a source
checkout, only when the numerics are meant to change::

    python3 perfbench/record_references.py
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    e2vem = run.import_library()
    import workloads

    mesh_cached = run.cached_names(e2vem.PolygonalMesh)
    refs = {}
    for name, workload in workloads.WORKLOADS.items():
        base, _ = workloads.make_base(workload)
        inputs = workloads.make_inputs(workload, base,
                                       workloads.DEFAULT_SEED, 0)
        outcomes = run.timed_run(e2vem, workload, workload.problem(), inputs,
                                 mesh_cached)
        entries = [{"degree_histogram":
                    workloads.degree_histogram(o["degrees"].levels),
                    "l2": o["errors"][0], "h1": o["errors"][1]}
                   for o in outcomes]
        refs[name] = entries
        print(name, entries, flush=True)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
