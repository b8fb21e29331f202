import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import e2vem
from e2vem import analysis, cli


def run_cli(*argv):
    return cli.main(list(argv))


def test_coercivity_table_csv(tmp_path):
    out = tmp_path / "reg.csv"
    assert run_cli("coercivity", "--family", "regular",
                   "--n-range", "3..6", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "n_vertices,ell_hat,ell_check,minimal_l,dim_badpoly_at_minimal"
    body = lines[3:]
    assert [int(r.split(",")[3]) for r in body] == [0, 1, 1, 2]
    cfg = json.loads(lines[0].removeprefix("# config: "))
    assert cfg["command"] == "coercivity"
    assert cfg["family"] == "regular"


def test_coercivity_stdout_matches_csv(tmp_path, capsys):
    args = ("coercivity", "--family", "split_triangle", "--n-range", "3..7")
    out = tmp_path / "split.csv"
    assert run_cli(*args, "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli(*args) == 0
    printed = capsys.readouterr().out.splitlines()
    written = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert printed == written and len(written) == 6


def test_coercivity_default_counts(capsys):
    # without --n-range the scan covers the family's default counts
    assert run_cli("coercivity", "--family", "regular") == 0
    printed = capsys.readouterr().out.splitlines()
    expected = analysis.scan_csv_lines(
        analysis.coercivity_scan("regular", range(3, 21)))
    assert printed == expected and len(printed) == 19


def test_unknown_family_is_config_error(tmp_path):
    assert run_cli("coercivity", "--family", "no_such",
                   "--out", str(tmp_path / "x.csv")) == 2


def test_meshgen_validate_solve_roundtrip(tmp_path):
    mesh_path = tmp_path / "mesh.json"
    assert run_cli("meshgen", "--family", "square_grid", "--levels", "0",
                   "--out", str(mesh_path)) == 0
    data = json.loads(mesh_path.read_text())
    assert len(data["cells"]) == 16
    assert data["config"]["family"] == "square_grid"

    assert run_cli("validate", "--mesh", str(mesh_path)) == 0

    sol_path = tmp_path / "sol.json"
    assert run_cli("solve", "--mesh", str(mesh_path), "--problem", "poisson",
                   "--strategy", "minimal", "--out", str(sol_path)) == 0
    sol = json.loads(sol_path.read_text())
    assert sol["config"]["strategy"] == "minimal"
    assert len(sol["vertex_values"]) == len(data["vertices"])
    assert len(sol["degrees"]) == 16


def test_solve_zero_source_zero_solution(tmp_path, monkeypatch):
    mesh_path = tmp_path / "mesh.json"
    run_cli("meshgen", "--family", "square_grid", "--levels", "0",
            "--out", str(mesh_path))
    # route the poisson problem to a zero source via a tiny config shim
    from e2vem import assembly

    monkeypatch.setattr(
        cli, "_problem",
        lambda kind_flag: assembly.ProblemSpec("poisson", f=0.0))
    sol_path = tmp_path / "zero.json"
    assert run_cli("solve", "--mesh", str(mesh_path),
                   "--out", str(sol_path)) == 0
    sol = json.loads(sol_path.read_text())
    assert not any(sol["vertex_values"])


def test_solve_reports_hierarchy_and_rejects_bad_tol(tmp_path, capsys):
    mesh_path = tmp_path / "grid.json"
    run_cli("meshgen", "--family", "square_grid", "--levels", "4",
            "--out", str(mesh_path))
    capsys.readouterr()
    assert run_cli("solve", "--mesh", str(mesh_path), "--solver", "cg",
                   "--out", str(tmp_path / "x.json")) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("solved: 3969 dofs, method=cg, iterations=")
    sizes = [int(v) for v in line.split("levels=")[1].split("/")]
    assert sizes[0] == 3969 and len(sizes) >= 2 and sizes[-1] <= 1200
    assert sizes == sorted(sizes, reverse=True)
    # a bad tolerance is a bad argument (2), not a solver failure (4)
    assert run_cli("solve", "--mesh", str(mesh_path), "--solver", "cg",
                   "--tol", "0", "--out", str(tmp_path / "y.json")) == 2


def test_exit_code_admissibility(tmp_path):
    mesh_path = tmp_path / "honey.json"
    run_cli("meshgen", "--family", "honeycomb", "--levels", "0",
            "--out", str(mesh_path))
    assert run_cli("solve", "--mesh", str(mesh_path),
                   "--strategy", "ell-check",
                   "--out", str(tmp_path / "x.json")) == 3
    assert run_cli("solve", "--mesh", str(mesh_path),
                   "--strategy", "fixed:1",
                   "--out", str(tmp_path / "y.json")) == 3


def test_exit_code_solver_failure(tmp_path, monkeypatch):
    from e2vem.errors import NotSPD

    mesh_path = tmp_path / "mesh.json"
    run_cli("meshgen", "--family", "square_grid", "--levels", "0",
            "--out", str(mesh_path))

    def explode(*args, **kwargs):
        raise NotSPD("synthetic breakdown")

    monkeypatch.setattr(cli, "solve_problem", explode)
    assert run_cli("solve", "--mesh", str(mesh_path),
                   "--out", str(tmp_path / "x.json")) == 4


def test_exit_code_unused_vertex(tmp_path, capsys):
    # a vertex that no cell uses is a bad mesh (2), not a solver failure (4)
    mesh = e2vem.make_mesh(e2vem.MeshFamilySpec("square_grid", level=0))
    mesh_path = tmp_path / "extra.json"
    e2vem.save_mesh(e2vem.PolygonalMesh(
        np.vstack([mesh.vertices, [(0.3, 0.6)]]), mesh.cells), mesh_path)
    assert run_cli("validate", "--mesh", str(mesh_path)) == 2
    assert run_cli("solve", "--mesh", str(mesh_path),
                   "--out", str(tmp_path / "x.json")) == 2
    assert "vertex 25 is used by no cell" in capsys.readouterr().err


def test_exit_code_rate_band(tmp_path):
    code = run_cli("convergence", "--family", "square_grid", "--levels", "3",
                   "--rate-band-l2", "2.05,2.1",
                   "--out", str(tmp_path / "c.csv"))
    assert code == 5


def test_convergence_csv_and_config_echo(tmp_path):
    out = tmp_path / "conv.csv"
    assert run_cli("convergence", "--family", "square_grid", "--levels", "2",
                   "--problem", "poisson",
                   "--rate-band-l2", "1.0,3.0", "--rate-band-h1", "0.5,1.5",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    cfg = json.loads(lines[0].removeprefix("# config: "))
    assert cfg["levels"] == 2
    assert cfg["rate_band_l2"] == [1.0, 3.0]
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "h,ncells,dofs,err_l2,err_h1,rate_l2,rate_h1"
    first = lines[lines.index(header) + 1]
    assert first.endswith(",,")
    assert lines[-1].startswith("# fitted: ")


def test_embedded_config_lists_every_option(tmp_path):
    mesh, sol, scan, conv = (tmp_path / name for name in
                             ("m.json", "s.json", "c.csv", "v.csv"))
    assert run_cli("meshgen", "--out", str(mesh)) == 0
    assert run_cli("solve", "--mesh", str(mesh), "--out", str(sol)) == 0
    assert run_cli("coercivity", "--n-range", "3..4", "--out", str(scan)) == 0
    assert run_cli("convergence", "--family", "square_grid", "--levels", "2",
                   "--rate-band-l2", "0,9", "--rate-band-h1", "0,9",
                   "--out", str(conv)) == 0
    configs = [json.loads(p.read_text())["config"] for p in (mesh, sol)]
    configs += [json.loads(p.read_text().splitlines()[0]
                           .removeprefix("# config: ")) for p in (scan, conv)]
    assert [list(c) for c in configs] == [
        ["command", "family", "levels", "out"],
        ["command", "load_mode", "mesh", "out", "problem", "solver",
         "strategy", "tol"],
        ["command", "family", "n_range", "out", "seed"],
        ["command", "family", "levels", "load_mode", "out", "problem",
         "rate_band_h1", "rate_band_l2", "solver", "strategy", "tol"]]


def test_convergence_insufficient_levels(tmp_path):
    assert run_cli("convergence", "--family", "square_grid", "--levels", "1",
                   "--out", str(tmp_path / "c.csv")) == 2


def test_config_file_drives_run(tmp_path):
    out = tmp_path / "co.csv"
    cfg = {"command": "coercivity", "family": "concave_octagon",
           "out": str(out)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("--config", str(cfg_path)) == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert [int(r.split(",")[3]) for r in body] == [2, 2, 2, 2]


def test_config_file_flag_precedence(tmp_path):
    # explicit flags win over config file values
    out = tmp_path / "r.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"command": "coercivity", "family": "regular", "n_range": "3..4"}))
    assert run_cli("--config", str(cfg_path), "coercivity",
                   "--n-range", "5..6", "--out", str(out)) == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert [int(r.split(",")[0]) for r in body] == [5, 6]


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{broken")
    assert run_cli("--config", str(cfg)) == 2
    cfg.write_text('{"command": "transcend"}')
    assert run_cli("--config", str(cfg)) == 2


@pytest.mark.parametrize("band", [[1.9], "abc", [1.9, "x"], [None, None]])
def test_bad_config_band_is_config_error(tmp_path, capsys, band):
    cfg = tmp_path / "band.json"
    cfg.write_text(json.dumps({"command": "convergence", "rate_band_l2": band}))
    assert run_cli("--config", str(cfg)) == 2
    assert "error: argument --rate-band-l2: " in capsys.readouterr().err


@pytest.mark.parametrize("entry, option", [
    ({"command": "convergence", "levels": 2.5}, "--levels"),
    ({"command": "coercivity", "seed": [1]}, "--seed"),
    ({"command": "coercivity", "seed": True}, "--seed"),
], ids=["float_levels", "list_seed", "bool_seed"])
def test_bad_config_entry_refused_as_its_flag(tmp_path, capsys, entry, option):
    # the first ended in a TypeError traceback, the others ran as valid
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(entry))
    assert run_cli("--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: invalid int value" in err
    assert "Traceback" not in err


def test_null_config_entry_is_left_out(tmp_path):
    out = tmp_path / "co.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "coercivity", "family": None,
                               "n_range": "3..4", "seed": None,
                               "out": str(out), "unknown": 1}))
    assert run_cli("--config", str(cfg)) == 0
    echoed = json.loads(out.read_text().splitlines()[0]
                        .removeprefix("# config: "))
    assert (echoed["family"], echoed["seed"]) == ("regular", 0)


def _without_stamp(path):
    return [line for line in path.read_text().splitlines()
            if not line.lstrip().startswith(('"generated": ', "# generated: "))]


def _embedded_config(path):
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["config"]
    return json.loads(text.splitlines()[0].removeprefix("# config: "))


def test_embedded_config_replays_to_the_same_output(tmp_path, monkeypatch):
    # replaying a meshgen or solve config exited 2: the file's values
    # were defaults, which argparse's required options ignore
    monkeypatch.chdir(tmp_path)
    for argv in (("meshgen", "--family", "honeycomb", "--levels", "1",
                  "--out", "m.json"),
                 ("solve", "--mesh", "m.json", "--solver", "cg",
                  "--out", "s.json"),
                 ("coercivity", "--n-range", "3..6", "--out", "c.csv"),
                 ("convergence", "--family", "square_grid", "--levels", "2",
                  "--rate-band-l2", "0,9", "--rate-band-h1", "0,9",
                  "--out", "v.csv")):
        assert run_cli(*argv) == 0
        out = Path(argv[-1])
        before = _without_stamp(out)
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(_embedded_config(out)))
        out.unlink()
        assert run_cli("--config", str(cfg)) == 0
        assert _without_stamp(out) == before


def test_solve_and_convergence_write_to_stdout_without_out(tmp_path, capsys):
    mesh = tmp_path / "m.json"
    assert run_cli("meshgen", "--levels", "1", "--out", str(mesh)) == 0
    capsys.readouterr()
    assert run_cli("solve", "--mesh", str(mesh), "--problem", "diffreact") == 0
    out = capsys.readouterr().out
    assert out.startswith("solved: ")
    payload = json.loads(out[out.index("{"):])
    assert payload["config"]["problem"] == "diffreact"
    assert payload["config"]["out"] is None
    assert run_cli("convergence", "--family", "square_grid", "--levels", "2",
                   "--rate-band-l2", "0,9", "--rate-band-h1", "0,9") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["h=0.353553", "h=0.176777",
                                                   "fitted"]


def test_empty_n_range_refused():
    with pytest.raises(ValueError, match="empty n-range ','"):
        cli.parse_n_range(",")


def test_reruns_identical_modulo_timestamp(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        run_cli("coercivity", "--family", "random_convex", "--n-range",
                "4..8", "--seed", "3", "--out", str(path))
        lines = [l for l in path.read_text().splitlines()
                 if not l.startswith("# generated:")]
        # the embedded config echoes the output path; normalize it
        lines[0] = lines[0].replace(name, "OUT")
        outs.append(lines)
    assert outs[0] == outs[1]


#: six 65-degree triangles round vertex 0: they turn 390 degrees there
FAN = ([(0.0, 0.0)] + [(np.cos(a), np.sin(a))
                       for a in np.radians(65.0 * np.arange(7))],
       [[0, k, k + 1] for k in range(1, 7)])
#: seven triangles round vertex 0, with rim vertices every 720/7 degrees:
#: every spoke is used once each way, yet they cover the disc twice
DOUBLE_DISC = ([(0.0, 0.0)] + [(np.cos(a), np.sin(a))
                               for a in np.radians(720.0 / 7 * np.arange(7))],
               [[0, k, k % 7 + 1] for k in range(1, 8)])


def test_invalid_cell_named_by_validate_and_solve(tmp_path, capsys):
    from e2vem.geometry import PolygonalMesh
    from e2vem.meshgen import save_mesh

    grid = [(x, y) for y in range(3) for x in range(3)]
    square = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
    for vertices, cells, message in (
            # a 2 x 2 square grid with cell 2 in clockwise order
            (grid, [[0, 1, 4, 3], [1, 2, 5, 4], [6, 7, 4, 3], [4, 5, 8, 7]],
             "cell 2"),
            # four triangles round the square's center, the first twice
            (square, [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4], [0, 1, 4]],
             "cell 4: edge (0, 1) already used with the same orientation "
             "by cell 0"),
            (*FAN, "cells overlap at vertex 0"),
            (*DOUBLE_DISC, "cell 6: cells overlap at vertex 0")):
        mesh_path = tmp_path / "defective.json"
        save_mesh(PolygonalMesh(vertices, cells), mesh_path)
        capsys.readouterr()
        for argv in (("validate", "--mesh", str(mesh_path)),
                     ("solve", "--mesh", str(mesh_path),
                      "--out", str(tmp_path / "x.json"))):
            assert run_cli(*argv) == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


def test_missing_mesh_file(tmp_path):
    assert run_cli("solve", "--mesh", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "x.json")) == 2


def test_no_command_shows_help():
    assert run_cli() == 2


def test_console_script_help_runs():
    # the subprocess imports the same e2vem as this test, installed or not
    src = str(Path(e2vem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "e2vem.cli", "--help"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "coercivity" in proc.stdout
