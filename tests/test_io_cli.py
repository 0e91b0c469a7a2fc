import json

import numpy as np
import pytest

from covpom import io
from covpom.abelian import (
    DiagonalRep,
    FiniteAbelianGroup,
    RepBlock,
    Subgroup,
    canonical_phase_vectors,
    phase_pom,
    random_isometries,
)
from covpom.cli import build_parser, main
from covpom.grids import symmetric_grid
from covpom.hilbert import IntervalCell, Operator, PointCell, RectCell, pure_state
from covpom.phasespace import gaussian_wavefunction
from covpom.posmom import ProbMeasure1D


class TestRoundTrips:
    def test_operator(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op = Operator(mat)
        back = io.operator_from_json(json.loads(json.dumps(io.operator_to_json(op))))
        np.testing.assert_allclose(back.mat, op.mat)

    def test_state_spectral(self):
        st = pure_state([1.0, 1.0j])
        back = io.state_from_json(json.loads(json.dumps(io.state_to_json(st))))
        np.testing.assert_allclose(back.op.mat, st.op.mat, atol=1e-12)

    def test_pom_with_mixed_cells(self):
        pom = phase_pom(canonical_phase_vectors(3), np.linspace(0, 2 * np.pi, 5))
        back = io.pom_from_json(json.loads(json.dumps(io.pom_to_json(pom))))
        assert back.space_tag == pom.space_tag
        assert isinstance(back.outcomes[0].cell, IntervalCell)
        for e1, e2 in zip(back.effects, pom.effects):
            np.testing.assert_allclose(e1.op.mat, e2.op.mat, atol=1e-15)

    def test_operator_encoding_matches_per_entry_form(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        mat[0, :4] = [-0.0, 5e-324, 1e300 - 1e-300j, complex(0.1, -0.0)]
        entries = io.operator_to_json(Operator(mat))["entries"]
        per_entry = [io.complex_to_json(z) for z in mat.ravel()]
        # json text, so signed zeros and every digit count
        assert json.dumps(entries) == json.dumps(per_entry)

    def test_cells(self):
        for cell in (PointCell((1, 2)), IntervalCell(0.0, 1.5), RectCell(0, 1, -2, 3)):
            back = io._cell_from_json(io._cell_to_json(cell))
            assert back == cell

    def test_measure(self):
        g = symmetric_grid(64, 5.0)
        m = ProbMeasure1D.from_density(
            g, np.exp(-g.positions() ** 2), atoms=((0.5, 0.25),), normalize=True
        )
        back = io.measure_from_json(json.loads(json.dumps(io.measure_to_json(m))))
        assert back.atoms == m.atoms
        np.testing.assert_allclose(back.density, m.density, atol=1e-15)
        assert back.grid == m.grid

    def test_group_side(self):
        g = FiniteAbelianGroup((2, 4))
        sub = Subgroup.from_generators(g, [(1, 2)])
        rep = DiagonalRep(
            g,
            (
                RepBlock.from_mapping({(0, 0): 1.0, (1, 1): 0.5}, 1),
                RepBlock.from_mapping({(0, 2): 2.0}, 2),
            ),
        )
        fam = random_isometries(rep, 3, np.random.default_rng(1))
        g2 = io.group_from_json(io.group_to_json(g))
        assert g2 == g
        sub2 = io.subgroup_from_json(json.loads(json.dumps(io.subgroup_to_json(sub))))
        assert sub2.elements == sub.elements
        rep2 = io.rep_from_json(json.loads(json.dumps(io.rep_to_json(rep))))
        assert rep2.blocks == rep.blocks
        fam2 = io.isometries_from_json(
            json.loads(json.dumps(io.isometries_to_json(fam)))
        )
        for k in range(2):
            for x in rep.blocks[k].support():
                np.testing.assert_allclose(
                    fam2.matrix(k, x), fam.matrix(k, x), atol=1e-15
                )

    def test_wavefunction(self):
        g = symmetric_grid(32, 4.0)
        psi = gaussian_wavefunction(g)
        back = io.wavefunction_from_json(
            json.loads(json.dumps(io.wavefunction_to_json(psi)))
        )
        np.testing.assert_allclose(back.values, psi.values, atol=1e-15)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestCli:
    def test_parser_built_once_calls_share_no_state(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert build_parser() is build_parser()
        assert main(["phase", "--dim", "2", "--out", "f.json"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]
        (tmp_path / "f.json").unlink()
        assert main(["phase", "--dim", "2"]) == 0
        assert list(tmp_path.iterdir()) == []
        capsys.readouterr()

    def test_phase_pom_pass(self, capsys, tmp_path):
        out = tmp_path / "pom.json"
        code, report = run_cli(
            capsys, ["phase", "--dim", "3", "--cells", "8", "--out", str(out)]
        )
        assert code == 0
        assert all(c["pass"] for c in report["checks"])
        saved = io.pom_from_json(json.loads(out.read_text()))
        assert len(saved.effects) == 8

    def test_data_file_compact_report_indented(self, capsys, tmp_path):
        out = tmp_path / "pom.json"
        main(["phase", "--dim", "3", "--cells", "4", "--out", str(out)])
        printed = capsys.readouterr().out
        pom = phase_pom(canonical_phase_vectors(3), np.linspace(0, 2 * np.pi, 5))
        assert out.read_text() == json.dumps(io.pom_to_json(pom)) + "\n"
        assert printed.startswith('{\n  "tool": "phase"')

    def test_check_pom_roundtrip(self, capsys, tmp_path):
        pom_path = tmp_path / "pom.json"
        main(["phase", "--dim", "2", "--cells", "4", "--out", str(pom_path)])
        capsys.readouterr()
        code, report = run_cli(
            capsys, ["check", "pom", "--in", str(pom_path), "--tol", "1e-10"]
        )
        assert code == 0
        names = [c["name"] for c in report["checks"]]
        assert "positivity" in names and "normalization" in names

    def test_check_pom_detects_violation(self, capsys, tmp_path):
        pom = phase_pom(canonical_phase_vectors(2), np.linspace(0, 2 * np.pi, 3))
        blob = io.pom_to_json(pom)
        blob["effects"][0]["op"]["entries"][0] = [1.4, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code, report = run_cli(capsys, ["check", "pom", "--in", str(bad)])
        assert code == 1
        assert not all(c["pass"] for c in report["checks"])

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code = main(["check", "pom", "--in", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "broken.json:1:" in err

    def test_finite_weyl_command(self, capsys, tmp_path):
        state_path = tmp_path / "t.json"
        state_path.write_text(json.dumps(io.state_to_json(pure_state([1, 0]))))
        code, report = run_cli(
            capsys, ["finite-weyl", "--dim", "2", "--state", str(state_path)]
        )
        assert code == 0
        assert [c["pass"] for c in report["checks"]] == [True, True]

    def test_abelian_pom_command(self, capsys, tmp_path):
        g = FiniteAbelianGroup((4,))
        rep = DiagonalRep(g, (RepBlock.from_mapping({(x,): 1.0 for x in range(4)}, 1),))
        bundle = {
            "rep": io.rep_to_json(rep),
            "subgroup": {"moduli": [4], "generators": [[2]]},
            "aux_dim": 2,
        }
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        code, report = run_cli(
            capsys, ["abelian-pom", "--in", str(path), "--seed", "3"]
        )
        assert code == 0
        assert all(c["pass"] for c in report["checks"])

    def test_smeared_gamma_quantile(self, capsys, tmp_path):
        mpath = tmp_path / "gauss.json"
        mpath.write_text(json.dumps({"kind": "gaussian", "sigma": 1.0}))
        code, report = run_cli(
            capsys,
            ["smeared", "gamma", "--measure", str(mpath), "--grid-n", "1024"],
        )
        assert code == 0
        gamma = report["checks"][0]["value"]
        assert gamma == pytest.approx(1.3489795, abs=1e-4)

    def test_check_uncertainty_equality_case(self, capsys, tmp_path):
        spath = tmp_path / "ground.json"
        spath.write_text(json.dumps({"kind": "gaussian", "a": 0.5}))
        code, report = run_cli(
            capsys,
            [
                "check", "uncertainty",
                "--state", str(spath),
                "--pairs-from", str(spath),
                "--grid-n", "1024",
            ],
        )
        assert code == 0
        product = next(
            c for c in report["checks"] if c["name"] == "variance-product"
        )
        assert product["value"] == pytest.approx(1.0, abs=1e-3)

    def test_phasespace_margins_and_csv(self, capsys, tmp_path):
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps({"kind": "gaussian", "a": 1.0, "b": 1.0}))
        mout = tmp_path / "margins.json"
        code, report = run_cli(
            capsys,
            [
                "phasespace", "margins", "--t", str(tpath),
                "--grid-n", "1024", "--out", str(mout),
            ],
        )
        assert code == 0
        blob = json.loads(mout.read_text())
        rho = io.measure_from_json(blob["position"])
        assert rho.variance() == pytest.approx(0.25, abs=1e-5)

        csv_out = tmp_path / "density.csv"
        code, _ = run_cli(
            capsys,
            [
                "phasespace", "density", "--t", str(tpath),
                "--grid-n", "512", "--samples", "11",
                "--window", "16", "--out", str(csv_out),
            ],
        )
        assert code == 0
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "q,p,value"
        assert len(lines) == 1 + 11 * 11
        assert "," in lines[1] and "." in lines[1]

    def test_phasespace_margins_of_non_orthogonal_mixture(self, capsys, tmp_path):
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps({"kind": "mixture", "components": [
            {"weight": 0.5, "state": {"kind": "gaussian", "center": -0.5}},
            {"weight": 0.5, "state": {"kind": "gaussian", "center": 0.5}},
        ]}))
        mout = tmp_path / "margins.json"
        code, _ = run_cli(
            capsys,
            [
                "phasespace", "margins", "--t", str(tpath),
                "--grid-n", "1024", "--out", str(mout),
            ],
        )
        assert code == 0
        rho = io.measure_from_json(json.loads(mout.read_text())["position"])
        assert rho.variance() == pytest.approx(0.75, abs=1e-9)

    def test_phasespace_margins_at_65536_points(self, capsys, tmp_path):
        # a factor state never builds the 64 GiB dense operator on this grid
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps({"kind": "mixture", "components": [
            {"weight": 0.6, "state": {"kind": "fock", "k": 0}},
            {"weight": 0.4, "state": {"kind": "fock", "k": 1}},
        ]}))
        code, report = run_cli(
            capsys,
            ["phasespace", "margins", "--t", str(tpath), "--grid-n", "65536"],
        )
        assert code == 0
        masses = [c["value"] for c in report["checks"] if c["name"].endswith("margin-mass")]
        assert masses == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_reports_deterministic_modulo_timestamp(self, capsys, tmp_path):
        bundle_path = tmp_path / "bundle.json"
        g = FiniteAbelianGroup((2, 2))
        rep = DiagonalRep(
            g, (RepBlock.from_mapping({x: 1.0 for x in g.elements()}, 1),)
        )
        bundle_path.write_text(
            json.dumps(
                {
                    "rep": io.rep_to_json(rep),
                    "subgroup": {"moduli": [2, 2], "generators": [[1, 1]]},
                    "aux_dim": 2,
                }
            )
        )
        reports = []
        for _ in range(2):
            r1 = tmp_path / f"r{len(reports)}.json"
            code = main(
                ["abelian-pom", "--in", str(bundle_path), "--seed", "7",
                 "--report", str(r1)]
            )
            capsys.readouterr()
            assert code == 0
            blob = json.loads(r1.read_text())
            blob.pop("timestamp")
            reports.append(json.dumps(blob, sort_keys=True))
        assert reports[0] == reports[1]

    def test_smeared_csv_exports(self, capsys, tmp_path):
        mpath = tmp_path / "gauss.json"
        mpath.write_text(json.dumps({"kind": "gaussian", "sigma": 1.0}))
        spath = tmp_path / "psi.json"
        spath.write_text(json.dumps({"kind": "gaussian", "a": 0.5}))
        prof = tmp_path / "profile.csv"
        code, _ = run_cli(
            capsys,
            ["smeared", "gamma", "--measure", str(mpath),
             "--grid-n", "512", "--out", str(prof)],
        )
        assert code == 0
        lines = prof.read_text().strip().splitlines()
        assert lines[0] == "alpha,sup_window_mass"
        sups = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(sups, sups[1:]))

        dist = tmp_path / "dist.csv"
        code, report = run_cli(
            capsys,
            ["smeared", "distribution", "--measure", str(mpath),
             "--state", str(spath), "--grid-n", "512", "--cells", "8",
             "--out", str(dist)],
        )
        assert code == 0
        rows = dist.read_text().strip().splitlines()[1:]
        total = sum(float(r.split(",")[2]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_phasespace_norm_command(self, capsys, tmp_path):
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps({"kind": "gaussian"}))
        code, report = run_cli(
            capsys,
            [
                "phasespace", "norm", "--t", str(tpath),
                "--grid-n", "256", "--window", "12",
                "--cell=-1,1,-1,1", "--quad-order", "12",
            ],
        )
        assert code == 0
        assert report["checks"][0]["value"] < 1.0
