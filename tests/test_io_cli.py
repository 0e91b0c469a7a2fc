import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import covpom
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
from covpom.cli import _build_grid, _parse_state, build_parser, main
from covpom.grids import symmetric_grid
from covpom.hilbert import IntervalCell, Operator, PointCell, RectCell, make_state, pure_state
from covpom.phasespace import (
    gaussian_wavefunction,
    hermite_wavefunction,
    phase_space_density,
    state_from_wavefunctions,
)
from covpom.posmom import ProbMeasure1D
from oracles import list_form

# every float kind the encoder formats differently, drawn often enough to repeat
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 1e300, -1e-300, 0.1, np.nan, np.inf, -np.inf]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
COMPLEX_ARRAYS = hnp.arrays(
    np.float64, st.tuples(st.integers(0, 9), st.integers(1, 3)).map(lambda s: (*s, 2)),
    elements=FLOATS,
).map(lambda pairs: pairs.view(complex)[..., 0])


def _edge_matrix():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    mat[0, :4] = [-0.0, 5e-324, 1e300 - 1e-300j, complex(0.1, -0.0)]
    return mat


EDGE_MATRIX = _edge_matrix()


class TestRoundTrips:
    def test_operator(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op = Operator(mat)
        back = io.operator_from_json(json.loads(io.dumps(io.operator_to_json(op))))
        np.testing.assert_allclose(back.mat, op.mat)

    def test_state_spectral(self):
        st = pure_state([1.0, 1.0j])
        back = io.state_from_json(json.loads(io.dumps(io.state_to_json(st))))
        np.testing.assert_allclose(back.op.mat, st.op.mat, atol=1e-12)

    def test_state_factor_is_written_bit_for_bit(self):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
        st = make_state(list(zip(rng.uniform(0.1, 1.0, size=3), vecs)))
        doc = json.loads(io.dumps(io.state_to_json(st)))
        weights = np.array([item["weight"] for item in doc["spectral"]])
        rows = np.array([item["vector"] for item in doc["spectral"]]).view(complex)[..., 0]
        assert np.array_equal(weights, st.weights) and np.array_equal(rows, st.vectors)
        # reading runs make_state's orthonormalisation again, which moves the last bits
        back = io.state_from_json(doc)
        np.testing.assert_allclose(back.weights, st.weights, rtol=0, atol=1e-15)
        np.testing.assert_allclose(back.vectors, st.vectors, rtol=0, atol=1e-14)

    def test_pom_with_mixed_cells(self):
        pom = phase_pom(canonical_phase_vectors(3), np.linspace(0, 2 * np.pi, 5))
        back = io.pom_from_json(json.loads(io.dumps(io.pom_to_json(pom))))
        assert back.space_tag == pom.space_tag
        assert isinstance(back.outcomes[0].cell, IntervalCell)
        for e1, e2 in zip(back.effects, pom.effects):
            np.testing.assert_allclose(e1.op.mat, e2.op.mat, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(arrays=st.lists(COMPLEX_ARRAYS, max_size=4), reals=st.lists(FLOATS, max_size=4),
           label=st.text(max_size=4))
    @example(arrays=[EDGE_MATRIX], reals=[], label="")
    @example(arrays=[EDGE_MATRIX, np.zeros((0, 2), complex), EDGE_MATRIX.T], reals=[-0.0, 1e300],
             label="\x00")
    def test_operator_encoding_matches_per_entry_form(self, arrays, reals, label):
        doc = {
            "space_tag": label,
            "reals": reals,
            "effects": [{"op": {"dim": a.shape[0], "entries": a}} for a in arrays],
            "deep": [[label, {"values": a, "weights": reals}] for a in arrays[::-1]],
        }
        # json text, so signed zeros, non-finite values and every digit count
        assert io.dumps(doc) == json.dumps(list_form(doc))

    @settings(max_examples=60, deadline=None)
    @given(COMPLEX_ARRAYS)
    @example(EDGE_MATRIX)
    def test_decoding_is_bit_exact(self, arr):
        # -0.0 and infinite imaginary parts would not survive re + 1j * im
        back = io._cvector_from_json(list_form(arr))
        assert back.tobytes() == arr.ravel().tobytes()
        assert io._cvector_from_json(arr).tobytes() == arr.ravel().tobytes()

    def test_cells(self):
        for cell in (PointCell((1, 2)), IntervalCell(0.0, 1.5), RectCell(0, 1, -2, 3)):
            back = io._cell_from_json(io._cell_to_json(cell))
            assert back == cell

    def test_measure(self):
        g = symmetric_grid(64, 5.0)
        m = ProbMeasure1D.from_density(
            g, np.exp(-g.positions() ** 2), atoms=((0.5, 0.25),), normalize=True
        )
        back = io.measure_from_json(json.loads(io.dumps(io.measure_to_json(m))))
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
        sub2 = io.subgroup_from_json(json.loads(io.dumps(io.subgroup_to_json(sub))))
        assert sub2.elements == sub.elements
        rep2 = io.rep_from_json(json.loads(io.dumps(io.rep_to_json(rep))))
        assert rep2.blocks == rep.blocks
        fam2 = io.isometries_from_json(
            json.loads(io.dumps(io.isometries_to_json(fam)))
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
            json.loads(io.dumps(io.wavefunction_to_json(psi)))
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
        assert out.read_text() == json.dumps(list_form(io.pom_to_json(pom))) + "\n"
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
        op = blob["effects"][0]["op"]  # its entries are a read-only view of the effect
        op["entries"] = np.r_[1.4, op["entries"][1:]]
        bad = tmp_path / "bad.json"
        bad.write_text(io.dumps(blob))
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

    @pytest.mark.parametrize("entries", [
        [[1.0, 0.0], [0.0, 0.0], [0.0], [1.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
    ], ids=["ragged", "three-items"])
    def test_malformed_entries_exit_2(self, capsys, tmp_path, entries):
        pom = phase_pom(canonical_phase_vectors(2), np.linspace(0, 2 * np.pi, 3))
        blob = json.loads(io.dumps(io.pom_to_json(pom)))
        blob["effects"][0]["op"]["entries"] = entries
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        assert main(["check", "pom", "--in", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    def test_finite_weyl_command(self, capsys, tmp_path):
        state_path = tmp_path / "t.json"
        state_path.write_text(io.dumps(io.state_to_json(pure_state([1, 0]))))
        code, report = run_cli(
            capsys, ["finite-weyl", "--dim", "2", "--state", str(state_path)]
        )
        assert code == 0
        assert [c["pass"] for c in report["checks"]] == [True, True]
        # passed on the generators of Z_2 x Z_2, whose words have length at most L = 2
        assert report["checks"][1]["witness"].endswith(" L=2")

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

    def test_phasespace_density_csv_matches_row_loop(self, capsys, tmp_path):
        # the text the former writer gave, one float(...) index and one write per row
        spec = {"kind": "gaussian", "a": 0.7, "center": 0.3, "momentum": -0.4}
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps(spec))
        csv_out = tmp_path / "density.csv"
        argv = ["phasespace", "density", "--t", str(tpath), "--grid-n", "128",
                "--window", "8", "--samples", "9", "--out", str(csv_out)]
        code, _ = run_cli(capsys, argv)
        assert code == 0
        grid = _build_grid(build_parser().parse_args(argv))
        t = _parse_state(spec, grid)
        qs = ps = np.linspace(-4.0, 4.0, 9)
        values = phase_space_density(t, t, qs, ps, grid).values
        expected = "q,p,value\n" + "".join(
            f"{float(q)!r},{float(p)!r},{float(values[i, j])!r}\n"
            for i, q in enumerate(qs)
            for j, p in enumerate(ps)
        )
        assert csv_out.read_bytes() == expected.encode()

    def test_phasespace_density_window_leakage_is_a_failing_check(self, capsys, tmp_path):
        # the ground state's mass far outside [-1, 1]^2 fails the check, not the input
        tpath = tmp_path / "psi.json"
        tpath.write_text(json.dumps({"kind": "gaussian"}))
        code, report = run_cli(
            capsys,
            ["phasespace", "density", "--t", str(tpath), "--grid-n", "256", "--window", "2"],
        )
        assert code == 1
        checks = {c["name"]: c for c in report["checks"]}
        assert sorted(checks) == ["pointwise-positive", "window-leakage"]
        assert not checks["window-leakage"]["pass"]
        assert checks["window-leakage"]["value"] == pytest.approx(0.632, abs=1e-3)
        assert checks["window-leakage"]["bound"] == 0.01
        assert checks["pointwise-positive"]["pass"]

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

    @pytest.mark.parametrize("argv", [
        [sub, *extra, opt, value]
        for sub, extra in [
            ("phase", ["--dim", "2"]),
            ("phase-diff", ["--dim", "2"]),
            ("abelian-pom", ["--in", "b.json"]),
            ("finite-weyl", ["--dim", "2", "--state", "s.json"]),
        ]
        for opt, value in [("--grid-n", "64"), ("--window", "8"), ("--quad-order", "4")]
    ] + [
        ["smeared", "gamma", "--measure", "m.json", "--quad-order", "4"],
        ["check", "pom", "--in", "p.json", "--quad-order", "4"],
        ["check", "pom", "--in", "p.json", "--out", "o.json"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_options_nothing_reads_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOperatorOnlyStates:
    """A state file in the operator form gives the reports of its spectral form."""

    N, WINDOW = 64, 8.0

    @pytest.fixture
    def state_files(self, tmp_path):
        grid = symmetric_grid(self.N, self.WINDOW)
        mixed = state_from_wavefunctions(
            [(0.7, hermite_wavefunction(grid, 0)), (0.3, hermite_wavefunction(grid, 2))]
        )
        pure = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid, a=0.8, center=0.5))])
        files = {}
        for name, state in (("mixed", mixed), ("pure", pure)):
            for form, obj in (
                ("spectral", io.state_to_json(state)),
                ("op", {"op": io.operator_to_json(state.op)}),
            ):
                files[name, form] = tmp_path / f"{name}-{form}.json"
                files[name, form].write_text(io.dumps(obj))
        (tmp_path / "m.json").write_text(json.dumps({"kind": "gaussian", "sigma": 1.0}))
        files["measure"] = tmp_path / "m.json"
        return files

    def reports(self, capsys, argv_of):
        out = {}
        for form in ("spectral", "op"):
            code = main(argv_of(form) + ["--grid-n", str(self.N), "--window", str(self.WINDOW)])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            report = json.loads(captured.out)
            out[form] = [(c["name"], c["pass"], c["value"]) for c in report["checks"]]
        return out["spectral"], out["op"]

    @staticmethod
    def assert_same_checks(spectral, op):
        assert [c[:2] for c in spectral] == [c[:2] for c in op]
        for (_, _, a), (_, _, b) in zip(spectral, op):
            assert abs(a - b) <= 1e-12

    def test_margins_and_uncertainty(self, capsys, state_files):
        f = state_files
        self.assert_same_checks(*self.reports(
            capsys, lambda form: ["phasespace", "margins", "--t", str(f["mixed", form])]))
        self.assert_same_checks(*self.reports(capsys, lambda form: [
            "check", "uncertainty", "--state", str(f["pure", form]),
            "--pairs-from", str(f["mixed", form])]))

    def test_smeared_distribution(self, capsys, state_files, tmp_path):
        f = state_files
        rows = {}
        for form in ("spectral", "op"):
            out = tmp_path / f"dist-{form}.csv"
            code, _ = run_cli(capsys, [
                "smeared", "distribution", "--measure", str(f["measure"]),
                "--state", str(f["pure", form]), "--grid-n", str(self.N),
                "--window", str(self.WINDOW), "--out", str(out)])
            assert code == 0
            rows[form] = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows["op"], rows["spectral"], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("offset, code", [(5e-9, 0), (1e-6, 2)])
    def test_finite_weyl_takes_every_trace_the_reader_accepts(self, capsys, tmp_path, offset, code):
        # the reader accepts a trace within 1e-8 of one; the POM checks its state at 1e-10
        path = tmp_path / "op.json"
        path.write_text(io.dumps({"op": io.operator_to_json(
            Operator(np.diag([0.5 + offset, 0.3, 0.2]).astype(complex)))}))
        assert main(["finite-weyl", "--dim", "3", "--state", str(path)]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert all(c["pass"] for c in json.loads(captured.out)["checks"])
        else:
            assert "trace" in captured.err

    def test_distribution_rejects_mixed_op_state(self, capsys, state_files):
        f = state_files
        code = main(["smeared", "distribution", "--measure", str(f["measure"]),
                     "--state", str(f["mixed", "op"]), "--grid-n", str(self.N),
                     "--window", str(self.WINDOW)])
        assert code == 2
        assert "pure state" in capsys.readouterr().err


class TestNoSubcommandLoadsScipy:
    """Every subcommand runs on numpy alone.

    The tests import scipy themselves, so the subcommands run in a fresh
    interpreter, all in one.
    """

    SCRIPT = """
import json, sys
from contextlib import redirect_stdout
from io import StringIO
from covpom.cli import main
with redirect_stdout(StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

    def test_no_subcommand_loads_scipy(self, tmp_path):
        g = FiniteAbelianGroup((4,))
        rep = DiagonalRep(g, (RepBlock.from_mapping({(x,): 1.0 for x in range(4)}, 1),))
        inputs = {
            "bundle.json": json.dumps({"rep": io.rep_to_json(rep), "aux_dim": 2,
                                       "subgroup": {"moduli": [4], "generators": [[2]]}}),
            "qubit.json": io.dumps(io.state_to_json(pure_state([1, 0]))),
            "gauss.json": json.dumps({"kind": "gaussian", "sigma": 1.0}),
            "flat.json": json.dumps({"kind": "uniform", "lo": -1.0, "hi": 1.0}),
            "psi.json": json.dumps({"kind": "gaussian", "a": 0.5}),
        }
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        grid = ["--grid-n", "256", "--window", "12"]
        argvs = [
            ["phase", "--dim", "4", "--cells", "4", "--out", "p.json"],
            ["phase-diff", "--dim", "3", "--cells", "6"],
            ["abelian-pom", "--in", "bundle.json"],
            ["finite-weyl", "--dim", "2", "--state", "qubit.json"],
            ["check", "pom", "--in", "p.json"],
            ["smeared", "gamma", "--measure", "gauss.json", *grid],
            ["smeared", "distribution", "--measure", "gauss.json", "--state", "psi.json",
             "--cells", "8", *grid],
            ["smeared", "sharpness", "--measure", "gauss.json", *grid],
            ["smeared", "compare", "--measure", "gauss.json", "--measure2", "flat.json", *grid],
            ["check", "uncertainty", "--state", "psi.json", "--pairs-from", "psi.json", *grid],
            ["phasespace", "margins", "--t", "psi.json", *grid],
            ["phasespace", "density", "--t", "psi.json", "--samples", "5", *grid],
            ["phasespace", "roi", "--t", "psi.json", "--n-test", "6", "--quad-order", "8", *grid],
            ["phasespace", "norm", "--t", "psi.json", "--quad-order", "8", *grid],
        ]
        src = os.path.dirname(os.path.dirname(covpom.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        got = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argvs)],
            capture_output=True, text=True, check=True, env=env, cwd=tmp_path,
        )
        result = json.loads(got.stdout)
        assert result["codes"] == [0] * len(argvs), got.stderr
        assert result["scipy"] == []
