import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm

import covpom
from covpom import io
from covpom.abelian import (
    DiagonalRep,
    FiniteAbelianGroup,
    IsometryFamily,
    RepBlock,
    Subgroup,
    build_covariant_pom,
    canonical_phase_vectors,
    coset_action,
    diagonal_unitaries,
    phase_pom,
    random_isometries,
    verify_covariance,
)
from covpom.cli import _parse_state, build_parser, main
from covpom.grids import symmetric_grid
from covpom.hilbert import (
    IntervalCell,
    PointCell,
    RectCell,
    check_pom_axioms,
    make_state,
    pure_state,
)
from covpom.phasespace import (
    gaussian_wavefunction,
    hermite_wavefunction,
    phase_space_density,
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
        back = io.operator_from_json(json.loads(io.dumps(io.operator_to_json(mat))))
        np.testing.assert_array_equal(back, mat)

    def test_state_spectral(self):
        st = pure_state([1.0, 1.0j])
        back = io.state_from_json(json.loads(io.dumps(io.state_to_json(st))))
        np.testing.assert_allclose(back.op, st.op, atol=1e-12)

    def test_state_factor_is_written_bit_for_bit(self):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
        st = make_state(list(zip(rng.uniform(0.1, 1.0, size=3), vecs)))
        doc = json.loads(io.dumps(io.state_to_json(st)))
        weights = np.array([item["weight"] for item in doc["spectral"]])
        rows = np.array([item["vector"] for item in doc["spectral"]]).view(complex)[..., 0]
        assert np.array_equal(weights, st.weights) and np.array_equal(rows, st.vectors)
        # reading factors the mixture again by one SVD, which moves the last bits and
        # may turn the phase of each vector
        back = io.state_from_json(doc)
        np.testing.assert_allclose(back.weights, st.weights, rtol=0, atol=1e-15)
        overlaps = np.abs(np.sum(back.vectors.conj() * st.vectors, axis=1))
        np.testing.assert_allclose(overlaps, 1.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(back.op, st.op, rtol=0, atol=1e-15)

    def test_spectral_pairs_read_as_their_mixture(self):
        # non-orthogonal and of any norm: the file means sum_i w_i |v_i><v_i| / ||v_i||^2
        doc = {"spectral": [
            {"weight": 0.25, "vector": [[2.0, 0.0], [0.0, 0.0]]},
            {"weight": 0.75, "vector": [[1.0, 0.0], [0.0, 1.0]]},
        ]}
        state = io.state_from_json(json.loads(json.dumps(doc)))
        expected = 0.25 * np.diag([1.0, 0.0]) + 0.375 * np.array([[1, -1j], [1j, 1]])
        np.testing.assert_allclose(state.op, expected, rtol=0, atol=1e-15)

    def test_pom_with_mixed_cells(self):
        pom = phase_pom(canonical_phase_vectors(3), np.linspace(0, 2 * np.pi, 5))
        back = io.pom_from_json(json.loads(io.dumps(io.pom_to_json(pom))))
        assert back.space_tag == pom.space_tag
        assert isinstance(back.outcomes[0].cell, IntervalCell)
        for e1, e2 in zip(back.effects, pom.effects):
            np.testing.assert_allclose(e1, e2, atol=1e-15)

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
            g, np.exp(-g.positions() ** 2), atoms=((0.5, 0.25),)
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
        sub2 = io.subgroup_from_json(json.loads(io.dumps(io.subgroup_to_json(sub))))
        assert sub2.elements == sub.elements
        rep2 = io.rep_from_json(json.loads(io.dumps(io.rep_to_json(rep))))
        assert rep2.group == rep.group
        for blk2, blk in zip(rep2.blocks, rep.blocks, strict=True):
            np.testing.assert_array_equal(blk2.points, blk.points)
            np.testing.assert_array_equal(blk2.weights, blk.weights)
            assert blk2.mult == blk.mult
        doc = json.loads(io.dumps(io.isometries_to_json(fam, rep)))
        assert [sorted(blk["entries"]) for blk in doc["blocks"]] == [["0,0", "1,1"], ["0,2"]]
        np.testing.assert_array_equal(io.isometries_from_json(doc, rep2).columns, fam.columns)


def without_timestamp(report_text):
    return re.sub(r'"timestamp": "[^"]*"', "", report_text)


ARG_ERROR = "covpom phasespace {}: error: argument "


# per action: the file options it requires, and the options it does not read
UNREAD_OPTIONS = {
    ("smeared", "gamma"): (["--measure", "m.json"], ["--measure2", "--state", "--cells", "--tol"]),
    ("smeared", "distribution"): (
        ["--measure", "m.json", "--state", "s.json"], ["--measure2", "--tol"]),
    ("smeared", "sharpness"): (
        ["--measure", "m.json"], ["--measure2", "--state", "--cells", "--tol", "--out"]),
    ("smeared", "compare"): (
        ["--measure", "m.json", "--measure2", "m2.json"], ["--state", "--cells", "--tol", "--out"]),
    ("phasespace", "density"): (["--t", "t.json"], ["--cell", "--n-test", "--tol", "--quad-order"]),
    ("phasespace", "margins"): (
        ["--t", "t.json"], ["--s", "--cell", "--samples", "--n-test", "--tol", "--quad-order"]),
    ("phasespace", "roi"): (["--t", "t.json"], ["--s", "--cell", "--samples", "--out"]),
    ("phasespace", "norm"): (["--t", "t.json"], ["--s", "--samples", "--n-test", "--tol", "--out"]),
    ("check", "pom"): (["--in", "p.json"], ["--state", "--pairs-from", "--grid-n", "--window"]),
    ("check", "uncertainty"): (["--state", "s.json", "--pairs-from", "t.json"], ["--in"]),
}
# a value each option would accept, so that only the option itself is refused
OPTION_VALUES = {
    "--measure2": "m2.json", "--state": "s.json", "--cells": "4", "--tol": "1e-3",
    "--out": "o.json", "--s": "s.json", "--cell": "0,1,0,1", "--samples": "5", "--n-test": "4",
    "--quad-order": "4", "--pairs-from": "t.json", "--grid-n": "64", "--window": "8",
    "--in": "p.json",
}


def exit_code_and_error(capsys, argv):
    """main's exit code, returned or raised by argparse, and the last line it wrote to stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.strip().splitlines()[-1]


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

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["Infinity", "NaN"])
    def test_non_finite_entry_exit_2(self, capsys, tmp_path, bad):
        # at 2 x 2 the positivity check once passed Infinity with value 0.0, and NaN
        # reached an SVD that did not converge
        cell = {"kind": "point", "value": [0]}
        effects = [[[bad, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]]
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps({  # json writes Infinity and NaN
            "space_tag": "t", "outcomes": [{"label": "a", "cell": cell}] * 2,
            "effects": [{"op": {"dim": 2, "entries": e}} for e in effects]}))
        assert main(["check", "pom", "--in", str(bad_file)]) == 2
        assert capsys.readouterr().err == "input error: effect 0 has a non-finite entry\n"

    def test_effects_of_different_dim_exit_2(self, capsys, tmp_path):
        # each effect is decoded into its slot of one stack, which effect 0 sizes
        cell = {"kind": "point", "value": [0]}
        ops = [{"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]},
               {"dim": 1, "entries": [[1, 0]]}]
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps({
            "space_tag": "t", "outcomes": [{"label": "a", "cell": cell}] * 2,
            "effects": [{"op": op} for op in ops]}))
        assert main(["check", "pom", "--in", str(bad_file)]) == 2
        err = capsys.readouterr().err
        assert err == "input error: effect 1 has shape (1, 1), effect 0 (2, 2)\n"

    @pytest.mark.parametrize("doc", [
        {"atoms": [[0.0, float("nan")]]},
        {"atoms": [[float("nan"), 1.0]]},
        {"atoms": [[float("inf"), 1.0]]},
        {"density": {"x0": -8.0, "dx": 1.0, "values": [float("nan")] + [1 / 15] * 15}},
        {"density": {"x0": float("nan"), "dx": 1.0, "values": [1 / 16] * 16}},
        {"density": {"x0": -8.0, "dx": float("nan"), "values": [1 / 16] * 16}},
        {"density": {"x0": -8.0, "dx": float("inf"), "values": [1 / 16] * 16}},
    ], ids=["atom-weight", "atom-location", "infinite-atom", "density-value", "x0", "dx",
            "infinite-dx"])
    def test_non_finite_measure_exit_2(self, capsys, tmp_path, doc):
        # abs(nan - 1) > tol is false: a NaN mass once passed, and gamma-finite with it
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))  # json writes NaN and Infinity
        assert main(["smeared", "gamma", "--measure", str(path), "--grid-n", "256"]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("weight, entry", [(float("nan"), 0.0), (0.5, float("nan")),
                                               (float("inf"), 0.0)],
                             ids=["weight", "vector", "infinite-weight"])
    def test_non_finite_state_exit_2(self, capsys, tmp_path, weight, entry):
        # a NaN weight once reached finite-weyl, whose covariance check passed it with 0.0
        spectral = [{"weight": weight, "vector": [[1, 0], [entry, 0], [0, 0]]},
                    {"weight": 0.5, "vector": [[0, 0], [0, 0], [1, 0]]}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"spectral": spectral}))
        assert main(["finite-weyl", "--dim", "3", "--state", str(path)]) == 2
        assert capsys.readouterr().err.startswith("input error: non-finite")

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
        # --seed draws the isometries; abelian-pom alone takes it, so phase reports null
        g = FiniteAbelianGroup((4,))
        rep = DiagonalRep(g, (RepBlock.from_mapping({(x,): 1.0 for x in range(4)}, 1),))
        bundle = {
            "rep": io.rep_to_json(rep),
            "subgroup": {"moduli": [4], "generators": [[2]]},
            "aux_dim": 2,
        }
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        poms = []
        for seed in (3, 4):
            out = tmp_path / f"pom{seed}.json"
            code, report = run_cli(
                capsys, ["abelian-pom", "--in", str(path), "--seed", str(seed), "--out", str(out)]
            )
            assert code == 0 and report["seed"] == seed
            assert all(c["pass"] for c in report["checks"])
            poms.append(io.pom_from_json(json.loads(out.read_text())).effects)
        assert np.abs(poms[0] - poms[1]).max() > 1e-3
        code, report = run_cli(capsys, ["phase", "--dim", "2"])
        assert code == 0 and report["seed"] is None

    @staticmethod
    def bundle_with_isometries():
        g = FiniteAbelianGroup((6, 2))
        sub = Subgroup.from_generators(g, [(3, 1)])
        rep = DiagonalRep(g, (
            RepBlock.from_mapping({(0, 0): 0.7, (2, 1): 1.3, (5, 0): 0.4}, 1),
            RepBlock.from_mapping({(1, 1): 1.1, (4, 0): 0.6}, 2),
        ))
        fam = random_isometries(rep, 3, np.random.default_rng(12))
        bundle = {"rep": io.rep_to_json(rep), "subgroup": io.subgroup_to_json(sub),
                  "isometries": io.isometries_to_json(fam, rep)}
        return rep, sub, fam, json.loads(io.dumps(bundle))

    def test_abelian_pom_with_explicit_isometries(self, capsys, tmp_path):
        rep, sub, fam, bundle = self.bundle_with_isometries()
        pom = build_covariant_pom(rep, sub, fam)
        axioms = check_pom_axioms(pom, 1e-10)
        cov = verify_covariance(pom, diagonal_unitaries(rep), coset_action(rep.group, sub), 1e-10)
        witness = f"{cov.worst} L={cov.word_length}" if cov.word_length else str(cov.worst)
        expected = [
            {"name": "pom-axioms", "pass": axioms.passed, "value": axioms.normalization_defect,
             "bound": 1e-10, "witness": None},
            {"name": "covariance", "pass": cov.passed, "value": cov.max_defect,
             "bound": 1e-10, "witness": witness},
        ]
        shuffled = json.loads(json.dumps(bundle))
        for blk in shuffled["rep"]["blocks"]:
            blk["weights"] = dict(reversed(blk["weights"].items()))
        for blk in shuffled["isometries"]["blocks"]:
            blk["entries"] = dict(reversed(blk["entries"].items()))
        assert list(shuffled["rep"]["blocks"][0]["weights"])[0] == "5,0"
        texts = []
        for name, doc in (("sorted", bundle), ("shuffled", shuffled)):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            argv = ["abelian-pom", "--in", str(tmp_path / f"{name}.json"),
                    "--out", str(tmp_path / f"{name}-pom.json"),
                    "--report", str(tmp_path / f"{name}-report.json")]
            code, report = run_cli(capsys, argv)
            assert code == 0 and report["checks"] == expected
            text = (tmp_path / f"{name}-report.json").read_text()
            texts.append(without_timestamp(text))
            texts.append((tmp_path / f"{name}-pom.json").read_text())
        assert texts[0] == texts[2] and texts[1] == texts[3]
        # a point of the rep with no isometry is malformed input
        del bundle["isometries"]["blocks"][1]["entries"]["4,0"]
        (tmp_path / "missing.json").write_text(json.dumps(bundle))
        assert main(["abelian-pom", "--in", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert "no isometry for block 1 at dual point (4, 0)" in err
        assert "'" not in err and '"' not in err

    def test_abelian_pom_rejects_an_isometry_outside_the_support(self, capsys, tmp_path):
        # Z4 with weights on 0, 1, 2 only: an entry at 3 of norm 5 is no isometry and no input
        g = FiniteAbelianGroup((4,))
        rep = DiagonalRep(g, (RepBlock.from_mapping({(0,): 1.0, (1,): 1.0, (2,): 1.0}, 1),))
        fam = IsometryFamily(np.ones((1, 3)))
        bundle = {"rep": io.rep_to_json(rep), "subgroup": {"moduli": [4], "generators": [[2]]},
                  "isometries": io.isometries_to_json(fam, rep)}
        doc = json.loads(io.dumps(bundle))
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        assert main(["abelian-pom", "--in", str(path)]) == 0
        capsys.readouterr()
        doc["isometries"]["blocks"][0]["entries"]["3"] = {"shape": [1, 1], "entries": [[5.0, 0.0]]}
        path.write_text(json.dumps(doc))
        assert main(["abelian-pom", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err == "input error: isometry for block 0 at dual point (3,) outside its support"

    @pytest.mark.parametrize("entry", [[float("nan"), 0.0], [0.0, float("-inf")]])
    def test_abelian_pom_rejects_a_non_finite_isometry(self, capsys, tmp_path, entry):
        # a NaN entry once reached the isometry check, whose SVD did not converge
        g = FiniteAbelianGroup((4,))
        rep = DiagonalRep(g, (RepBlock.from_mapping({(x,): 1.0 for x in range(4)}, 1),))
        bundle = {"rep": io.rep_to_json(rep), "subgroup": {"moduli": [4], "generators": [[2]]},
                  "isometries": io.isometries_to_json(IsometryFamily(np.ones((1, 4))), rep)}
        doc = json.loads(io.dumps(bundle))
        doc["isometries"]["blocks"][0]["entries"]["1"]["entries"] = [entry]
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))  # json writes NaN and -Infinity
        assert main(["abelian-pom", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "input error: isometry at block 0, (1,) has a non-finite entry"

    @pytest.mark.parametrize("weight", [-0.5, float("nan"), 0.0])
    def test_abelian_pom_weights(self, capsys, tmp_path, weight):
        # a weight of 0 leaves its point out of the support; a negative or NaN one is rejected
        weights = {"0": 1.0, "1": weight, "2": 1.0, "3": 1.0}
        reports = []
        without = {k: v for k, v in weights.items() if k != "1"}
        for name, w in (("given", weights), ("without", without)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "rep": {"moduli": [4], "blocks": [{"weights": w, "mult": 1}]},
                "subgroup": {"moduli": [4], "generators": [[2]]},
            }))
            code = main(["abelian-pom", "--in", str(path), "--seed", "3"])
            reports.append((code, *capsys.readouterr()))
        assert reports[1][0] == 0
        if weight == 0:
            assert reports[0][0] == 0
            assert without_timestamp(reports[0][1]) == without_timestamp(reports[1][1])
        else:
            assert reports[0][0] == 2
            assert f"weight {weight} at (1,) is not positive and finite" in reports[0][2]

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
        args = build_parser().parse_args(argv)
        grid = symmetric_grid(args.grid_n, args.window)
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

    def test_smeared_distribution_of_a_mixture(self, capsys, tmp_path):
        # |psi|^2 is the equal mixture of N(-0.5, 0.5) and N(0.5, 0.5), and the
        # measure N(0, 0.8^2) adds 0.64 to each variance
        spath = tmp_path / "mix.json"
        spath.write_text(json.dumps({"kind": "mixture", "components": [
            {"weight": 0.5, "state": {"kind": "gaussian", "a": 0.5, "center": -0.5}},
            {"weight": 0.5, "state": {"kind": "gaussian", "a": 0.5, "center": 0.5}},
        ]}))
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"kind": "gaussian", "sigma": 0.8}))
        dist = tmp_path / "dist.csv"
        code, report = run_cli(capsys, [
            "smeared", "distribution", "--measure", str(mpath), "--state", str(spath),
            "--grid-n", "1024", "--out", str(dist)])
        assert code == 0
        assert report["checks"][0]["value"] == pytest.approx(1.0, abs=1e-6)
        lo, hi, prob = np.loadtxt(dist, delimiter=",", skiprows=1).T
        scale = np.sqrt(0.5 + 0.64)
        want = sum(0.5 * (norm.cdf((hi - c) / scale) - norm.cdf((lo - c) / scale))
                   for c in (-0.5, 0.5))
        assert lo.size == 16
        np.testing.assert_allclose(prob, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("argv", [
        ["smeared", "gamma", "--measure", "{m}"],
        ["smeared", "sharpness", "--measure", "{m}"],
        ["smeared", "compare", "--measure", "{m}", "--measure2", "{m}"],
        ["phasespace", "density", "--t", "{s}", "--samples", "5"],
        ["phasespace", "margins", "--t", "{s}"],
        ["phasespace", "norm", "--t", "{s}", "--quad-order", "4"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_actions_without_a_tolerance_report_null(self, capsys, tmp_path, argv):
        # none of these checks compares against a tolerance, so none is reported
        files = {"m": tmp_path / "m.json", "s": tmp_path / "s.json"}
        files["m"].write_text(json.dumps({"kind": "gaussian", "sigma": 1.0}))
        files["s"].write_text(json.dumps({"kind": "gaussian", "a": 0.5}))
        argv = [arg.format(**files) for arg in argv] + ["--grid-n", "256", "--window", "12"]
        code, report = run_cli(capsys, argv)
        assert code == 0 and report["checks"]
        assert "tolerance" in report and report["tolerance"] is None

    @pytest.mark.parametrize("argv, option", [
        (["smeared", "distribution", "--measure", "{m}"], "--state"),
        (["smeared", "compare", "--measure", "{m}"], "--measure2"),
        (["check", "pom"], "--in"),
        (["check", "uncertainty", "--pairs-from", "{s}"], "--state"),
        (["check", "uncertainty", "--state", "{s}"], "--pairs-from"),
    ], ids=["smeared distribution", "smeared compare", "check pom", "check uncertainty state",
            "check uncertainty pairs-from"])
    def test_missing_file_option_exits_2_naming_it(self, capsys, tmp_path, argv, option):
        # argparse names the missing option before any file is read
        files = {"m": tmp_path / "m.json", "s": tmp_path / "s.json"}
        files["m"].write_text(json.dumps({"kind": "gaussian", "sigma": 1.0}))
        files["s"].write_text(json.dumps({"kind": "gaussian", "a": 0.5}))
        argv = [arg.format(**files) for arg in argv]
        assert exit_code_and_error(capsys, argv) == (
            2, f"covpom {argv[0]} {argv[1]}: error: the following arguments are required: {option}")

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

    @pytest.mark.parametrize("argv, message", [
        (["norm", "--grid-n", "0"], "input error: n must be a power of two >= 16, got 0"),
        (["norm", "--grid-n", "-16"], "input error: n must be a power of two >= 16, got -16"),
        (["roi", "--grid-n", "256", "--n-test", "0"],
         ARG_ERROR.format("roi") + "--n-test: expected an integer of at least 1, got '0'"),
        (["density", "--grid-n", "256", "--samples", "0"],
         ARG_ERROR.format("density") + "--samples: expected an integer of at least 1, got '0'"),
        (["density", "--grid-n", "256", "--samples", "-2"],
         ARG_ERROR.format("density") + "--samples: expected an integer of at least 1, got '-2'"),
        (["norm", "--grid-n", "256", "--cell=1,2,3"],
         ARG_ERROR.format("norm") + "--cell: expected four numbers q1,q2,p1,p2, got '1,2,3'"),
        (["norm", "--grid-n", "256", "--cell=1,2,3,x"],
         ARG_ERROR.format("norm") + "--cell: expected four numbers q1,q2,p1,p2, got '1,2,3,x'"),
    ], ids=["grid-n 0", "grid-n -16", "n-test 0", "samples 0", "samples -2", "cell 1,2,3",
            "cell 1,2,3,x"])
    def test_phasespace_size_options_out_of_range_exit_2(self, capsys, tmp_path, argv, message):
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps({"kind": "gaussian"}))
        assert exit_code_and_error(capsys, ["phasespace", *argv, "--t", str(tpath)]) == (2, message)

    def test_gaussian_vanishing_on_the_grid_exits_2(self, capsys, tmp_path):
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps({"kind": "gaussian", "center": 1000.0}))
        argv = ["phasespace", "margins", "--t", str(tpath), "--grid-n", "256"]
        message = "input error: the Gaussian at 1000.0 vanishes on the grid"
        assert exit_code_and_error(capsys, argv) == (2, message)

    @pytest.mark.parametrize("argv", [
        ["phase", "--dim", "0"],
        ["phase-diff", "--dim", "0"],
        ["phase", "--dim", "2", "--cells", "0"],
        ["phase-diff", "--dim", "2", "--cells", "-1"],
        ["smeared", "distribution", "--measure", "m.json", "--state", "s.json", "--cells", "0"],
    ], ids=["phase dim 0", "phase-diff dim 0", "phase cells 0", "phase-diff cells -1",
            "smeared distribution cells 0"])
    def test_counts_below_one_exit_2_naming_their_option(self, capsys, argv):
        # argparse rejects the value before any input file is read
        code, error = exit_code_and_error(capsys, argv)
        assert code == 2
        assert error.endswith(f"error: argument {argv[-2]}: expected an integer of at least 1, "
                              f"got {argv[-1]!r}")

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
    ] + [
        # abelian-pom alone draws from --seed
        [*argv, "--seed", "1"] for argv in [
            ["phase", "--dim", "2"],
            ["phase-diff", "--dim", "2"],
            ["finite-weyl", "--dim", "2", "--state", "s.json"],
            ["smeared", "gamma", "--measure", "m.json"],
            ["phasespace", "norm", "--t", "t.json"],
            ["check", "pom", "--in", "p.json"],
        ]
    ] + [
        # each action of smeared, phasespace and check has its own parser
        pytest.param([*action, *required, option, OPTION_VALUES[option]],
                     id=f"{' '.join(action)} {option}")
        for action, (required, unread) in UNREAD_OPTIONS.items() for option in unread
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
        mixed = make_state(
            [(0.7, hermite_wavefunction(grid, 0)), (0.3, hermite_wavefunction(grid, 2))]
        )
        pure = make_state([(1.0, gaussian_wavefunction(grid, a=0.8, center=0.5))])
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
            np.diag([0.5 + offset, 0.3, 0.2]).astype(complex))}))
        assert main(["finite-weyl", "--dim", "3", "--state", str(path)]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert all(c["pass"] for c in json.loads(captured.out)["checks"])
        else:
            assert "trace" in captured.err


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
