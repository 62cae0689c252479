import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qhyp import cli, gram
from qhyp.cli import main
from qhyp.errors import InvalidSpecError
from qhyp.isometry import Classification, HyperbolicSpec, random_semisimple
from qhyp.gram import gram_of
from qhyp.linalg import HermitianSpace, HVector, point_types, stacked_from_components
from qhyp.sampling import apply_isometry, sample_config
from qhyp.isometry import random_member
from qhyp.serialize import (
    config_from_json,
    config_to_json,
    hmatrix_from_json,
    hmatrix_to_json,
    isometry_from_json,
)
from qhyp.invariants import ProjPoint, profile
from qhyp.tolerances import WIRE_TOL


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def hyperbolic_json():
    A = random_semisimple(Classification.HYPERBOLIC, 1,
                          HyperbolicSpec(2.0, 0.0, ()), seed=1)
    return hmatrix_to_json(A.matrix)


# -- serialization round trips ---------------------------------------------------

def test_hmatrix_json_roundtrip(hyperbolic_json):
    M, n = hmatrix_from_json(hyperbolic_json)
    assert n == M.dim - 1
    again = hmatrix_to_json(M)
    assert again == hyperbolic_json


def test_config_json_roundtrip():
    sp = HermitianSpace(2)
    cfg = sample_config(sp, 4, 3, np.random.default_rng(7))
    data = config_to_json(cfg)
    cfg2 = config_from_json(data)
    assert config_to_json(cfg2) == data


def test_config_decoder_classifies_without_scalar_pairings(monkeypatch):
    # every point's kind comes from the diagonal of one pairings product
    sp = HermitianSpace(4)
    cfg = sample_config(sp, 8, 4, np.random.default_rng(9), scramble_lifts=True)
    calls = []
    monkeypatch.setattr(HermitianSpace, "herm", lambda *args: calls.append(args))
    cfg2 = config_from_json(config_to_json(cfg))
    assert calls == []
    assert [p.kind for p in cfg2.points] == [p.kind for p in cfg.points]


def test_config_decoder_forms_one_pairings_product(monkeypatch):
    # one pairings product gives both the point kinds and the Gram matrix,
    # and the decoded arrays are bit for bit those of a per-point decode
    sp = HermitianSpace(4)
    data = config_to_json(sample_config(sp, 8, 4, np.random.default_rng(10),
                                        scramble_lifts=True))
    shapes = []
    pairings = HermitianSpace.pairings
    monkeypatch.setattr(HermitianSpace, "pairings",
                        lambda self, S: shapes.append(S.shape) or pairings(self, S))
    cfg = config_from_json(data)
    assert shapes == [(10, 8)]
    monkeypatch.undo()
    vectors = [HVector(stacked_from_components(np.array(a))) for a in data["points"]]
    kinds = [point_types(np.diagonal(sp.pairings(v.s[:, None])[..., 0]),
                         np.linalg.norm(v.s[:, None], axis=0) ** 2, WIRE_TOL)[0] for v in vectors]
    ref = gram_of(sp, [ProjPoint(v, k) for v, k in zip(vectors, kinds)], WIRE_TOL)
    assert cfg.kinds == ref.kinds
    assert np.array_equal(cfg.lifts, ref.lifts) and np.array_equal(cfg.gram, ref.gram)


def test_isometry_decoder_makes_one_eig_and_no_svd(monkeypatch):
    # every simple class of a regular member comes from the one eig, in one
    # array pass: no null-space SVD, no scalar pairing
    sp = HermitianSpace(4)
    data = hmatrix_to_json(random_semisimple(
        Classification.HYPERBOLIC, 4, HyperbolicSpec(1.8, 0.7, (0.4, 1.3, 2.2)), 12, sp).matrix)
    calls = []
    for name in ("eig", "svd", "matrix_rank"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    monkeypatch.setattr(HermitianSpace, "herm", lambda *args: calls.append("herm"))
    A = isometry_from_json(data)
    kind, mults = A.classification, A.eigen.multiplicities
    assert calls == ["eig"]
    assert kind is Classification.HYPERBOLIC
    assert mults.tolist() == [1] * 5


def _spoiled(rows, how):
    """A deep copy of wire rows (matrix rows or configuration points) with one defect."""
    rows = json.loads(json.dumps(rows))
    if how == "null component":
        rows[0][1][2] = None
    elif how == "null quaternion":
        rows[0][1] = None
    elif how == "string":
        rows[1][0][0] = "one"
    elif how == "3-component quaternion":
        rows[0][0] = rows[0][0][:3]
    elif how == "ragged row":
        rows[1] = rows[1][:-1]
    elif how == "wrong point length":
        rows = [row + [row[0]] for row in rows]
    elif how == "NaN":
        rows[0][0][3] = float("nan")
    elif how == "Infinity":
        rows[1][1][0] = float("inf")
    elif how == "numeric string":
        rows[0][0][0] = str(rows[0][0][0])
    elif how == "boolean":
        rows[1][1][0] = True
    return rows


DEFECTS = ("null component", "null quaternion", "string", "3-component quaternion",
           "ragged row", "wrong point length", "NaN", "Infinity", "numeric string",
           "boolean")


@pytest.mark.parametrize("how", DEFECTS)
def test_decoders_reject_malformed_entries(how, tmp_path, hyperbolic_json):
    bad_matrix = dict(hyperbolic_json, rows=_spoiled(hyperbolic_json["rows"], how))
    with pytest.raises(InvalidSpecError):
        hmatrix_from_json(bad_matrix)
    cfg = config_to_json(sample_config(HermitianSpace(2), 4, 3, np.random.default_rng(7)))
    bad_config = dict(cfg, points=_spoiled(cfg["points"], how))
    with pytest.raises(InvalidSpecError):
        config_from_json(bad_config)
    assert main(["classify", write(tmp_path, "m.json", bad_matrix)]) == 2
    assert main(["invariants", write(tmp_path, "c.json", bad_config)]) == 2


def test_numbers_are_json_numbers(tmp_path):
    # a numeric string and a boolean spell the identity; neither is a number
    spelled = {"n": 1, "rows": [[["1", "0", "0", "0"], [0, 0, 0, 0]],
                                [[0, 0, 0, 0], [True, 0, 0, 0]]]}
    with pytest.raises(InvalidSpecError):
        hmatrix_from_json(spelled)
    assert main(["classify", write(tmp_path, "m.json", spelled)]) == 2
    cfg = config_to_json(sample_config(HermitianSpace(2), 4, 3, np.random.default_rng(7)))
    with pytest.raises(InvalidSpecError):
        config_from_json(dict(cfg, i=str(cfg["i"])))


def test_space_spec_errors_are_invalid_spec():
    for n in (0, -1):
        with pytest.raises(InvalidSpecError):
            HermitianSpace(n)


@pytest.mark.parametrize("n", [0, -1, "1", True, 1.0])
def test_decoders_need_integer_dimension(n, tmp_path, hyperbolic_json):
    for doc in ({"n": n, "rows": [[[1, 0, 0, 0]]]}, dict(hyperbolic_json, n=n)):
        with pytest.raises(InvalidSpecError):
            hmatrix_from_json(doc)
        with pytest.raises(InvalidSpecError):
            isometry_from_json(doc)
        assert main(["classify", write(tmp_path, "m.json", doc)]) == 2
    with pytest.raises(InvalidSpecError):
        config_from_json({"n": n, "points": [[[1, 0, 0, 0]]]})


# -- commands ----------------------------------------------------------------------

def test_classify_command(tmp_path, capsys, hyperbolic_json):
    path = write(tmp_path, "a.json", hyperbolic_json)
    assert main(["classify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == "hyperbolic"
    assert report["real_trace"] == pytest.approx([-5.0])


def test_classify_csv(tmp_path, capsys, hyperbolic_json):
    assert main(["classify", write(tmp_path, "a.json", hyperbolic_json), "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "type,real_trace"
    assert row.startswith("hyperbolic,\"[") and row.endswith("]\"")


@pytest.mark.parametrize("n", [1, 3])
def test_classify_csv_parabolic(n, tmp_path, capsys):
    # a Heisenberg translation: the identity plus i at entry (0, n); a parabolic
    # element has no real trace, so its cell stays empty
    rows = [[[float(r == c), 0.0, 0.0, 0.0] for c in range(n + 1)] for r in range(n + 1)]
    rows[0][n][1] = 1.0
    path = write(tmp_path, "p.json", {"n": n, "rows": rows})
    assert main(["classify", path]) == 0
    assert json.loads(capsys.readouterr().out)["type"] == "parabolic"
    assert main(["classify", path, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == ["type,real_trace", "parabolic,"]


def test_classify_expect_mismatch(tmp_path, capsys, hyperbolic_json):
    hyperbolic_json = dict(hyperbolic_json)
    hyperbolic_json["expect"] = "elliptic"
    path = write(tmp_path, "a.json", hyperbolic_json)
    assert main(["classify", path]) == 2


def test_classify_malformed(tmp_path):
    path = write(tmp_path, "bad.json", {"n": 1, "rows": [[1, 2], [3]]})
    assert main(["classify", path]) == 2


def test_invariants_command_json_and_csv(tmp_path, capsys):
    sp = HermitianSpace(2)
    cfg = sample_config(sp, 4, 4, np.random.default_rng(9))
    path = write(tmp_path, "cfg.json", config_to_json(cfg))
    assert main(["invariants", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["d"] == 2
    assert main(["invariants", path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert "u0.w" in header and "a23" in header


def test_congruent_command_exit_codes(tmp_path, capsys):
    sp = HermitianSpace(2)
    rng = np.random.default_rng(10)
    cfg = sample_config(sp, 4, 4, rng)
    moved = apply_isometry(cfg, random_member(sp, rng))
    pa = write(tmp_path, "a.json", config_to_json(cfg))
    pb = write(tmp_path, "b.json", config_to_json(moved))
    assert main(["congruent", pa, pb]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "congruent"
    assert report["residual"] < 1e-7
    assert report["witness"] is not None
    # a visibly different configuration is rejected with exit code 1
    other = sample_config(sp, 4, 4, np.random.default_rng(11))
    pc = write(tmp_path, "c.json", config_to_json(other))
    code = main(["congruent", pa, pc])
    report = json.loads(capsys.readouterr().out)
    if report["verdict"] == "not_congruent":
        assert code == 1


def test_congruent_command_prints_a_numerical_failure_as_inconclusive(tmp_path, capsys,
                                                                      monkeypatch):
    # the decider answers Inconclusive itself, so the CLI prints the decision
    # document and exits 3 instead of printing an error
    sp = HermitianSpace(2)
    rng = np.random.default_rng(12)
    cfg = sample_config(sp, 5, 3, rng)
    moved = apply_isometry(cfg, random_member(sp, rng))
    paths = [write(tmp_path, f"{k}.json", config_to_json(c)) for k, c in (("a", cfg), ("b", moved))]
    monkeypatch.setattr(gram, "_independent_subsets", lambda space, a, b: [[0, 1, 2], [0, 2, 3]])
    assert main(["congruent", *paths]) == 3
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["verdict"] == "inconclusive" and report["witness"] is None
    assert report["reason"].startswith("numerical failure: ") and err == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tol_must_be_positive_and_finite(tol, tmp_path, capsys):
    # every comparison against NaN or inf passes, so these once turned a
    # negative verdict into "congruent"
    assert main(["sample", "--kind", "config", "--signature", "2", "--points", "5",
                 "--nulls", "3", "--seed", "1", "--count", "2"]) == 0
    paths = [write(tmp_path, f"c{k}.json", doc)
             for k, doc in enumerate(json.loads(capsys.readouterr().out))]
    assert main(["congruent", *paths]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["congruent", *paths, "--tol", tol])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "positive finite" in err


def _run_qhyp(*args, **kwargs):
    """``python -m qhyp`` in a fresh process that imports these sources."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [os.environ["PYTHONPATH"]] * ("PYTHONPATH" in os.environ)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-m", "qhyp", *args], env=env, timeout=120, **kwargs)


def test_module_entry_point_runs_the_cli():
    proc = _run_qhyp("--help", capture_output=True)
    assert proc.returncode == 0
    assert b"conjugate-pair" in proc.stdout and proc.stderr == b""


def test_closed_stdout_exits_quietly():
    # the reading end is closed before the command writes, as when a pager
    # or `head` exits early
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_qhyp("sample", "--kind", "config", stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_conjugate_pair_command(tmp_path, capsys):
    sp = HermitianSpace(1)
    rng = np.random.default_rng(12)
    from qhyp.sampling import sample_pair
    from qhyp.isometry import Isometry

    A, B = sample_pair(sp, rng, kinds=(Classification.HYPERBOLIC,
                                       Classification.HYPERBOLIC))
    C0 = random_member(sp, rng)
    A2 = Isometry(sp.project_to_group(C0 @ A.matrix @ C0.inverse()), sp)
    B2 = Isometry(sp.project_to_group(C0 @ B.matrix @ C0.inverse()), sp)
    p1 = write(tmp_path, "p1.json",
               {"A": hmatrix_to_json(A.matrix), "B": hmatrix_to_json(B.matrix)})
    p2 = write(tmp_path, "p2.json",
               {"A": hmatrix_to_json(A2.matrix), "B": hmatrix_to_json(B2.matrix)})
    assert main(["conjugate-pair", p1, p2]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "conjugate"
    assert report["residual"] < 1e-7


def _pair_files(tmp_path, n, seed):
    """Two wire pair documents: a sampled hyperbolic pair and its image."""
    from qhyp.sampling import sample_pair

    sp, rng = HermitianSpace(n), np.random.default_rng(seed)
    A, B = sample_pair(sp, rng, kinds=(Classification.HYPERBOLIC, Classification.HYPERBOLIC))
    C = random_member(sp, rng)
    image = [sp.project_to_group(C @ X.matrix @ C.inverse()) for X in (A, B)]
    return [write(tmp_path, f"p{k}.json", {"A": hmatrix_to_json(X), "B": hmatrix_to_json(Y)})
            for k, (X, Y) in enumerate([(A.matrix, B.matrix), image])]


def test_numerical_error_exits_inconclusive(tmp_path, capsys, monkeypatch):
    # a decoded member's decomposition fails inside the decider: the input
    # was well formed, so the decider answers Inconclusive with the failure as
    # its reason, and the CLI prints that decision and exits 3 (not 2)
    from qhyp import isometry
    from qhyp.errors import NumericalError

    def failing(*args):
        raise NumericalError("characteristic coefficients have imaginary residue")

    paths = _pair_files(tmp_path, 2, 14)
    monkeypatch.setattr(isometry, "spectrum_char_coeffs", failing)
    assert main(["conjugate-pair", *paths]) == 3
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["verdict"] == "inconclusive" and report["witness"] is None and err == ""
    assert report["reason"] == ("numerical failure: characteristic coefficients have "
                                "imaginary residue")


def test_malformed_pair_exits_2(tmp_path, capsys):
    p1, p2 = _pair_files(tmp_path, 2, 14)
    missing = write(tmp_path, "missing.json", {"A": json.loads(Path(p1).read_text())["A"]})
    assert main(["conjugate-pair", missing, p2]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "'A' and 'B'" in err


def test_sample_command_deterministic(capsys):
    assert main(["sample", "--kind", "hyperbolic", "--signature", "1",
                 "--seed", "5", "--count", "2"]) == 0
    out1 = capsys.readouterr().out
    assert main(["sample", "--kind", "hyperbolic", "--signature", "1",
                 "--seed", "5", "--count", "2"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    batch = json.loads(out1)
    assert len(batch) == 2
    for item in batch:
        A = isometry_from_json(item)
        assert A.classification is Classification.HYPERBOLIC


def test_sample_config_command(capsys):
    assert main(["sample", "--kind", "config", "--signature", "2",
                 "--seed", "3", "--points", "5", "--nulls", "3"]) == 0
    batch = json.loads(capsys.readouterr().out)
    cfg = config_from_json(batch[0])
    assert cfg.m == 5 and cfg.i == 3


def test_verify_quick_subset(capsys):
    code = main(["verify", "--suite", "quick", "--criteria", "2,5"])
    out = capsys.readouterr().out
    assert "[criterion  2]" in out and "[criterion  5]" in out
    assert code == 0


def test_verify_criterion_6_exit_code(capsys):
    code = main(["verify", "--suite", "quick", "--criteria", "6"])
    out = capsys.readouterr().out
    assert "[criterion  6]" in out
    assert code == 0


def test_verify_criterion_6_reports_residual(capsys):
    # each shape's detail names its largest round-trip residual, under the bound
    main(["verify", "--suite", "quick", "--criteria", "6"])
    out = capsys.readouterr().out
    found = re.findall(r"roundtrip (\d+)/(\d+), max residual ([0-9.e+-]+)", out)
    assert len(found) == out.count("roundtrip") > 0
    assert all(done == total and float(worst) < 1e-7 for done, total, worst in found)
