"""The command-line front end: exit codes, reports, JSON canonicalisation."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest

from lieb import BilinearForm, LieAlgebra, LieCoalgebra, cli
from lieb.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_PARSE_ERROR, canonical_json, main
from lieb.solver import KINDS

GOLDEN = Path(__file__).parent / "golden"

_SL2 = (
    "space L : e f g\n"
    "algebra sl2 on L {\n"
    "  [e, f] = g\n"
    "  [e, g] = -2*e\n"
    "  [f, g] = 2*f\n"
    "}\n"
)


def _data_path(tmp_path: Path, filename: str) -> Path:
    text = resources.files("lieb.data").joinpath(filename).read_text(encoding="utf-8")
    target = tmp_path / filename
    target.write_text(text, encoding="utf-8")
    return target


def _sl2_with_params(tmp_path: Path) -> Path:
    """sl2 in a file that declares the parameters k, k1 and k2 (none used)."""
    target = tmp_path / "sl2-params.lieb"
    target.write_text("params k k1 k2\n" + _SL2, encoding="utf-8")
    return target


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_sl2_passes(tmp_path, capsys):
    path = _data_path(tmp_path, "sl2.lieb")
    code, out, _ = _run(capsys, "check", str(path))
    assert code == EXIT_OK
    assert "lie-algebra sl2: Pass" in out


def test_check_family_two_echoes_assumption(tmp_path, capsys):
    path = _data_path(tmp_path, "nij-family-2.lieb")
    code, out, _ = _run(capsys, "check", str(path))
    assert code == EXIT_OK
    assert "ConditionalPass" in out
    assert "k3 != 0" in out


def test_check_failure_sets_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.lieb"
    bad.write_text(
        "space L : e f g\n"
        "algebra almost on L {\n"
        "  [e, f] = g\n"
        "  [f, e] = g\n"
        "  [e, g] = -2*e\n"
        "  [f, g] = 2*f\n"
        "}\n"
        "check lie-algebra almost\n",
        encoding="utf-8")
    code, out, _ = _run(capsys, "check", str(bad))
    assert code == EXIT_CHECK_FAILED
    assert "Fail" in out


def test_corrupted_file_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "corrupt.lieb"
    bad.write_text("space L : e f\nalgebra a on L {\n  [e, f] = = e\n}\n", encoding="utf-8")
    code, _, err = _run(capsys, "check", str(bad))
    assert code == EXIT_PARSE_ERROR
    assert "line 3" in err


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = _run(capsys, "check", "/nonexistent/nowhere.lieb")
    assert code == EXIT_PARSE_ERROR


def test_json_report_round_trips_byte_identically(tmp_path, capsys):
    path = _data_path(tmp_path, "nij-family-2.lieb")
    code, out, _ = _run(capsys, "--format", "json", "check", str(path))
    assert code == EXIT_OK
    assert canonical_json(json.loads(out)) == out
    payload = json.loads(out)
    assert payload["results"][0]["verdict"] == "ConditionalPass"
    assert payload["results"][0]["assumptions_used"] == ["k3 != 0"]


def test_format_flag_accepted_after_the_subcommand(tmp_path, capsys):
    path = _data_path(tmp_path, "sl2.lieb")
    code, out, _ = _run(capsys, "check", str(path), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["results"][0]["verdict"] == "Pass"


def test_identity_filter(tmp_path, capsys):
    path = _data_path(tmp_path, "qt-sl2.lieb")
    code, out, _ = _run(capsys, "check", str(path), "--identity", "cybe")
    assert code == EXIT_OK
    assert "cybe" in out and "cocycle" not in out


def test_unknown_identity_kind_exits_two(tmp_path, capsys):
    # a typo must not read as a pass
    path = _data_path(tmp_path, "qt-sl2.lieb")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(path), "--identity", "cybee"])
    assert exc.value.code == EXIT_PARSE_ERROR
    assert "invalid choice: 'cybee'" in capsys.readouterr().err


def test_known_identity_kind_with_no_statement_is_a_usage_error(tmp_path, capsys):
    # an empty run must not read as a pass; each kind that selects nothing is named
    path = _data_path(tmp_path, "sl2.lieb")
    code, out, err = _run(capsys, "check", str(path), "--identity", "cybe")
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err == "error: --identity cybe: the file runs no cybe check\n"
    code, out, err = _run(capsys, "check", str(path), "--identity", "lie-algebra",
                          "--identity", "cybe", "--identity", "co-cybe", "--identity", "cybe")
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err == ("error: --identity cybe: the file runs no cybe check; "
                   "--identity co-cybe: the file runs no co-cybe check\n")


@pytest.mark.parametrize("argv", [
    ("check", "{dir}"),
    ("check", "{undecodable}"),
    ("catalog", "export", "sl2", "--out", "{dir}"),
], ids=["check-a-directory", "check-undecodable-bytes", "export-to-a-directory"])
def test_file_io_errors_exit_two(argv, tmp_path, capsys):
    undecodable = tmp_path / "bytes.lieb"
    undecodable.write_bytes(b"\xff\xfe")
    paths = {"dir": str(tmp_path), "undecodable": str(undecodable)}
    code, out, err = _run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == EXIT_PARSE_ERROR
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("data, line, col", [
    (b"\xff\xfe", 1, 1),
    ("# über\nalgebra L ü".encode() + b"\xff\xfe", 2, 12),
], ids=["first-byte", "second-line"])
def test_undecodable_file_names_the_file_and_the_first_bad_byte(data, line, col, tmp_path, capsys):
    path = tmp_path / "bytes.lieb"
    path.write_bytes(data)
    code, out, err = _run(capsys, "check", str(path))
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err == f"error: line {line}, column {col}: {path} is not UTF-8: byte 0xff\n"


def test_assume_flag_parses(tmp_path, capsys):
    path = _sl2_with_params(tmp_path)
    code, out, _ = _run(capsys, "check", str(path), "--assume", "k1")
    assert code == EXIT_OK
    code, _, err = _run(capsys, "check", str(path), "--assume", "k1 +")
    assert code == EXIT_PARSE_ERROR


@pytest.mark.parametrize("text, message", [
    ("1/k", "line 1, column 4: assumption must be polynomial (clear denominators)"),
    ("0^-1", "line 1, column 2: division by zero"),
    ("0", "line 1, column 2: assumption must be nonzero"),
    ("k1 +", "line 1, column 5: unexpected end of line in expression"),
    # a name the file does not declare, as in an assume statement inside it
    ("k99", "line 1, column 1: 'k99' is neither a basis label here nor a declared parameter"),
])
def test_assume_flag_errors_exit_two(text, message, tmp_path, capsys):
    path = _sl2_with_params(tmp_path)
    code, out, err = _run(capsys, "check", str(path), "--assume", text)
    assert code == EXIT_PARSE_ERROR
    assert err == f"error: --assume {text!r}: {message}\n"
    assert out == ""


def test_assume_flag_error_names_the_failing_flag(tmp_path, capsys):
    # the position is within the flag's own text, not the file's
    path = _sl2_with_params(tmp_path)
    code, out, err = _run(capsys, "check", str(path), "--assume", "k1", "--assume", "k1 k2")
    assert code == EXIT_PARSE_ERROR
    assert err == "error: --assume 'k1 k2': line 1, column 4: unexpected 'k2' at end of statement\n"
    assert out == ""


def test_construct_then_check_composes(tmp_path, capsys):
    path = _data_path(tmp_path, "qt-sl2.lieb")
    out_file = tmp_path / "dr_built.lieb"
    code, out, _ = _run(capsys, "construct", str(path), "--op", "dr_built",
                        "--out", str(out_file))
    assert code == EXIT_OK
    assert out_file.exists()
    # the exported coalgebra passes its default validity check
    code, out, _ = _run(capsys, "check", str(out_file))
    assert code == EXIT_OK
    assert "lie-coalgebra dr_built: Pass" in out
    # and it agrees with the in-process construction
    from lieb import parse_document
    from lieb.document import run_constructs

    source = parse_document(path.read_text(encoding="utf-8"))
    run_constructs(source)
    exported = parse_document(out_file.read_text(encoding="utf-8"))
    assert exported.structures["dr_built"].d == source.structures["dr"].d


def test_construct_unknown_op(tmp_path, capsys):
    path = _data_path(tmp_path, "qt-sl2.lieb")
    code, _, err = _run(capsys, "construct", str(path), "--op", "missing",
                        "--out", str(tmp_path / "x.lieb"))
    assert code == EXIT_PARSE_ERROR
    assert err.startswith("error: --op missing: no construct statement produces it")


def test_construct_op_on_a_representation_is_a_usage_error(tmp_path, capsys):
    # a rep block names its algebra, so a representation alone cannot be written
    path = tmp_path / "rep.lieb"
    path.write_text(_SL2 + "space V : u v\n"
                    "rep rho of sl2 on V {\n"
                    "  e : v -> u\n"
                    "  f : u -> v\n"
                    "  g : u -> u\n"
                    "  g : v -> -v\n"
                    "}\n"
                    "construct dualize rho as Rd\n", encoding="utf-8")
    out_file = tmp_path / "rd.lieb"
    code, out, err = _run(capsys, "construct", str(path), "--op", "Rd", "--out", str(out_file))
    assert code == EXIT_PARSE_ERROR
    assert err.startswith("error: --op Rd: rendering a (co)representation requires naming")
    assert out == ""
    assert not out_file.exists()


def test_solve_weak_symplectic(tmp_path, capsys):
    path = _data_path(tmp_path, "sl2.lieb")
    code, out, _ = _run(capsys, "solve", str(path), "--problem", "weak-symplectic")
    assert code == EXIT_OK
    assert "solution dimension 3" in out
    code, out, _ = _run(capsys, "--format", "json", "solve", str(path),
                        "--problem", "weak-symplectic")
    payload = json.loads(out)
    assert payload["dimension"] == 3
    assert payload["rank"] == 0


def test_solve_co_cybe_slice(tmp_path, capsys):
    path = _data_path(tmp_path, "caybe-sl2.lieb")
    code, out, _ = _run(capsys, "solve", str(path), "--problem", "co-cybe-slice")
    assert code == EXIT_OK
    assert "solution dimension 3" in out


def test_solve_names_the_problem_when_its_structure_is_missing(tmp_path, capsys):
    path = _data_path(tmp_path, "sl2.lieb")
    code, out, err = _run(capsys, "solve", str(path), "--problem", "co-cybe-slice")
    assert code == EXIT_PARSE_ERROR and out == ""
    assert err == "error: --problem co-cybe-slice: the document declares no LieCoalgebra\n"


def test_solve_co_cybe_slice_with_a_form_off_the_coalgebra_exits_two(tmp_path, capsys):
    path = tmp_path / "misfit.lieb"
    path.write_text("space A : p q\nspace B : s t u\ncoalgebra C on A {\n  delta(p) = p@q - q@p\n}\n"
                    "form w on B skew {\n  (s, t) = 1\n}\n", encoding="utf-8")
    code, out, err = _run(capsys, "solve", str(path), "--problem", "co-cybe-slice")
    assert code == EXIT_PARSE_ERROR and out == ""
    assert err == "error: --problem co-cybe-slice: form does not live on the coalgebra's space\n"


@pytest.mark.parametrize("argv", [("check",), ("solve", "--problem", "ad-invariance"),
                                  ("construct", "--op", "x", "--out", "x.lieb")])
def test_a_repeated_basis_label_exits_two_with_its_position(argv, tmp_path, capsys):
    path = tmp_path / "repeated.lieb"
    path.write_text("space V : a a\n", encoding="utf-8")
    code, out, err = _run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err == "error: line 1, column 13: duplicate basis label 'a'\n"


# a declaration of each record type a linear problem reads
_DECLARATIONS = {
    LieAlgebra: "algebra a on V {\n  [e, f] = f\n}\n",
    LieCoalgebra: "coalgebra d on V {\n  delta(f) = e@f - f@e\n}\n",
    BilinearForm: "form w on V skew {\n  (e, f) = 1\n}\n",
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_solve_reads_its_problems_from_the_registry(kind, tmp_path, capsys):
    path = _data_path(tmp_path, "sl2.lieb")
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), "--problem", f"{kind}s"])
    assert exc.value.code == EXIT_PARSE_ERROR
    assert (f"argument --problem: invalid choice: '{kind}s' (choose from 'weak-symplectic', "
            "'ad-invariance', 'cocycle-in-delta', 'co-cybe-slice')") in capsys.readouterr().err
    # a document that declares the structures the kind reads up to one: the
    # error names the first it lacks
    records = [record for _, record in KINDS[kind].context]
    for p, missing in enumerate(records):
        doc = tmp_path / f"{kind}-{p}.lieb"
        doc.write_text("space V : e f\n" + "".join(_DECLARATIONS[r] for r in records[:p]),
                       encoding="utf-8")
        code, out, err = _run(capsys, "solve", str(doc), "--problem", kind)
        assert code == EXIT_PARSE_ERROR and out == ""
        assert err == f"error: --problem {kind}: the document declares no {missing.__name__}\n"
    doc.write_text("space V : e f\n" + "".join(map(_DECLARATIONS.get, records)), encoding="utf-8")
    assert _run(capsys, "solve", str(doc), "--problem", kind)[0] == EXIT_OK


def test_solve_rejects_seed_flag(tmp_path, capsys):
    # no sampling runs on the solve path, so there is nothing to seed
    path = _data_path(tmp_path, "sl2.lieb")
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), "--problem", "ad-invariance", "--seed", "1"])
    assert exc.value.code == EXIT_PARSE_ERROR
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_solve_reports_pivot_assumptions(tmp_path, capsys):
    path = tmp_path / "affine.lieb"
    path.write_text("params k\n"
                    "space L : a b\n"
                    "algebra aff on L {\n"
                    "  [a, b] = k*b\n"
                    "}\n"
                    "assume k\n", encoding="utf-8")
    code, out, _ = _run(capsys, "solve", str(path), "--problem", "ad-invariance")
    assert code == EXIT_OK
    assert out.splitlines()[:2] == ["problem ad-invariance: solution dimension 1 "
                                    "(rank 3 of 4 unknowns)", "assuming k != 0"]
    code, out, _ = _run(capsys, "--format", "json", "solve", str(path),
                        "--problem", "ad-invariance")
    assert code == EXIT_OK
    assert json.loads(out)["assumptions_used"] == ["k != 0"]
    # without a divisor to certify, there is nothing to report
    path = _data_path(tmp_path, "sl2.lieb")
    code, out, _ = _run(capsys, "--format", "json", "solve", str(path),
                        "--problem", "ad-invariance")
    assert json.loads(out)["assumptions_used"] == []


# the side conditions each solve of tests/golden/solve/parametric.lieb
# reports: its inputs' denominators k and k + 1, then its pivots' assumptions
_PARAMETRIC_ASSUMPTIONS = {
    "weak-symplectic": ["k != 0", "k + 1 != 0", "2*k + 1 != 0"],
    "ad-invariance": ["k != 0", "k + 1 != 0", "2*k + 1 != 0"],
    "cocycle-in-delta": ["k != 0", "k + 1 != 0", "k - 1 != 0", "k + 2 != 0"],
    "co-cybe-slice": ["k != 0", "k + 1 != 0", "k^2 + 2*k + 2 != 0"],
}


@pytest.mark.parametrize("problem", sorted(_PARAMETRIC_ASSUMPTIONS))
def test_parametric_solve_matches_golden(problem, capsys, monkeypatch):
    # The golden payloads were written by `lieb --format json solve
    # parametric.lieb --problem <problem>`, run in tests/golden/solve, without
    # assumptions_used, which is checked above.  Scalar keeps num/den in lowest
    # terms, so each rendered entry is the value's one canonical form.
    monkeypatch.chdir(GOLDEN / "solve")
    code, out, _ = _run(capsys, "--format", "json", "solve", "parametric.lieb",
                        "--problem", problem)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload.pop("assumptions_used") == _PARAMETRIC_ASSUMPTIONS[problem]
    assert payload == json.loads((GOLDEN / "solve" / f"{problem}.json").read_text(encoding="utf-8"))


def test_catalog_commands(tmp_path, capsys, monkeypatch):
    code, out, _ = _run(capsys, "catalog", "list")
    assert code == EXIT_OK
    assert "sl2:" in out
    code, out, _ = _run(capsys, "catalog", "show", "nij-family-6")
    assert code == EXIT_OK
    assert "k1 - k5 != 0" in out
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "catalog", "export", "symp-sl2")
    assert code == EXIT_OK
    assert (tmp_path / "symp-sl2.lieb").exists()
    code, _, err = _run(capsys, "catalog", "show", "no-such-entry")
    assert code == EXIT_PARSE_ERROR


@pytest.mark.parametrize("action", ["show", "export"])
def test_catalog_show_or_export_without_an_id_exits_two(action, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", action])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_PARSE_ERROR and captured.out == ""
    assert captured.err.endswith("\nlieb: error: catalog show/export needs an entry id\n")


def test_every_shipped_catalog_file_checks_clean(tmp_path, capsys):
    from lieb.catalog import list_entries

    for entry_id, _ in list_entries():
        path = _data_path(tmp_path, f"{entry_id}.lieb")
        code, out, _ = _run(capsys, "check", str(path))
        assert code == EXIT_OK, (entry_id, out)


def test_golden_reports_hold_when_parameters_are_met_in_another_order(tmp_path):
    # a fresh process that gives zz, lambda and k9 the first monomial slots
    stems = [golden.stem for golden in sorted(GOLDEN.glob("*.json"))]
    for stem in stems:
        _data_path(tmp_path, f"{stem}.lieb")
    script = ("import contextlib, io, json, sys\n"
              "from lieb import cli, parse_scalar\n"
              "parse_scalar('zz*lambda*k9')\n"
              "outs = {}\n"
              "for stem in sys.argv[1:]:\n"
              "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
              "        cli.main(['--format', 'json', 'check', stem + '.lieb'])\n"
              "    outs[stem] = out.getvalue()\n"
              "sys.stdout.write(json.dumps(outs))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script, *stems], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    outs = json.loads(run.stdout)
    assert len(outs) == 18
    for stem, out in outs.items():
        assert out == (GOLDEN / f"{stem}.json").read_text(encoding="utf-8"), stem


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_file_json_report_matches_golden(golden, tmp_path, capsys, monkeypatch):
    # The golden reports were written by `lieb --format json check <file>`, run in
    # the data directory, before the identity kernels skipped structural zeros.
    filename = golden.stem + ".lieb"
    _data_path(tmp_path, filename)
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "--format", "json", "check", filename)
    assert code == EXIT_OK
    assert out == golden.read_text(encoding="utf-8")


def test_parametric_check_matches_golden(capsys, monkeypatch):
    # The golden report was written by `lieb --format json check parametric.lieb`,
    # run in tests/golden/check.  Its residuals are rational functions of k,
    # each rendered in its one lowest-terms form.
    monkeypatch.chdir(GOLDEN / "check")
    code, out, _ = _run(capsys, "--format", "json", "check", "parametric.lieb")
    assert code == EXIT_CHECK_FAILED
    assert out == (GOLDEN / "check" / "parametric.json").read_text(encoding="utf-8")


# each construction of tests/golden/construct/parametric.lieb: its result's name
_CONSTRUCTED = {
    "delta_r": "delta-from-r",
    "bracket_omega": "bracket-from-omega",
    "n_omega_r": "nijenhuis-from-omega-r",
    "p_r_omega": "p-from-r-omega",
    "dual_g": "dualize",
    "dual_n": "dualize",
    "phi": "phi-r",
}


@pytest.mark.parametrize("result", sorted(_CONSTRUCTED), ids=lambda r: f"{_CONSTRUCTED[r]}-{r}")
def test_parametric_construct_matches_golden(result, tmp_path, capsys, monkeypatch):
    # The golden files were written by `lieb construct parametric.lieb --op
    # <result> --out <result>.lieb`, run in tests/golden/construct.
    monkeypatch.chdir(GOLDEN / "construct")
    out = tmp_path / f"{result}.lieb"
    code, _, _ = _run(capsys, "construct", "parametric.lieb", "--op", result, "--out", str(out))
    assert code == EXIT_OK
    assert out.read_text(encoding="utf-8") == \
        (GOLDEN / "construct" / f"{result}.lieb").read_text(encoding="utf-8")


def test_construct_goldens_cover_every_construction():
    from lieb.document import CONSTRUCT_OPS

    assert set(_CONSTRUCTED.values()) == set(CONSTRUCT_OPS)
    assert {p.stem for p in (GOLDEN / "construct").glob("*.lieb")} == {*_CONSTRUCTED, "parametric"}


def test_golden_reports_cover_every_shipped_file():
    shipped = {p.name for p in resources.files("lieb.data").iterdir() if p.name.endswith(".lieb")}
    assert {p.stem + ".lieb" for p in GOLDEN.glob("*.json")} == shipped
    assert len(shipped) == 18


def test_check_on_mismatched_shapes_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "shape.lieb"
    bad.write_text(
        _SL2
        + "space M : u v\n"
        "operator N : M -> M {\n"
        "  u -> u\n"
        "  v -> v\n"
        "}\n"
        "check nijenhuis sl2 N\n",
        encoding="utf-8")
    code, out, err = _run(capsys, "check", str(bad))
    assert code == EXIT_PARSE_ERROR
    assert err == "error: line 12, column 1: check nijenhuis: operator does not act on the algebra\n"
    assert out == ""


def test_rrbo_with_alpha_on_the_algebra_is_a_parse_error(tmp_path, capsys):
    # alpha must act on the 2-dimensional module, not on the 3-dimensional algebra
    bad = tmp_path / "rrbo.lieb"
    bad.write_text(
        _SL2.replace("sl2", "g")
        + "space V : u v\n"
        "rep R of g on V {\n"
        "  e : v -> u\n"
        "  f : u -> v\n"
        "}\n"
        "operator al : L -> L {\n"
        "  e -> e\n"
        "}\n"
        "operator N : L -> L {\n"
        "  e -> e\n"
        "}\n"
        "operator T : V -> L {\n"
        "  u -> e\n"
        "  v -> f\n"
        "}\n"
        "check rrbo g R al N T\n",
        encoding="utf-8")
    code, out, err = _run(capsys, "check", str(bad))
    assert code == EXIT_PARSE_ERROR
    assert err == "error: line 22, column 1: check rrbo: alpha must act on the module\n"
    assert out == ""


def test_construct_on_mismatched_shapes_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "construct.lieb"
    bad.write_text(
        _SL2
        + "space M : u v\n"
        "tensor r on M {\n"
        "  u@v - v@u\n"
        "}\n"
        "construct delta-from-r sl2 r as d\n",
        encoding="utf-8")
    code, _, err = _run(capsys, "check", str(bad))
    assert code == EXIT_PARSE_ERROR
    assert err.startswith("error: line 11, column 1: construct delta-from-r:")


def test_cpnybe_with_a_smaller_tensor_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "cpnybe.lieb"
    bad.write_text(
        _SL2
        + "space M : u v\n"
        "tensor r on M {\n"
        "  u@v - v@u\n"
        "}\n"
        "operator N : L -> L {\n"
        "  e -> e\n"
        "}\n"
        "check cpnybe sl2 r N N\n",
        encoding="utf-8")
    code, out, err = _run(capsys, "check", str(bad))
    assert code == EXIT_PARSE_ERROR
    assert err == ("error: line 14, column 1: check cpnybe: "
                   "tensor does not live on the algebra's space\n")
    assert out == ""


@pytest.mark.parametrize("statement, col, message", [
    ("check cybe sl2 N", 16, "check cybe: 'N' is a LinearOperator, not a TwoTensor"),
    ("check lie-algebra N", 19, "check lie-algebra: 'N' is a LinearOperator, not a LieAlgebra"),
    ("check nijenhuis sl2 r", 21, "check nijenhuis: 'r' is a TwoTensor, not a LinearOperator"),
    ("construct dualize r as rd", 19, "construct dualize: 'r' is a TwoTensor, not a LieAlgebra "
     "or LieCoalgebra or Representation or Corepresentation or LinearOperator"),
    ("construct delta-from-r sl2 N as dd", 28,
     "construct delta-from-r: 'N' is a LinearOperator, not a TwoTensor"),
    ("construct phi-r sl2 as pp", 17, "construct phi-r: 'sl2' is a LieAlgebra, not a TwoTensor"),
])
def test_argument_of_the_wrong_kind_is_a_parse_error(statement, col, message, tmp_path, capsys):
    # the error points at the argument of the wrong kind
    bad = tmp_path / "kinds.lieb"
    bad.write_text(
        _SL2
        + "tensor r on L {\n"
        "  e@f - f@e\n"
        "}\n"
        "operator N : L -> L {\n"
        "  e -> e\n"
        "}\n"
        + statement + "\n",
        encoding="utf-8")
    code, out, err = _run(capsys, "check", str(bad))
    assert code == EXIT_PARSE_ERROR
    assert err == f"error: line 13, column {col}: {message}\n"
    assert out == ""


def test_solve_pivot_without_assumption_names_the_polynomial(tmp_path, capsys):
    doc = ("params k\n"
           "space L : a b c\n"
           "algebra b6 on L {\n"
           "  [a, c] = a\n"
           "  [b, c] = k*b\n"
           "}\n")
    bad = tmp_path / "pivot.lieb"
    bad.write_text(doc, encoding="utf-8")
    code, out, err = _run(capsys, "solve", str(bad), "--problem", "weak-symplectic")
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert "divides by a pivot with the factor k + 1," in err
    assert "assume k + 1" in err
    # following the advice makes the solve go through
    good = tmp_path / "pivot-assumed.lieb"
    good.write_text(doc + "assume k + 1\n", encoding="utf-8")
    code, out, _ = _run(capsys, "solve", str(good), "--problem", "weak-symplectic")
    assert code == EXIT_OK
    assert "solution dimension 2 (rank 1 of 3 unknowns)" in out


# Bianchi VI_k, with every assumption its cocycle-in-delta pivots need but 5*k^2 - 13
_VI_K_WITHOUT_ONE = (
    "params k\n"
    "space L : e1 e2 e3\n"
    "algebra vi on L {\n"
    "  [e1, e2] = k*e2 - e3\n"
    "  [e1, e3] = -e2 + k*e3\n"
    "}\n"
    "assume k, k - 1, k + 1, k - 3, k + 3, 2*k^2 - 1\n"
)


def test_solve_pivot_names_only_the_factor_the_assumptions_leave(tmp_path, capsys):
    # the pivot is -5*k^3 + 13*k; k is declared, so only 5*k^2 - 13 is named
    path = tmp_path / "vi-k.lieb"
    path.write_text(_VI_K_WITHOUT_ONE, encoding="utf-8")
    code, out, err = _run(capsys, "solve", str(path), "--problem", "cocycle-in-delta")
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err == ("error: elimination divides by a pivot with the factor 5*k^2 - 13, which the "
                   "assumptions do not certify nonzero; if it is nonzero, declare "
                   "'assume 5*k^2 - 13'\n")
    path.write_text(_VI_K_WITHOUT_ONE + "assume 5*k^2 - 13\n", encoding="utf-8")
    code, out, _ = _run(capsys, "solve", str(path), "--problem", "cocycle-in-delta")
    assert code == EXIT_OK
    assert "solution dimension 10 (rank 17 of 27 unknowns)" in out


def test_superscript_digit_exits_two_with_its_position(tmp_path, capsys):
    path = tmp_path / "superscript.lieb"
    path.write_text("params k\n" + _SL2.replace("[e, g] = -2*e", "[e, g] = k^²*e"),
                    encoding="utf-8")
    code, out, err = _run(capsys, "check", str(path))
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err == "error: line 5, column 14: unexpected character '²'\n"
    code, out, err = _run(capsys, "check", str(_data_path(tmp_path, "sl2.lieb")), "--assume", "k^²")
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err == "error: --assume 'k^²': line 1, column 3: unexpected character '²'\n"


@pytest.mark.parametrize("entry, message", [
    ("k^2147483648*g", "line 4, column 14: the exponent of k exceeds 2147483647"),
    ("k^2147483647 * k*g", "line 4, column 25: the exponent of k exceeds 2147483647"),
    ("k^1073741824*g", "line 11, column 1: check cybe: the exponent of k exceeds 2147483647"),
])
def test_exponent_overflow_exits_two_with_its_position(entry, message, tmp_path, capsys):
    # the last entry is legal, but the Yang-Baxter equation squares it
    path = tmp_path / "overflow.lieb"
    path.write_text("params k\n" + _SL2.replace("[e, f] = g", f"[e, f] = {entry}")
                    + "tensor r on L {\n  k^1073741824*(f@g - g@f) + e@e\n}\ncheck cybe sl2 r\n",
                    encoding="utf-8")
    code, out, err = _run(capsys, "check", str(path))
    assert (code, out, err) == (EXIT_PARSE_ERROR, "", f"error: {message}\n")


# consecutive calls, each printing something other than the call before it
_CALLS = [
    ("check", "{qt}", "--identity", "cybe", "--identity", "cocycle"),
    ("check", "{qt}"),
    ("--format", "json", "check", "{qt}", "--identity", "cybe"),
    ("check", "{qt}", "--identity", "cybe"),
    ("check", "{qt}", "--format", "json"),
    ("check", "{sl2k}", "--assume", "k1 +"),
    ("check", "{sl2}"),
    ("check", "{sl2k}", "--assume", "k1", "--format", "json"),
    ("check", "{sl2k}", "--assume", "k1"),
]


def test_consecutive_mains_print_what_a_fresh_import_prints(tmp_path, capsys, monkeypatch):
    paths = {"qt": _data_path(tmp_path, "qt-sl2.lieb"), "sl2": _data_path(tmp_path, "sl2.lieb"),
             "sl2k": _sl2_with_params(tmp_path)}
    calls = [[arg.format(**paths) for arg in call] for call in _CALLS]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)  # as after a fresh import
        fresh.append(_run(capsys, *argv))
    assert all(a != b for a, b in zip(fresh, fresh[1:]))
    assert [_run(capsys, *argv) for argv in calls] == fresh


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_parser", None)
    build = mock.Mock(wraps=cli.build_parser)
    monkeypatch.setattr(cli, "build_parser", build)
    path = str(_data_path(tmp_path, "sl2.lieb"))
    for argv in (["check", path], ["--format", "json", "check", path], ["catalog", "list"]):
        assert _run(capsys, *argv)[0] == EXIT_OK
    assert build.call_count == 1


def test_a_name_patched_after_the_first_main_is_reached(tmp_path, capsys, monkeypatch):
    argv = ("solve", str(_data_path(tmp_path, "sl2.lieb")), "--problem", "weak-symplectic")
    first = _run(capsys, *argv)
    solve = mock.Mock(wraps=cli.solve_linear)
    monkeypatch.setattr(cli, "solve_linear", solve)
    assert _run(capsys, *argv) == first
    assert solve.call_count == 1
