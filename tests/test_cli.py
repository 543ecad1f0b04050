"""Command-line interface, file formats and report round-trips."""

import contextlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import imm5
from imm5.cli import (
    _read_json,
    analyze_report,
    embeddings_report,
    from_jsonable,
    invariant_report,
    load_manifold,
    load_records,
    main,
    parse_manifold,
    parse_wu_coords,
    to_jsonable,
)
from imm5.embeddings import SpinBoundarySignatures, embedding_classes
from imm5.errors import AsymmetricMatrix, ParityError, ParityViolation, ParseError
from imm5.intlinalg import IntSymMatrix
from imm5.invariants import SeifertFillingR5, i_a
from imm5.surgery import Gamma2Element, HomologyProfile


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@contextlib.contextmanager
def int_digit_limit(limit):
    """CPython's int/str conversion digit limit, set for the block."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter has no int/str digit limit")


class TestAnalyze:
    def test_torus_fixture(self, capsys):
        code, out, _ = run(capsys, "analyze", "t3")
        assert code == 0
        assert "α = 0" in out
        assert "|Γ₂| = 1" in out
        assert "spin structures: 8" in out
        assert "≅ ℤ" in out

    def test_sphere_fixture(self, capsys):
        code, out, _ = run(capsys, "analyze", "s3")
        assert code == 0
        assert "spin structures: 1" in out

    def test_projective_space(self, capsys):
        code, out, _ = run(capsys, "analyze", "rp3")
        assert code == 0
        assert "|Γ₂| = 2" in out
        assert "ℤ₂ × ℤ" in out

    def test_file_input(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json",
                          {"name": "L(3,1)", "linking_matrix": [[3]]})
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "torsion invariant factors: 3" in out

    def test_asymmetric_matrix(self, capsys, tmp_path):
        path = write_json(tmp_path, "bad.json",
                          {"linking_matrix": [[0, 1], [2, 0]]})
        code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert "AsymmetricMatrix" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "ParseError" in err

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "analyze", "no-such-manifold")
        assert code == 2
        assert "ParseError" in err


class TestInvariant:
    def test_torus_filling(self, capsys, tmp_path):
        path = write_json(tmp_path, "rec.json", {
            "manifold": "t3",
            "fillings_r5": [{"id": "w8", "sigma": 8, "cusps_algebraic": 0}],
        })
        code, out, _ = run(capsys, "invariant", path, "--ia")
        assert code == 0
        assert "i_a[w8] = 12" in out

    def test_sphere_embedding_value(self, capsys, tmp_path):
        path = write_json(tmp_path, "rec.json", {
            "manifold": "s3",
            "fillings_r5": [{"sigma": 16, "cusps_algebraic": 0}],
        })
        code, out, _ = run(capsys, "invariant", path, "--ia")
        assert code == 0
        assert "= 24" in out

    def test_both_routes_and_residue(self, capsys, tmp_path):
        path = write_json(tmp_path, "rec.json", {
            "manifold": "t3",
            "fillings_r5": [{"sigma": 8, "cusps_algebraic": 0}],
            "fillings_r6": [{"sigma": 8, "triple_points": 0,
                             "singular_linking": 0}],
            "double_data": {"big_l": 0},
        })
        code, out, _ = run(capsys, "invariant", path)
        assert code == 0
        assert "all routes agree: ✓" in out
        assert "cusp residue" in out

    def test_parity_error_surfaces_record_id(self, capsys, tmp_path):
        path = write_json(tmp_path, "rec.json", {
            "manifold": "s3",
            "fillings_r5": [{"id": "odd-one", "sigma": 1, "cusps_algebraic": 0}],
        })
        code, _, err = run(capsys, "invariant", path, "--ia")
        assert code == 1
        assert "ParityError" in err and "odd-one" in err
        code, out, _ = run(capsys, "verify", path)
        assert code == 1
        assert "invariant parity: ✗  (record odd-one: 3*(sigma - alpha)" in out


class TestAct:
    def test_embedding_verdict_yes(self, capsys):
        code, out, _ = run(capsys, "act", "t3", "--wu", "0",
                           "--i", "0", "--omega", "12")
        assert code == 0
        assert "(0, 12)" in out
        assert "embedding class: yes" in out

    def test_embedding_verdict_no(self, capsys):
        code, out, _ = run(capsys, "act", "t3", "--wu", "0",
                           "--i", "0", "--omega", "6")
        assert code == 0
        assert "(0, 6)" in out
        assert "embedding class: no" in out

    def test_identity_action(self, capsys):
        code, out, _ = run(capsys, "act", "t3", "--wu", "0",
                           "--i", "7", "--omega", "0")
        assert code == 0
        assert "(0, 7)" in out

    def test_no_signature_data(self, capsys):
        code, out, _ = run(capsys, "act", "rp3", "--wu", "1",
                           "--i", "0", "--omega", "24")
        assert code == 0
        assert "unknown" in out

    def test_bad_wu_coordinates(self, capsys):
        code, _, err = run(capsys, "act", "t3", "--wu", "01",
                           "--i", "0", "--omega", "0")
        assert code == 2
        assert "ParseError" in err

    @pytest.mark.parametrize("argv", [
        ["act", "t3", "--wu", "0", "--i", "x" * 10000, "--omega", "0"],
        ["act", "t3", "--wu", "0", "--i", "0", "--omega", "x" * 10000],
        ["verify", "--oracles", "--seed", "x" * 10000],
        ["verify", "--oracles", "--trials", "x" * 10000],
    ], ids=["i", "omega", "seed", "trials"])
    def test_bad_integer_option_is_quoted(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert "invalid int value: 'xxx" in err and len(err) < 300

    def test_long_trials_count_is_quoted(self, capsys):
        code, out, err = run(capsys, "verify", "--oracles", "--trials", "-" + "7" * 10000)
        assert (code, out) == (2, "")
        assert err.startswith("ParseError: --trials") and len(err) < 300


class TestEmbeddingsCommand:
    def test_torus_offsets(self, capsys):
        code, out, _ = run(capsys, "embeddings", "t3")
        assert code == 0
        assert "{0, 12}" in out
        assert "12ℤ" in out

    def test_sphere_offsets(self, capsys):
        code, out, _ = run(capsys, "embeddings", "s3")
        assert code == 0
        assert "24ℤ" in out

    def test_missing_signature_block(self, capsys):
        code, _, err = run(capsys, "embeddings", "rp3")
        assert code == 2
        assert "CosetUncovered" in err

    @pytest.mark.parametrize("argv", [
        ["act", "--wu", "0" * 64, "--i", "0", "--omega", "0"], ["embeddings"],
    ], ids=["act", "embeddings"])
    def test_first_uncovered_coset_at_alpha_64(self, capsys, tmp_path, monkeypatch, argv):
        """diag(2, ..., 2) at alpha = 64 has 2**64 Wu cosets.  A block that
        covers only the zero coset is refused, naming 0...01, after at most
        one lookup more than the block has entries."""
        lookups = []

        class Counted(dict):  # embedding_classes looks a coset up with get
            def get(self, coset, default=None):
                lookups.append(coset)
                return super().get(coset, default)

        monkeypatch.setattr("imm5.cli.SpinBoundarySignatures",
                            lambda per_coset: SpinBoundarySignatures(Counted(per_coset)))
        path = write_json(tmp_path, "a64.json", {
            "linking_matrix": [[2 * (i == j) for j in range(64)] for i in range(64)],
            "spin_boundary_signatures": {"0" * 64: [0]}})
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (2, "")
        assert err == f"CosetUncovered: no base signature supplied for Wu coset {'0' * 63}1\n"
        assert 1 <= len(lookups) <= 1 + 1  # the block's one entry, and one more


class TestVerifyCommand:
    def test_corollaries(self, capsys):
        code, out, _ = run(capsys, "verify", "--corollaries")
        assert code == 0
        assert "12 = 3/2·8 = i(F₈)" in out
        assert "≠ 24k" in out
        assert "all k in [-10, 10]" in out
        assert "verdict: PASS" in out

    def test_oracles_fast(self, capsys):
        code, out, _ = run(capsys, "verify", "--oracles",
                           "--seed", "5", "--trials", "60")
        assert code == 0
        assert "parity lemma: 60/60 ✓" in out
        assert "SNF: 60/60 ✓" in out

    def test_oracles_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "--oracles", "--seed", "5",
                         "--trials", "40", "--json")
        _, out2, _ = run(capsys, "verify", "--oracles", "--seed", "5",
                         "--trials", "40", "--json")
        assert out1 == out2

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("IMM5_SEED", "77")
        code, out, _ = run(capsys, "verify", "--oracles",
                           "--trials", "30", "--json")
        assert code == 0
        assert json.loads(out)["sections"][0]["seed"] == 77

    def test_seed_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("IMM5_SEED", "77")
        _, out, _ = run(capsys, "verify", "--oracles", "--seed", "3",
                        "--trials", "30", "--json")
        assert json.loads(out)["sections"][0]["seed"] == 3

    def test_record_file_pass(self, capsys, tmp_path):
        path = write_json(tmp_path, "rec.json", {
            "closed_records_r5": [{"sigma": -1, "cusps_algebraic": 3}],
            "closed_records_r6": [
                {"sigma": 1, "triple_points": 1, "singular_linking": 2}],
            "partition_records": [{
                "part_cusps": [6, -6],
                "ambient_spin": True,
                "separator_null_homologous": True,
                "separator_avoids_double_points": True,
            }],
        })
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        assert "verdict: PASS" in out

    def test_record_file_identity_failure(self, capsys, tmp_path):
        path = write_json(tmp_path, "rec.json", {
            "closed_records_r5": [{"sigma": 1, "cusps_algebraic": 0}],
        })
        code, out, _ = run(capsys, "verify", path)
        assert code == 1
        assert "verdict: FAIL" in out

    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_trials_below_one_rejected(self, capsys, trials):
        code, out, err = run(capsys, "verify", "--oracles", "--trials", trials)
        assert code == 2
        assert out == ""
        assert err.startswith("ParseError: --trials must be at least 1")

    def test_trials_scale_the_coincidence_battery(self, capsys):
        code, out, _ = run(capsys, "verify", "--oracles", "--trials", "3", "--json")
        assert code == 0
        reports = json.loads(out)["sections"][0]["reports"]
        trials = {r["name"]: r["trials"] for r in reports}
        assert trials["i_a = i_b coincidence"] == 6
        assert set(trials.values()) == {3, 6}

    def test_fillings_with_distinct_ids_and_values_fail(self, capsys, tmp_path):
        path = write_json(tmp_path, "rec.json", {
            "manifold": "t3",
            "fillings_r5": [{"id": "a", "sigma": 8, "cusps_algebraic": 0},
                            {"id": "b", "sigma": 0, "cusps_algebraic": 0}],
        })
        code, out, _ = run(capsys, "verify", path)
        assert code == 1
        assert ("all filling routes give one invariant: ✗  "
                "(i_a[a] = 12, i_a[b] = 0)") in out
        assert out.endswith("verdict: FAIL\n")
        code, out, _ = run(capsys, "invariant", path, "--ia")
        assert code == 1
        assert "i_a[a] = 12\ni_a[b] = 0\nall routes agree: ✗" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/records.json")
        assert code == 2
        assert "ParseError" in err


class TestFileFormats:
    def test_wu_coordinate_parsing(self):
        assert parse_wu_coords("0", 0) == Gamma2Element(())
        assert parse_wu_coords("", 0) == Gamma2Element(())
        assert parse_wu_coords("01", 2) == Gamma2Element((0, 1))
        assert parse_wu_coords("(1, 0)", 2) == Gamma2Element((1, 0))
        with pytest.raises(ParseError):
            parse_wu_coords("2", 1)
        with pytest.raises(ParseError):
            parse_wu_coords("0", 2)

    def test_signature_parity_validated_at_parse(self):
        with pytest.raises(ParityViolation):
            parse_manifold({"linking_matrix": [],
                            "spin_boundary_signatures": {"0": [1]}})

    def test_string_encoded_matrix_entries(self):
        m = parse_manifold({"linking_matrix": [[str(2 ** 64)]]})
        assert m.profile.torsion_factors == (2 ** 64,)

    @pytest.mark.parametrize("matrix, message", [
        ([[True]], "linking_matrix[0]: expected an integer, got a boolean"),
        ([[1, 0], [0, False]], "linking_matrix[1]: expected an integer, got a boolean"),
        ([[1, 2.0], [2, 1]], "linking_matrix[0]: expected an integer, got 2.0"),
        ([[1, None]], "linking_matrix[0]: expected an integer, got None"),
    ], ids=["true", "false-after-ints", "float", "null"])
    def test_bad_matrix_entries_are_named(self, capsys, tmp_path, matrix, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_manifold({"linking_matrix": matrix})
        path = write_json(tmp_path, "m.json", {"linking_matrix": matrix})
        assert run(capsys, "analyze", path) == (2, "", f"ParseError: {message}\n")

    def test_signature_list_with_boolean_fails(self):
        with pytest.raises(ParseError, match="expected an integer, got a boolean"):
            parse_manifold({"linking_matrix": [[0]],
                            "spin_boundary_signatures": {"0": [0, True]}})

    def test_mixed_entry_rows_parse(self):
        big = 2 ** 70 + 1
        m = parse_manifold({"linking_matrix": [[str(big), 1], [" 1 ", "-3"]]})
        assert m.presentation.q.entries == ((big, 1), (1, -3))
        assert all(type(x) is int for row in m.presentation.q.entries for x in row)

    def test_first_asymmetric_entry_is_named(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json",
                          {"linking_matrix": [[0, 1, 2], [1, 0, 6], [3, 4, 0]]})
        assert run(capsys, "analyze", path) == (
            2, "", "AsymmetricMatrix: entry (2,0) = 3 differs from entry (0,2) = 2\n")

    def test_records_resolve_manifold_by_path(self, tmp_path):
        mpath = write_json(tmp_path, "m.json",
                           {"name": "L5", "linking_matrix": [[5]]})
        rpath = write_json(tmp_path, "r.json", {
            "manifold": "m.json",
            "fillings_r5": [{"sigma": 0, "cusps_algebraic": 0}],
        })
        sd = load_records(rpath)
        assert sd.manifold.presentation.name == "L5"
        assert mpath  # path variant exercised above

    def test_fillings_require_manifold(self, tmp_path):
        path = write_json(tmp_path, "r.json", {
            "fillings_r5": [{"sigma": 0, "cusps_algebraic": 0}]})
        with pytest.raises(ParseError):
            load_records(path)

    @pytest.mark.parametrize("payload", [
        {"fillings_r5": [5]},
        {"partition_records": ["a"]},
        {"fillings_r5": 3},
        {"double_data": {}},
        {"double_data": 3},
        {"manifold": 5},
        {"closed_records_r5": [
            {"sigma": -1, "cusps_algebraic": 3, "is_spin": "false"}]},
        {"partition_records": [
            {"part_cusps": [6, -6], "separator_avoids_double_points": 1}]},
        {"manifold": "t3",
         "fillings_r5": [{"id": "a", "sigma": 8, "cusps_algebraic": 0},
                         {"id": "a", "sigma": 0, "cusps_algebraic": 0}]},
    ], ids=["r5-record-not-object", "partition-record-not-object",
            "r5-not-list", "double-data-without-big-l", "double-data-not-object",
            "manifold-not-reference", "is-spin-string", "partition-flag-int",
            "duplicate-id"])
    def test_malformed_records_exit_2(self, capsys, tmp_path, payload):
        path = write_json(tmp_path, "r.json", payload)
        for command in ("verify", "invariant"):
            code, out, err = run(capsys, command, path)
            assert code == 2
            assert out == ""
            assert err.startswith("ParseError: ") and err.count("\n") == 1

    @pytest.mark.parametrize("payload, message", [
        ({"manifold": "t3", "fillings_r5": [{"sigma": 0}]},
         "r5[0]: missing field 'cusps_algebraic'"),
        ({"manifold": "t3", "fillings_r6": [{"sigma": 0, "triple_points": 0}]},
         "r6[0]: missing field 'singular_linking'"),
        ({"manifold": "t3",
          "fillings_r5": [{"id": "w8", "sigma": 1.5, "cusps_algebraic": 0}]},
         "w8.sigma: expected an integer, got 1.5"),
        ({"double_data": {}}, "double_data: missing field 'big_l'"),
        ({"partition_records": [{"part_cusps": [6]}]},
         "partition[0].part_cusps: expected a list of 2 integers, got [6]"),
        ({"closed_records_r5": [{"sigma": 0, "cusps_algebraic": 0,
                                 "cusps_per_component": [1]}]},
         "closed_r5[0]: per-component cusp counts must sum to the total"),
        ({"manifold": "t3", "fillings_r5": [{"sigma": 0, "cusps_algebraic": 2,
                                             "cusps_per_component": [1]}]},
         "r5[0]: per-component cusp counts must sum to the total"),
        ({"closed_records_r5": [{"sigma": 0, "cusps_algebraic": 0,
                                 "cusps_per_component": [None]}]},
         "closed_r5[0].cusps_per_component: expected an integer, got None"),
        ({"manifold": "t3",
          "fillings_r5": [{"id": "a", "sigma": 8, "cusps_algebraic": 0},
                          {"id": "a", "sigma": 0, "cusps_algebraic": 0}]},
         "a: duplicate id"),
        ({"manifold": "t3",
          "fillings_r5": [{"sigma": 8, "cusps_algebraic": 0}],
          "closed_records_r5": [{"id": "r5[0]", "sigma": 0, "cusps_algebraic": 0}]},
         "r5[0]: duplicate id"),
        ({"manifold": "t3",
          "fillings_r5": [{"sigma": list(range(3000)), "cusps_algebraic": 0}]},
         "r5[0].sigma: expected an integer, got [0, 1, 2, 3, 4, 5, ...]"),
        ({"manifold": "t3",
          "fillings_r5": [{"sigma": "7" * 40 + "x", "cusps_algebraic": 0}]},
         "r5[0].sigma: expected an integer, got '777777777777...777777777777x'"),
        ({"fillings_r6": {"k": [[1] * 100], "l": 1, "m": 2, "n": 3}},
         "fillings_r6 must be a list of objects, got {'k': [...], 'l': 1, 'm': 2, ...}"),
        ({"manifold": "m" * 1000},
         "'mmmmmmmmmmmm...mmmmmmmmmmmmm' is neither an existing file nor a "
         "built-in fixture"),
    ], ids=["r5-missing", "r6-missing", "wrong-type", "double-data-missing",
            "pair-too-short", "cusps-do-not-sum", "null-in-list",
            "filling-cusps-do-not-sum", "duplicate-id", "duplicate-positional-id", "long-list-quoted",
            "long-string-quoted", "nested-quoted", "long-reference-quoted"])
    def test_errors_name_record_and_field(self, capsys, tmp_path, payload, message):
        code, out, err = run(capsys, "verify", write_json(tmp_path, "r.json", payload))
        assert (code, out, err) == (2, "", f"ParseError: {message}\n")

    @pytest.mark.parametrize("argv, payload", [
        (["verify"], {"manifold": "t3",
                      "fillings_r5": [{"id": "x" * 5000, "sigma": "bad",
                                       "cusps_algebraic": 0}]}),
        (["verify"], {"closed_records_r6": [{"id": "y" * 5000, "sigma": 0}]}),
        (["verify"], {"manifold": "t3",
                      "fillings_r5": [{"id": "w" * 5000, "sigma": 8,
                                       "cusps_algebraic": 0}] * 2}),
        (["invariant", "--ia"], {"manifold": "t3",
                                 "fillings_r5": [{"id": "z" * 5000, "sigma": 1,
                                                  "cusps_algebraic": 0}]}),
        # keys that read as the trivial coset once spaces and commas go
        (["verify"], {"manifold": {"linking_matrix": [[0]],
                                   "spin_boundary_signatures": {" " * 5000 + "0": ["x"]}}}),
        (["verify"], {"manifold": {"linking_matrix": [[0]],
                                   "spin_boundary_signatures": {"," * 5000 + "0": [1]}}}),
    ], ids=["field-of-long-id", "missing-field-of-long-id", "duplicate-long-id",
            "parity-of-long-id", "value-of-long-coset", "parity-of-long-coset"])
    def test_long_labels_are_shortened(self, capsys, tmp_path, argv, payload):
        code, out, err = run(capsys, *argv, write_json(tmp_path, "r.json", payload))
        assert code in (1, 2) and out == ""
        assert err.count("\n") == 1 and len(err) <= 300, err[:400]

    @pytest.mark.parametrize("rid, shown", [
        ("a\nb", r"a\nb"), ("a\rb", r"a\rb"), ("\r\n", r"\r\n"),
        ("a\x85b\u2028c", r"a\x85b\u2028c"), ("tab\there", r"tab\there"),
    ], ids=["newline", "carriage-return", "crlf", "unicode-breaks", "tab"])
    def test_ids_with_line_breaks_stay_on_one_line(self, capsys, tmp_path, rid, shown):
        cases = [
            (["verify"], {"manifold": "t3", "fillings_r5": [{"id": rid, "sigma": 1}]},
             2, f"ParseError: {shown}: missing field 'cusps_algebraic'\n"),
            (["verify"], {"closed_records_r6": [
                {"id": rid, "sigma": True, "triple_points": 0, "singular_linking": 0}]},
             2, f"ParseError: {shown}.sigma: expected an integer, got a boolean\n"),
            (["verify"], {"partition_records": [{"id": rid, "part_cusps": [6, 6]}] * 2},
             2, f"ParseError: {shown}: duplicate id\n"),
            (["invariant", "--ia"], {"manifold": "t3", "fillings_r5": [
                {"id": rid, "sigma": 1, "cusps_algebraic": 0}]},
             1, f"ParityError: record {shown}: 3*(sigma - alpha) + cusps = 3 is odd; "
                "the record is inconsistent with any singular Seifert surface\n"),
        ]
        for argv, payload, exit_code, message in cases:
            code, out, err = run(capsys, *argv, write_json(tmp_path, "r.json", payload))
            assert (code, out, err) == (exit_code, "", message)
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("name, shown", [
        ("a\nb.json", r"a\nb.json"), ("a\r\nb.json", r"a\r\nb.json"),
        ("a\u2028b.json", r"a\u2028b.json"),
    ], ids=["newline", "crlf", "unicode-break"])
    def test_file_names_with_line_breaks_stay_on_one_line(self, capsys, tmp_path,
                                                         name, shown):
        (tmp_path / name).write_text("{bad", encoding="utf-8")
        why = ("not valid JSON (Expecting property name enclosed in double "
               "quotes: line 1 column 2 (char 1))")
        code, out, err = run(capsys, "analyze", str(tmp_path / name))
        assert (code, out, err) == (2, "", f"ParseError: {tmp_path}/{shown}: {why}\n")
        code, out, err = run(capsys, "verify",
                             write_json(tmp_path, "r.json", {"manifold": name}))
        assert (code, out, err) == (2, "", f"ParseError: {shown}: {why}\n")
        # escaped, never cut: a long label is named whole
        label = "d" * 400 + "/" + name
        with pytest.raises(ParseError) as exc:
            _read_json(str(tmp_path / "missing.json"), label)
        assert str(exc.value) == ("d" * 400 + f"/{shown}: cannot read "
                                  "(No such file or directory)")

    @pytest.mark.parametrize("command", ["analyze", "embeddings"])
    def test_long_asymmetric_entry_is_quoted(self, capsys, tmp_path, command):
        path = write_json(tmp_path, "m.json", {"linking_matrix": [[0, "7" * 6000], [1, 0]]})
        code, out, err = run(capsys, command, path)
        assert (code, out) == (2, "")
        assert err.startswith("AsymmetricMatrix: ") and err.count("\n") == 1
        assert len(err) <= 300, err[:400]

    @pytest.mark.parametrize("command, case", [
        ("analyze", "directory"), ("analyze", "not-utf8"),
        ("verify", "directory"), ("verify", "not-utf8"),
        ("verify", "empty-manifold"), ("verify", "manifold-not-utf8"),
        ("analyze", "deep"), ("verify", "deep"), ("verify", "manifold-deep"),
    ])
    def test_unreadable_files_exit_2(self, capsys, tmp_path, command, case):
        (tmp_path / "bad.json").write_bytes(b'\xff\xfe{"linking_matrix": [[0]]}')
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        path = {
            "directory": str(tmp_path),
            "not-utf8": str(tmp_path / "bad.json"),
            "empty-manifold": write_json(tmp_path, "r1.json", {"manifold": ""}),
            "manifold-not-utf8": write_json(tmp_path, "r2.json", {"manifold": "bad.json"}),
            "deep": str(tmp_path / "deep.json"),
            "manifold-deep": write_json(tmp_path, "r3.json", {"manifold": "deep.json"}),
        }[case]
        code, out, err = run(capsys, command, path)
        assert code == 2
        assert out == ""
        assert err.startswith("ParseError: ") and err.count("\n") == 1


@needs_digit_limit
class TestLongIntegers:
    """Integers past CPython's default 4,300-digit int/str limit."""

    def test_long_literal_is_exact(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"linking_matrix": [[' + "7" * 5000 + ']]}')
        with int_digit_limit(4300):
            code, out, err = run(capsys, "analyze", str(path), "--json")
            assert sys.get_int_max_str_digits() == 4300
        assert (code, err) == (0, "")
        assert json.loads(out)["torsion_factors"] == ["7" * 5000]

    def test_long_determinant_is_exact(self, capsys, tmp_path):
        entry = "3" * 2200
        path = write_json(tmp_path, "m.json",
                          {"linking_matrix": [[entry, "1"], ["1", entry]]})
        with int_digit_limit(4300):
            code, out, err = run(capsys, "analyze", path, "--json")
        assert (code, err) == (0, "")
        [factor] = json.loads(out)["torsion_factors"]
        with int_digit_limit(0):
            assert int(factor) == int(entry) ** 2 - 1

    def test_library_callers_get_parse_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"linking_matrix": [[' + "7" * 5000 + ']]}')
        with int_digit_limit(4300):
            with pytest.raises(ParseError, match=r"linking_matrix\[0\]"):
                parse_manifold({"linking_matrix": [["7" * 5000]]})
            with pytest.raises(ParseError, match="not valid JSON"):
                load_manifold(str(path))

    def test_library_errors_quote_long_ints(self):
        odd = SpinBoundarySignatures.from_dict({Gamma2Element(()): [10 ** 6000 + 1]})
        with int_digit_limit(4300):
            with pytest.raises(AsymmetricMatrix) as asymmetric:
                IntSymMatrix([[0, 7 * 10 ** 5000], [1, 0]])
            with pytest.raises(ParityViolation) as parity:
                embedding_classes(HomologyProfile(0, ()), odd)
            with pytest.raises(ParityError) as odd_total:
                i_a(SeifertFillingR5(sigma=7 * 10 ** 5000 + 1, cusps_algebraic=0),
                    HomologyProfile(0, ()))
        for error in (asymmetric, parity, odd_total):
            assert len(str(error.value)) <= 300

    def test_long_integer_option_is_exact(self, capsys):
        value = "7" * 5001
        with int_digit_limit(4300):
            code, out, err = run(capsys, "act", "t3", "--wu", "0", "--i", value,
                                 "--omega", "0", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["result_i"] == value


class TestJsonRoundTrip:
    def test_big_integers_survive(self):
        report = analyze_report(
            load_manifold({"name": "big", "linking_matrix": [[2 ** 60]]}))
        assert report["torsion_factors"] == [2 ** 60]
        wire = json.dumps(to_jsonable(report))
        back = from_jsonable(json.loads(wire))
        assert back == report

    def test_reports_round_trip(self, tmp_path):
        reports = [
            analyze_report(load_manifold("t3")),
            embeddings_report(load_manifold("t3")),
        ]
        rec = write_json(tmp_path, "rec.json", {
            "manifold": "t3",
            "fillings_r5": [{"sigma": 8, "cusps_algebraic": 0}],
            "fillings_r6": [{"sigma": 8, "triple_points": 0,
                             "singular_linking": 0}],
            "double_data": {"big_l": 0},
        })
        reports.append(invariant_report(load_records(rec), True, True))
        for report in reports:
            wire = json.dumps(to_jsonable(report))
            assert from_jsonable(json.loads(wire)) == report

    def test_json_flag_output_parses(self, capsys):
        code, out, _ = run(capsys, "analyze", "t3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == 0
        assert data["spin_structures"] == 8


def test_commands_without_oracles_leave_verify_unloaded():
    """Only verify --corollaries and verify --oracles import imm5.verify."""
    records = str(Path(__file__).resolve().parents[1] / "bench" / "data" / "records.json")
    commands = [["analyze", "t3"], ["embeddings", "t3"],
                ["act", "t3", "--wu", "0", "--i", "0", "--omega", "12"],
                ["invariant", records], ["verify", records]]
    script = (
        "import contextlib, io, json, sys\n"
        "from imm5.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "assert 'imm5.verify' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['verify', '--corollaries'])\n"
        "assert 'imm5.verify' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(imm5.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                   env=env, check=True)


# the modules analyze and embeddings load; act, invariant and verify with a
# record file may add imm5.invariants
FIXTURE_MODULES = ["imm5", "imm5.cli", "imm5.embeddings", "imm5.errors",
                   "imm5.fixtures", "imm5.intlinalg", "imm5.surgery"]


# standard-library modules that generate code or read source at import;
# no command needs them
CODEGEN_MODULES = {"dataclasses", "inspect"}

# standard-library modules that no command needs: the above, and copy,
# since the built-in fixtures copy their JSON records without it
UNUSED_MODULES = CODEGEN_MODULES | {"copy"}


def _modules_loaded(argv) -> list[str]:
    """The imm5 modules, and those of UNUSED_MODULES, that a fresh
    interpreter holds after running argv: a statement given as a string,
    or ``main(argv)``, which must exit 0."""
    script = (
        "import contextlib, io, json, sys\n"
        "argv = json.loads(sys.argv[1])\n"
        "if isinstance(argv, str):\n"
        "    exec(argv, {})\n"
        "else:\n"
        "    from imm5.cli import main\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'imm5' or m.startswith('imm5.')\n"
        f"                        or m in {sorted(UNUSED_MODULES)!r})))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(imm5.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def test_each_command_loads_only_the_modules_it_runs():
    """``import imm5`` loads no submodule, each subcommand loads the modules
    its code path calls, and none loads imm5.spin, dataclasses, inspect or
    copy.  ``import imm5.spin`` and ``from imm5 import *``, which loads
    every submodule that defines a public name, load neither dataclasses
    nor inspect.  Each case runs in a fresh interpreter."""
    records = str(Path(__file__).resolve().parents[1] / "bench" / "data" / "records.json")
    assert _modules_loaded("import imm5") == ["imm5"]
    loaded = _modules_loaded("import imm5.spin")
    assert "imm5.spin" in loaded and not CODEGEN_MODULES & set(loaded), loaded
    loaded = _modules_loaded("from imm5 import *")
    assert {"imm5.embeddings", "imm5.invariants", "imm5.spin"} <= set(loaded), loaded
    assert not CODEGEN_MODULES & set(loaded), loaded
    for argv in (["analyze", "t3"], ["embeddings", "t3"]):
        loaded = _modules_loaded(argv)
        assert loaded == FIXTURE_MODULES, argv
        assert not CODEGEN_MODULES & set(loaded), argv
        assert "copy" not in loaded, argv
    for argv in (["act", "t3", "--wu", "0", "--i", "0", "--omega", "12"],
                 ["invariant", records], ["verify", records]):
        loaded = _modules_loaded(argv)
        assert set(FIXTURE_MODULES) <= set(loaded), argv
        assert set(loaded) - set(FIXTURE_MODULES) <= {"imm5.invariants"}, argv
        assert not CODEGEN_MODULES & set(loaded), argv
        assert "copy" not in loaded, argv
    for argv in (["verify", "--corollaries"], ["verify", "--oracles", "--trials", "2"]):
        loaded = _modules_loaded(argv)
        assert "imm5.spin" not in loaded, argv
        assert not CODEGEN_MODULES & set(loaded), argv
        assert "copy" not in loaded, argv


def test_cli_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(imm5.__file__).parents[1]))
    subprocess.run(
        [sys.executable, "-c",
         "import imm5.cli, sys; assert 'numpy' not in sys.modules"],
        env=env, check=True)


@pytest.mark.parametrize("target", ["full", "closed-pipe"])
def test_unwritable_stdout_exits_2(target):
    """A report that cannot reach stdout ends in one stderr line and exit 2,
    with no traceback and nothing from the interpreter's flush at exit."""
    env = dict(os.environ, PYTHONPATH=str(Path(imm5.__file__).parents[1]))
    argv = [sys.executable, "-m", "imm5.cli", "verify", "--corollaries", "--json"]
    if target == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        reason = os.strerror(28)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        finally:
            os.close(write_end)
        reason = os.strerror(32)
    err = proc.stderr.decode("utf-8")
    assert proc.returncode == 2
    assert err == f"Imm5Error: cannot write the report to stdout ({reason})\n"
