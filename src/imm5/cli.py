"""Command-line surface and file formats.

Subcommands: ``analyze``, ``invariant``, ``act``, ``embeddings`` and
``verify``.  Manifolds enter as JSON files (or built-in fixture names)
holding a linking matrix and, optionally, base signatures of spin
fillings per Wu coset; Seifert bookkeeping enters as JSON record files.

A record file holds one list per record kind (``invariants.RECORD_KINDS``)
and an optional ``double_data`` object.  ``_record`` reads each record
from the fields its type declares (``_record_fields``): a field without a
default is required, an absent one takes its default, and a present value
goes through the reader for the field's declared type.  Errors name
``<id>.<field>``, non-printable characters of the id escaped.
A record's name, its ``id`` or else ``<prefix>[<index>]``, is unique
within the file.
Integers may be written as decimal strings of any length and stay
exact; those larger than 53 bits are written back as decimal strings.

Each subcommand loads only the ``imm5`` modules it calls.  ``analyze``
and ``embeddings`` load ``errors``, ``fixtures``, ``intlinalg``,
``surgery`` and ``embeddings``.  ``act``, ``invariant`` and ``verify``
with a record file also load ``invariants``, which the functions using
it import when they run; ``verify --corollaries`` and ``--oracles`` load
``invariants`` and ``verify``.  No subcommand loads ``spin``.

Exit codes: 0 all checks pass, 1 an identity fails, 2 malformed input
(one ``ParseError: ...`` line on stderr, nothing on stdout) or a report
that cannot be written to stdout (one ``Imm5Error: ...`` line).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from math import gcd
from typing import TYPE_CHECKING

from .embeddings import (
    SpinBoundarySignatures,
    embedding_classes,
    is_embedding_class,
)
from .errors import (
    _QUOTE,
    CosetUncovered,
    Imm5Error,
    ParityError,
    ParityViolation,
    ParseError,
    _Value,
)
from .fixtures import manifold_json
from .intlinalg import IntSymMatrix
from .surgery import (
    Gamma2Element,
    HomologyProfile,
    SurgeryPresentation,
    gamma2_elements,
    homology_profile,
)

if TYPE_CHECKING:  # annotations only; the functions that run them import them
    from .invariants import (
        ClosedMapRecordR5, ClosedMapRecordR6, ImmersionDoubleData,
        PartitionRecord, SeifertFillingR5, SeifertFillingR6,
    )

SEED_ENV = "IMM5_SEED"
INT_STRING_BOUND = 2 ** 53
_INT_RE = re.compile(r"-?[0-9]+$")
# _BIT_VALUES maps the ASCII digits 0 and 1 to the bytes 0 and 1
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _cut(text: str) -> str:
    """text cut in the middle, as _QUOTE cuts a string, when longer than
    _QUOTE.maxstring."""
    cut = _QUOTE.maxstring
    if len(text) <= cut:
        return text
    head = (cut - 3) // 2
    return text[:head] + "..." + text[len(text) - (cut - 3 - head):]


def _escape(text: str) -> str:
    """text with each non-printable character escaped as repr escapes it,
    so that an error message naming it stays one line."""
    if text.isprintable():
        return text
    return "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in text)


def _label(name: str) -> str:
    """A record id as an error message names it: escaped by _escape, then
    cut by _cut.  Coset keys are quoted by repr instead, which escapes them
    itself.  Reports name records whole."""
    return _cut(_escape(name))


# ----------------------------------------------------------------------
# Exact-integer JSON helpers
# ----------------------------------------------------------------------

def to_jsonable(obj):
    """Recursively encode a report; huge integers become decimal strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return obj if abs(obj) <= INT_STRING_BOUND else str(obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    raise TypeError(f"cannot encode {type(obj).__name__}")


def from_jsonable(obj):
    """Inverse of to_jsonable: decimal strings beyond 53 bits become ints."""
    if isinstance(obj, str) and _INT_RE.match(obj) and abs(int(obj)) > INT_STRING_BOUND:
        return int(obj)
    if isinstance(obj, list):
        return [from_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {k: from_jsonable(v) for k, v in obj.items()}
    return obj


def _int(value, where: str) -> int:
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str) and _INT_RE.match(value.strip()):
        try:
            return int(value.strip())
        except ValueError as exc:  # past the interpreter's int/str digit limit
            raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: expected an integer, got {_QUOTE.repr(value)}")


def _bool(value, where: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ParseError(f"{where}: expected true or false, got {_QUOTE.repr(value)}")


def _ints(value, where: str, length: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers, of the given length if one is given."""
    if not isinstance(value, list) or length not in (None, len(value)):
        count = "" if length is None else f"{length} "
        raise ParseError(
            f"{where}: expected a list of {count}integers, got {_QUOTE.repr(value)}")
    if set(map(type, value)) <= {int}:  # type(True) is bool, so booleans go to _int
        return tuple(value)
    return tuple(_int(v, where) for v in value)


# The reader for each field type declared on the record types; only an
# optional field accepts null.
_READERS = {
    "int": _int,
    "bool": _bool,
    "tuple[int, int]": lambda value, where: _ints(value, where, 2),
    "tuple[int, ...] | None":
        lambda value, where: None if value is None else _ints(value, where),
}


def _record_fields(cls) -> list[tuple[str, str, bool]]:
    """(name, declared type, whether required) of each field of the record
    type cls: its annotations in order, a field required when the class
    body gives it no default."""
    return [(name, kind, name not in vars(cls))
            for name, kind in cls.__annotations__.items()]


def _record(obj, rid: str, cls):
    """The record of type cls read from the JSON object obj.

    A field without a default is required and an absent one takes its
    default; each present value is read by the field's declared type.
    """
    rid = _label(rid)
    if not isinstance(obj, dict):
        raise ParseError(f"{rid}: expected an object, got {_QUOTE.repr(obj)}")
    values = {}
    for name, kind, required in _record_fields(cls):
        if name in obj:
            values[name] = _READERS[kind](obj[name], f"{rid}.{name}")
        elif required:
            raise ParseError(f"{rid}: missing field '{name}'")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ParseError(f"{rid}: {exc}") from exc


# ----------------------------------------------------------------------
# ManifoldFile
# ----------------------------------------------------------------------

class ManifoldData(_Value):
    presentation: SurgeryPresentation
    profile: HomologyProfile
    signatures: SpinBoundarySignatures | None

    def __init__(self, presentation, profile, signatures) -> None:
        self._set(presentation, profile, signatures)


def parse_wu_coords(text: str, alpha: int) -> Gamma2Element:
    """Parse Wu-coset coordinates: a bit string of length alpha.

    The trivial coset of an alpha = 0 manifold may be written "0" or
    left empty.  Whitespace, parentheses and commas are dropped first,
    unless text is already a bare bit string of length alpha.
    """
    cleaned = text
    if type(text) is not str or not alpha or len(text) != alpha or text.strip("01"):
        cleaned = str(text).strip().strip("()").replace(",", "").replace(" ", "")
        if alpha == 0:
            if cleaned in ("", "0"):
                return Gamma2Element(())
            raise ParseError(
                f"Wu coordinates {_QUOTE.repr(text)} invalid: Gamma2 is trivial here")
        if len(cleaned) != alpha or cleaned.strip("01"):
            raise ParseError(
                f"Wu coordinates {_QUOTE.repr(text)} invalid: expected {alpha} bits"
            )
    return Gamma2Element(tuple(cleaned.encode().translate(_BIT_VALUES)))


def parse_manifold(data: dict) -> ManifoldData:
    if not isinstance(data, dict):
        raise ParseError("manifold file must hold a JSON object")
    name = str(data.get("name", "unnamed"))
    matrix = data.get("linking_matrix")
    if not isinstance(matrix, list):
        raise ParseError("manifold file needs a 'linking_matrix' list of rows")
    rows = [_ints(row, f"linking_matrix[{r}]") for r, row in enumerate(matrix)]
    pres = SurgeryPresentation(name, IntSymMatrix(rows))
    profile = homology_profile(pres)

    signatures = None
    block = data.get("spin_boundary_signatures")
    if block is not None:
        if not isinstance(block, dict):
            raise ParseError("'spin_boundary_signatures' must map cosets to lists")
        alpha = profile.alpha
        per_coset: dict[Gamma2Element, frozenset[int]] = {}
        for key, values in block.items():
            coset = parse_wu_coords(key, alpha)
            # an all-int list is read at C speed; the label naming the coset
            # is built only on the paths that raise
            if type(values) is list and set(map(type, values)) <= {int}:
                sigs = frozenset(values)
            else:
                sigs = frozenset(_ints(values, f"signatures for coset {_cut(key)!r}"))
            for s0 in sigs:
                if (s0 - alpha) % 2:
                    raise ParityViolation(
                        f"base signature {_QUOTE.repr(s0)} for coset {_cut(key)!r} "
                        f"has the wrong parity (alpha = {alpha})"
                    )
            # one lookup; keys naming one coset twice merge their signatures
            merged = per_coset.setdefault(coset, sigs)
            if merged is not sigs:
                per_coset[coset] = merged | sigs
        signatures = SpinBoundarySignatures(per_coset)
    return ManifoldData(pres, profile, signatures)


def _read_json(path: str, label: str):
    """The JSON value in the file at path; a ParseError naming label, escaped
    but not cut, when the file cannot be read or is not UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
        raise ParseError(f"{_escape(label)}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise ParseError(f"{_escape(label)}: cannot read ({exc.strerror})") from exc


def load_manifold(ref, base_dir: str | None = None) -> ManifoldData:
    """Load a manifold from an inline dict, a JSON path, or a fixture name."""
    if isinstance(ref, dict):
        return parse_manifold(ref)
    if not isinstance(ref, str):
        raise ParseError(
            f"manifold reference must be a file name, a fixture name or an "
            f"object, got {_QUOTE.repr(ref)}")
    path = ref if base_dir is None else os.path.join(base_dir, ref)
    if os.path.isfile(path):
        return parse_manifold(_read_json(path, ref))
    try:
        return parse_manifold(manifold_json(ref))
    except KeyError:
        raise ParseError(
            f"{_QUOTE.repr(ref)} is neither an existing file nor a built-in fixture"
        ) from None


# ----------------------------------------------------------------------
# SeifertDataFile
# ----------------------------------------------------------------------

class SeifertData(_Value):
    manifold: ManifoldData | None
    double_data: ImmersionDoubleData | None
    fillings_r5: list[tuple[str, SeifertFillingR5]]
    fillings_r6: list[tuple[str, SeifertFillingR6]]
    closed_records_r5: list[tuple[str, ClosedMapRecordR5]]
    closed_records_r6: list[tuple[str, ClosedMapRecordR6]]
    partition_records: list[tuple[str, PartitionRecord]]

    def __init__(self, manifold, double_data, fillings_r5, fillings_r6,
                 closed_records_r5, closed_records_r6, partition_records) -> None:
        self._set(manifold, double_data, fillings_r5, fillings_r6,
                  closed_records_r5, closed_records_r6, partition_records)


def parse_seifert_file(data: dict, base_dir: str | None = None) -> SeifertData:
    from .invariants import RECORD_KINDS, ImmersionDoubleData

    if not isinstance(data, dict):
        raise ParseError("record file must hold a JSON object")

    manifold = None
    if "manifold" in data:
        manifold = load_manifold(data["manifold"], base_dir)

    records = {}
    seen = set()  # record names, explicit or positional, unique per file
    for key, (prefix, cls) in RECORD_KINDS.items():
        objs = data.get(key, [])
        if not isinstance(objs, list):
            raise ParseError(
                f"{key} must be a list of objects, got {_QUOTE.repr(objs)}")
        records[key] = []
        for k, obj in enumerate(objs):
            rid = f"{prefix}[{k}]"
            if isinstance(obj, dict) and "id" in obj:
                rid = str(obj["id"])
            if rid in seen:
                raise ParseError(f"{_label(rid)}: duplicate id")
            seen.add(rid)
            records[key].append((rid, _record(obj, rid, cls)))

    double_data = data.get("double_data")
    if double_data is not None:
        double_data = _record(double_data, "double_data", ImmersionDoubleData)

    if (records["fillings_r5"] or records["fillings_r6"]) and manifold is None:
        raise ParseError("record file with fillings needs a 'manifold' reference")

    return SeifertData(manifold, double_data, **records)


def load_records(path: str) -> SeifertData:
    if not os.path.isfile(path):
        raise ParseError(f"{path!r}: no such file")
    base_dir = os.path.dirname(os.path.abspath(path))
    return parse_seifert_file(_read_json(path, path), base_dir)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def _group_string(alpha: int) -> str:
    return " × ".join(["ℤ₂"] * alpha + ["ℤ"])


def describe_offsets(offsets: frozenset[int]) -> str:
    """Render an offset set mod 24 as a union of progressions."""
    if not offsets:
        return "∅"
    g = gcd(24, *offsets)
    if offsets == frozenset(range(0, 24, g)):
        return f"{g}ℤ"
    return " ∪ ".join(
        ("24ℤ" if r == 0 else f"(24ℤ + {r})") for r in sorted(offsets)
    )


def analyze_report(m: ManifoldData) -> dict:
    h = m.profile
    return {
        "command": "analyze",
        "name": m.presentation.name,
        "betti1": h.betti1,
        "torsion_factors": list(h.torsion_factors),
        "alpha": h.alpha,
        "gamma2_order": h.gamma2_order,
        "spin_structures": h.spin_structure_count,
        "wu_components": [str(c) for c in gamma2_elements(h)],
        "classes": _group_string(h.alpha),
    }


def render_analyze(rep: dict) -> str:
    torsion = ", ".join(str(d) for d in rep["torsion_factors"]) or "(none)"
    gamma_note = "  (Γ₂ = 0)" if rep["alpha"] == 0 else ""
    lines = [
        f"manifold: {rep['name']}",
        f"β₁ = {rep['betti1']}",
        f"torsion invariant factors: {torsion}",
        f"α = {rep['alpha']}",
        f"|Γ₂| = {rep['gamma2_order']}{gamma_note}",
        f"spin structures: {rep['spin_structures']}",
        f"Imm[M³,ℝ⁵]₀ ≅ Γ₂ × ℤ "
        f"≅ {rep['classes']}",
        f"Wu components: {', '.join(rep['wu_components'])}",
    ]
    return "\n".join(lines)


def _filling_values(sd: SeifertData, want_ia: bool,
                    want_ib: bool) -> list[tuple[str, str, int]]:
    """The invariant i of every filling, as (route, record id, value) in
    file order: i_a of the 5-space fillings, then i_b of the 6-space ones.
    A ParityError names the record that raised it."""
    from .invariants import i_a, i_b

    h = sd.manifold.profile
    values = []
    try:
        if want_ia:
            for rid, rec in sd.fillings_r5:
                values.append(("i_a", rid, i_a(rec, h)))
        if want_ib:
            for rid, rec in sd.fillings_r6:
                values.append(("i_b", rid, i_b(rec, sd.double_data, h)))
    except ParityError as exc:
        raise ParityError(f"record {_label(rid)}: {exc}") from exc
    return values


def invariant_report(sd: SeifertData, want_ia: bool, want_ib: bool) -> dict:
    from .invariants import check_cusp_residue

    if sd.manifold is None:
        raise ParseError("record file needs a 'manifold' reference")
    if want_ia and not sd.fillings_r5:
        raise ParseError("no 5-space fillings in the record file")
    if want_ib:
        if not sd.fillings_r6:
            raise ParseError("no 6-space fillings in the record file")
        if sd.double_data is None:
            raise ParseError("i_b needs the double_data block (big_l)")
    values = _filling_values(sd, want_ia, want_ib)
    coincide = len({v for _, _, v in values}) <= 1
    residues = None
    residues_ok = True
    if sd.double_data is not None and sd.fillings_r5:
        residues = []
        for rid, rec in sd.fillings_r5:
            ok = check_cusp_residue(rec, sd.double_data)
            residues.append({"id": rid,
                             "cusps_mod_3": rec.cusps_algebraic % 3,
                             "big_l_mod_3": sd.double_data.big_l % 3,
                             "ok": ok})
            residues_ok = residues_ok and ok
    return {
        "command": "invariant",
        "name": sd.manifold.presentation.name,
        "alpha": sd.manifold.profile.alpha,
        "i_a": [{"id": rid, "value": v} for r, rid, v in values if r == "i_a"],
        "i_b": [{"id": rid, "value": v} for r, rid, v in values if r == "i_b"],
        "coincide": coincide,
        "cusp_residues": residues,
        "passed": coincide and residues_ok,
    }


def render_invariant(rep: dict) -> str:
    lines = [f"manifold: {rep['name']} (α = {rep['alpha']})"]
    lines.extend(f"{route}[{entry['id']}] = {entry['value']}"
                 for route in ("i_a", "i_b") for entry in rep[route])
    if rep["i_a"] or rep["i_b"]:
        mark = "✓" if rep["coincide"] else "✗"
        lines.append(f"all routes agree: {mark}")
    if rep["cusp_residues"] is not None:
        for entry in rep["cusp_residues"]:
            mark = "✓" if entry["ok"] else "✗"
            lines.append(
                f"cusp residue [{entry['id']}]: #cusps ≡ "
                f"{entry['cusps_mod_3']}, L ≡ {entry['big_l_mod_3']} "
                f"(mod 3) {mark}")
    return "\n".join(lines)


def act_report(m: ManifoldData, wu: Gamma2Element, i: int, omega: int) -> dict:
    from .invariants import RegHomotopyClass, SmaleClass, connected_sum_act

    start = RegHomotopyClass(wu, i)
    result = connected_sum_act(start, SmaleClass(omega))
    verdict = None
    if m.signatures is not None:
        classes = embedding_classes(m.profile, m.signatures)
        verdict = is_embedding_class(result, classes)
    return {
        "command": "act",
        "name": m.presentation.name,
        "wu": str(wu),
        "i": i,
        "omega": omega,
        "result_i": result.i,
        "embedding_class": verdict,
    }


def render_act(rep: dict) -> str:
    verdict = {True: "yes", False: "no", None: "unknown (no signature data)"}
    return "\n".join([
        f"({rep['wu']}, {rep['i']}) ♯ Ω={rep['omega']} → "
        f"({rep['wu']}, {rep['result_i']})",
        f"embedding class: {verdict[rep['embedding_class']]}",
    ])


def embeddings_report(m: ManifoldData) -> dict:
    if m.signatures is None:
        raise CosetUncovered(
            "manifold file carries no spin_boundary_signatures block")
    classes = embedding_classes(m.profile, m.signatures)
    # embedding_classes fills its offsets in gamma2_elements order
    cosets = [{
        "coset": str(coset),
        "offsets_mod_24": sorted(offsets),
        "description": describe_offsets(offsets),
    } for coset, offsets in classes.offsets_mod_24.items()]
    return {
        "command": "embeddings",
        "name": m.presentation.name,
        "alpha": m.profile.alpha,
        "cosets": cosets,
    }


def render_embeddings(rep: dict) -> str:
    lines = [f"manifold: {rep['name']} (α = {rep['alpha']})"]
    for entry in rep["cosets"]:
        offs = ", ".join(str(o) for o in entry["offsets_mod_24"])
        lines.append(
            f"coset {entry['coset']}: offsets mod 24 = {{{offs}}} "
            f"→ i ∈ {entry['description']}")
    return "\n".join(lines)


def verify_file_report(sd: SeifertData) -> dict:
    from .invariants import (
        check_closed_r5, check_closed_r6, check_cusp_residue,
        check_partition_divisibility, check_spin_even_components,
    )

    checks = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": passed, "detail": detail})

    for rid, rec in sd.closed_records_r5:
        add(f"closed 5-space identity [{rid}]", check_closed_r5(rec),
            f"#cusps + 3σ = {rec.cusps_algebraic + 3 * rec.sigma}")
        if rec.is_spin and rec.cusps_per_component is not None:
            add(f"even cusps per component [{rid}]",
                check_spin_even_components(rec),
                str(list(rec.cusps_per_component)))
    for rid, rec in sd.closed_records_r6:
        add(f"closed 6-space identity [{rid}]", check_closed_r6(rec),
            f"σ - l + t = "
            f"{rec.sigma - rec.singular_linking + rec.triple_points}")
    for rid, rec in sd.partition_records:
        if (rec.ambient_spin and rec.separator_null_homologous
                and rec.separator_avoids_double_points):
            add(f"partition divisibility by 6 [{rid}]",
                check_partition_divisibility(rec), str(list(rec.part_cusps)))
        else:
            add(f"partition divisibility by 6 [{rid}]", True,
                "skipped: precondition flags not set")

    if sd.manifold is not None and (sd.fillings_r5 or sd.fillings_r6):
        try:
            values = _filling_values(sd, True, sd.double_data is not None)
        except ParityError as exc:
            add("invariant parity", False, str(exc))
            values = []
        if values:
            add("all filling routes give one invariant",
                len({v for _, _, v in values}) <= 1,
                ", ".join(f"{r}[{rid}] = {v}" for r, rid, v in values))
        if sd.double_data is not None:
            for rid, rec in sd.fillings_r5:
                add(f"cusp residue mod 3 [{rid}]",
                    check_cusp_residue(rec, sd.double_data),
                    f"#cusps = {rec.cusps_algebraic}, L = {sd.double_data.big_l}")

    passed = all(c["passed"] for c in checks)
    return {"command": "verify", "mode": "records", "checks": checks,
            "passed": passed}


def corollaries_report() -> dict:
    from .verify import run_reproductions  # so that no other command loads verify

    reports = run_reproductions()
    return {
        "command": "verify",
        "mode": "corollaries",
        "checks": [{"name": r.name, "passed": r.passed, "lines": list(r.lines)}
                   for r in reports],
        "passed": all(r.passed for r in reports),
    }


def oracles_report(seed: int, trials: int) -> dict:
    from .verify import run_oracles  # so that no other command loads verify

    reports = run_oracles(seed=seed, trials=trials)
    return {
        "command": "verify",
        "mode": "oracles",
        "seed": seed,
        "reports": [{"name": r.name, "trials": r.trials,
                     "failures": list(r.failures), "passed": r.passed}
                    for r in reports],
        "passed": all(r.passed for r in reports),
    }


def render_verify(rep: dict) -> str:
    lines = []
    for sub in rep["sections"]:
        if sub["mode"] == "records":
            for check in sub["checks"]:
                mark = "✓" if check["passed"] else "✗"
                detail = f"  ({check['detail']})" if check["detail"] else ""
                lines.append(f"{check['name']}: {mark}{detail}")
        elif sub["mode"] == "corollaries":
            for check in sub["checks"]:
                lines.extend(check["lines"])
        elif sub["mode"] == "oracles":
            for entry in sub["reports"]:
                mark = "✓" if entry["passed"] else "✗"
                good = entry["trials"] - len(entry["failures"])
                lines.append(f"{entry['name']}: {good}/{entry['trials']} {mark}")
                lines.extend(f"  {f}" for f in entry["failures"][:5])
    lines.append("verdict: " + ("PASS" if rep["passed"] else "FAIL"))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Command handlers
# ----------------------------------------------------------------------

def _emit(rep: dict, renderer, as_json: bool) -> None:
    text = (json.dumps(to_jsonable(rep), indent=2, ensure_ascii=False) if as_json
            else renderer(rep))
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:  # a full disk, a closed pipe
        # what is left in the buffer goes to the null device, so the
        # interpreter's flush at exit reports nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise Imm5Error(f"cannot write the report to stdout ({exc.strerror})") from None


def _cmd_analyze(args) -> dict:
    return analyze_report(load_manifold(args.file))


def _cmd_invariant(args) -> dict:
    return invariant_report(load_records(args.file),
                            want_ia=args.ia or not args.ib,
                            want_ib=args.ib or not args.ia)


def _cmd_act(args) -> dict:
    m = load_manifold(args.file)
    return act_report(m, parse_wu_coords(args.wu, m.profile.alpha), args.i, args.omega)


def _cmd_embeddings(args) -> dict:
    return embeddings_report(load_manifold(args.file))


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(
                f"{SEED_ENV}={_QUOTE.repr(env)} is not an integer") from None
    return 0


def _cmd_verify(args) -> dict:
    if args.trials < 1:
        raise ParseError(
            f"--trials must be at least 1, got {_QUOTE.repr(args.trials)}")
    everything = not (args.file or args.corollaries or args.oracles)
    sections = []
    if args.file:
        sections.append(verify_file_report(load_records(args.file)))
    if args.corollaries or everything:
        sections.append(corollaries_report())
    if args.oracles or everything:
        sections.append(oracles_report(_resolve_seed(args), trials=args.trials))
    return {
        "command": "verify",
        "mode": sections[0]["mode"] if len(sections) == 1 else "combined",
        "sections": sections,
        "passed": all(s["passed"] for s in sections),
    }


def _int_option(text: str) -> int:
    """An integer option's value; a bad one gets argparse's own message
    for ``type=int``, with the value quoted through _QUOTE."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {_QUOTE.repr(text)}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imm5",
        description=("Regular-homotopy classification of immersions of closed "
                     "oriented 3-manifolds in 5-space"),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="homology, Gamma2 and class census")
    p.add_argument("file", help="manifold JSON file or fixture name")
    p.set_defaults(func=_cmd_analyze, render=render_analyze)

    p = sub.add_parser("invariant", help="integer invariant from Seifert records")
    p.add_argument("file", help="Seifert record JSON file")
    p.add_argument("--ia", action="store_true", help="cusp route only")
    p.add_argument("--ib", action="store_true", help="triple-point route only")
    p.set_defaults(func=_cmd_invariant, render=render_invariant)

    p = sub.add_parser("act", help="connected sum with a sphere immersion")
    p.add_argument("file", help="manifold JSON file or fixture name")
    p.add_argument("--wu", required=True, help="Wu coordinates, e.g. 0 or 01")
    p.add_argument("--i", required=True, type=_int_option)
    p.add_argument("--omega", required=True, type=_int_option)
    p.set_defaults(func=_cmd_act, render=render_act)

    p = sub.add_parser("embeddings", help="embedding classes per Wu coset")
    p.add_argument("file", help="manifold JSON file or fixture name")
    p.set_defaults(func=_cmd_embeddings, render=render_embeddings)

    p = sub.add_parser("verify", help="validators, oracles and built-in checks")
    p.add_argument("file", nargs="?", help="Seifert record JSON file")
    p.add_argument("--corollaries", action="store_true",
                   help="run the built-in reproductions")
    p.add_argument("--oracles", action="store_true",
                   help="run the randomized oracle sweeps")
    p.add_argument("--seed", type=_int_option, default=None,
                   help=f"oracle seed (default: ${SEED_ENV} or 0)")
    p.add_argument("--trials", type=_int_option, default=500)
    p.set_defaults(func=_cmd_verify, render=render_verify)

    for p in sub.choices.values():  # last, so it ends every usage line
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    # Integers are exact decimal strings of any length, in files, options
    # and reports, past CPython's default cap of 4,300 digits on int/str
    # conversion.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        rep = args.func(args)
        _emit(rep, args.render, args.json)
        return 0 if rep.get("passed", True) else 1
    except ParityError as exc:
        print(f"ParityError: {exc}", file=sys.stderr)
        return 1
    except Imm5Error as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
