"""Spans around the public functions of imm5, recorded from outside the package.

`Tracer.installed()` replaces every binding of each traced function (the
defining module and every module that imported it by name) with a wrapper
that records a span: id, parent id, name, start and end.  Spans are kept in
memory; `Tracer.pass_metrics()` turns the spans of one pass into per-layer
figures, with self time = span duration minus the time its direct children
cover.  Nothing in ``src/imm5`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

# (module, function, span name).  Every module of the package that binds the
# same function object under the same name is patched too.
TRACED = [
    ("imm5.cli", "main", "cli.main"),
    ("imm5.cli", "parse_manifold", "cli.parse"),
    ("imm5.surgery", "homology_profile", "surgery.homology"),
    ("imm5.intlinalg", "smith_normal_form", "intlinalg.smith"),
    ("imm5.intlinalg", "signature", "intlinalg.signature"),
    ("imm5.intlinalg", "det_int", "intlinalg.det"),
    ("imm5.intlinalg", "solve_mod2", "intlinalg.solve_mod2"),
    ("imm5.spin", "spin_structures", "spin.enumerate"),
    ("imm5.spin", "wu_coset_of_difference", "spin.wu"),
    ("imm5.embeddings", "embedding_classes", "embeddings.offsets"),
    ("imm5.verify", "oracle_parity_lemma", "verify.parity"),
    ("imm5.verify", "oracle_snf", "verify.snf_oracle"),
    ("imm5.verify", "invariant_factors_via_minors", "verify.minors"),
    ("imm5.verify", "oracle_signature", "verify.signature_oracle"),
    ("imm5.verify", "charpoly_int", "verify.charpoly"),
    ("imm5.verify", "oracle_invariant_coincidence", "verify.coincidence"),
    ("imm5.verify", "oracle_gluing", "verify.gluing"),
    ("imm5.verify", "run_reproductions", "verify.reproductions"),
]

# Oracle batteries and the reproductions report their whole span (children
# included): the question they answer is what each battery costs.  Every
# other layer reports self time.
INCLUSIVE = {
    "verify.parity", "verify.snf_oracle", "verify.signature_oracle",
    "verify.coincidence", "verify.gluing", "verify.reproductions",
}

# Per-layer metric -> unit.  `_s` is seconds per pass, `_calls` calls per pass.
LAYER_METRICS = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.parse_s": "s",
    "surgery.homology_s": "s",
    "surgery.homology_calls": "count",
    "intlinalg.smith_s": "s",
    "intlinalg.smith_calls": "count",
    "intlinalg.smith_max_bits": "bits",
    "intlinalg.signature_s": "s",
    "intlinalg.signature_calls": "count",
    "intlinalg.det_s": "s",
    "intlinalg.det_calls": "count",
    "intlinalg.solve_mod2_s": "s",
    "intlinalg.solve_mod2_calls": "count",
    "spin.enumerate_s": "s",
    "spin.structures": "count",
    "spin.wu_s": "s",
    "spin.wu_calls": "count",
    "spin.wu_smith_per_presentation": "ratio",
    "embeddings.offsets_s": "s",
    "embeddings.cosets": "count",
    "verify.parity_s": "s",
    "verify.snf_oracle_s": "s",
    "verify.minors_s": "s",
    "verify.signature_oracle_s": "s",
    "verify.charpoly_s": "s",
    "verify.coincidence_s": "s",
    "verify.gluing_s": "s",
    "verify.reproductions_s": "s",
    "trace.overhead_frac": "fraction",
}

_SPAN_NAMES = {name for _, _, name in TRACED}
_HOOK = "trace.hook"


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        if row:
            best = max(best, max(row), -min(row))
    return best.bit_length()


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, key)
        self._stack: list[int] = []
        self._next_id = 0
        self._keep: list = []  # keeps span keys alive so ids are not reused
        self.op_bits: dict[int, int] = {}  # op index -> max Smith U/V bits
        self.current_op = 0
        self.counts = {"spin.structures": 0, "embeddings.cosets": 0,
                       "intlinalg.smith_max_bits": 0}

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        after = {"intlinalg.smith": self._after_smith,
                 "spin.enumerate": self._after_spins,
                 "embeddings.offsets": self._after_offsets}.get(name)
        keyed = name == "spin.wu"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            key = None
            if keyed:
                self._keep.append(args[0])
                key = id(args[0])
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, key))
            if after is not None:
                # bookkeeping is recorded as its own child of the parent, so
                # it is not charged to any layer's self time
                hid = self._next_id
                self._next_id += 1
                h0 = clock()
                after(result)
                spans.append((hid, parent, _HOOK, h0, clock(), None))
            return result

        return wrapper

    def _after_smith(self, dec) -> None:
        bits = max(_max_bits(dec.u), _max_bits(dec.v))
        c = self.counts
        c["intlinalg.smith_max_bits"] = max(c["intlinalg.smith_max_bits"], bits)
        self.op_bits[self.current_op] = max(self.op_bits.get(self.current_op, 0), bits)

    def _after_spins(self, spins) -> None:
        self.counts["spin.structures"] += len(spins)

    def _after_offsets(self, classes) -> None:
        self.counts["embeddings.cosets"] += len(classes.offsets_mod_24)

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore on exit."""
        patched = []
        try:
            for modname, attr, name in TRACED:
                original = getattr(sys.modules[modname], attr)
                wrapper = self._wrap(name, original)
                for mname, mod in list(sys.modules.items()):
                    if (mname == "imm5" or mname.startswith("imm5.")) and \
                            getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.spans.clear()  # the wrappers hold this list
        self._keep = []
        self.op_bits = {}
        for k in self.counts:
            self.counts[k] = 0

    # -- aggregation -------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer figures for the spans recorded since the last reset."""
        covered: dict[int, float] = {}
        by_id = {}
        for sid, parent, name, t0, t1, key in self.spans:
            by_id[sid] = (parent, name, key)
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
        secs: dict[str, float] = {}
        calls: dict[str, int] = {}
        smith_under_wu = 0
        wu_presentations = set()
        for sid, parent, name, t0, t1, key in self.spans:
            if name == _HOOK:
                continue
            dur = t1 - t0
            secs[name] = secs.get(name, 0.0) + (
                dur if name in INCLUSIVE else dur - covered.get(sid, 0.0))
            calls[name] = calls.get(name, 0) + 1
            if name == "spin.wu":
                wu_presentations.add(key)
            elif name == "intlinalg.smith":
                p = parent
                while p >= 0:
                    pparent, pname, _ = by_id[p]
                    if pname == "spin.wu":
                        smith_under_wu += 1
                        break
                    p = pparent
        out = {}
        for metric in LAYER_METRICS:
            layer, _, tail = metric.rpartition("_")
            if tail == "s" and layer in _SPAN_NAMES:
                out[metric] = secs.get(layer, 0.0)
            elif tail == "calls":
                out[metric] = float(calls.get(layer, 0))
        out.update({k: float(v) for k, v in self.counts.items()})
        out["spin.wu_smith_per_presentation"] = (
            smith_under_wu / len(wu_presentations) if wu_presentations else 0.0)
        return out

    def write_spans(self, path) -> None:
        """Write the spans of the current pass as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, t0, t1, _ in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes, metric by metric."""
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
