"""Per-layer tracing from outside the library.

``Tracer.install`` wraps every public function of each sturmkit module,
rebinds it wherever another module imported it by name (for example
``floor_mul_add`` in ``sequences`` or ``check_indistinguishable`` in
``derive``), and wraps ``SequenceOracle.at`` and ``SequenceOracle.window``.
``uninstall`` restores the originals, so untraced runs pay nothing.

Each wrapped call is a span with a parent; self time is a span's duration
minus the time of its child spans.  Spans of symbol reads and of ``slopes``
calls are only aggregated (there are millions of them); the others are kept
in memory, up to ``SPAN_CAP``, and written out by ``write_spans``.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("slopes", "words", "sequences", "patterns", "language", "christoffel",
          "derive", "cli")
SPAN_CAP = 200_000
# inclusive-time groups: a group's time counts only while no member is open
INCLUSIVE = {
    "patterns.check_indistinguishable": "patterns.check_s",
    "patterns.certify_asymptotic": "patterns.certify_s",
    "sequences.difference_set": "sequences.nf_s",
    "sequences.oracles_equal": "sequences.nf_s",
    "sequences.is_recurrent": "sequences.nf_s",
    "derive.classify": "derive.classify_s",
    "cli.parse_oracle": "cli.parse_s",
}
UNSTORED_LAYERS = {"slopes"}


class _Frame:
    __slots__ = ("layer", "child", "span")

    def __init__(self, layer: str, span: int):
        self.layer = layer
        self.child = 0.0
        self.span = span


class Tracer:
    def __init__(self):
        self.recording = False
        self.stack: list[_Frame] = []
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.inclusive = dict.fromkeys(INCLUSIVE.values(), 0.0)
        self._open = dict.fromkeys(INCLUSIVE.values(), 0)
        self._last_error: dict[str, BaseException] = {}
        self.counts = dict.fromkeys(
            ("at_calls", "window_calls", "symbols_read", "rereads", "derive_symbols",
             "check_symbols", "lengths_checked", "derived_pair_calls",
             "derived_pair_rejects"), 0)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_span = 0
        self._op = -1
        self._seen: dict[int, tuple] = {}
        self._read_depth = 0
        self._saved: list[tuple] = []

    # -- ops ---------------------------------------------------------------

    def run_op(self, index: int, kind: str, fn):
        """Run one op as a root span; symbol rereads are counted per op."""
        self._seen = {}
        self._op = index
        self.recording = True
        try:
            return self._call("op", kind, fn, (), {}, True)
        finally:
            self.recording = False
            self._seen = {}

    # -- spans -------------------------------------------------------------

    def _call(self, layer: str, name: str, fn, args, kwargs, store: bool):
        stack = self.stack
        parent = stack[-1] if stack else None
        if store:
            span = self._next_span
            self._next_span += 1
        else:
            span = parent.span if parent else -1
        frame = _Frame(layer, span)
        group = INCLUSIVE.get(name)
        if group is not None:
            self._open[group] += 1
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if layer != "op" and self._last_error.get(layer) is not exc:
                self._last_error[layer] = exc  # count each exception once per layer
                self.errors[layer] += 1
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            duration = t1 - t0
            if parent is not None:
                parent.child += duration
            if layer != "op":
                self.self_s[layer] += duration - frame.child
            if group is not None:
                self._open[group] -= 1
                if not self._open[group]:
                    self.inclusive[group] += duration
            if store:
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span, parent.span if parent else None, self._op,
                                       layer, name, t0, t1))
                else:
                    self.dropped += 1

    def _read(self, oracle, lo: int, hi: int, name: str, fn, args):
        """A symbol read; only reads outside another read are counted as symbols."""
        if self._read_depth == 0:
            count = max(hi - lo + 1, 0)
            c = self.counts
            c["symbols_read"] += count
            if self.stack and self.stack[-1].layer == "derive":
                c["derive_symbols"] += count
            if self._open["patterns.check_s"]:
                c["check_symbols"] += count
            entry = self._seen.get(id(oracle))
            if entry is None:
                entry = self._seen[id(oracle)] = (oracle, set())  # keeps the id alive
            seen = entry[1]
            before = len(seen)
            seen.update(range(lo, hi + 1))
            c["rereads"] += count - (len(seen) - before)
        self.calls["sequences"] += 1
        self._read_depth += 1
        try:
            return self._call("sequences", name, fn, args, {}, False)
        finally:
            self._read_depth -= 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        store = layer not in UNSTORED_LAYERS
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.calls[layer] += 1
            if name == "derive.derived_pair":
                tracer.counts["derived_pair_calls"] += 1
                try:
                    return tracer._call(layer, name, fn, args, kwargs, store)
                except Exception:
                    tracer.counts["derived_pair_rejects"] += 1
                    raise
            result = tracer._call(layer, name, fn, args, kwargs, store)
            if name == "patterns.check_indistinguishable":
                tracer.counts["lengths_checked"] += result.lengths_checked
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import sturmkit
        from sturmkit.sequences import SequenceOracle

        modules = {layer: importlib.import_module(f"sturmkit.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(value, layer)
        for module in (sturmkit, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

        at, window = SequenceOracle.at, SequenceOracle.window
        tracer = self

        def traced_at(oracle, n):
            if not tracer.recording:
                return at(oracle, n)
            tracer.counts["at_calls"] += 1
            return tracer._read(oracle, n, n, "sequences.at", at, (oracle, n))

        def traced_window(oracle, lo, hi):
            if not tracer.recording:
                return window(oracle, lo, hi)
            tracer.counts["window_calls"] += 1
            return tracer._read(oracle, lo, hi, "sequences.window", window, (oracle, lo, hi))

        self._saved += [(SequenceOracle, "at", at), (SequenceOracle, "window", window)]
        SequenceOracle.at, SequenceOracle.window = traced_at, traced_window

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        for group, seconds in self.inclusive.items():
            out[group] = (seconds, "s")
        lengths = c["lengths_checked"]
        out["patterns.lengths_checked"] = (lengths, "count")
        out["patterns.symbols_per_length"] = (
            c["check_symbols"] / lengths if lengths else 0.0, "symbol/length")
        out["sequences.at_calls"] = (c["at_calls"], "count")
        out["sequences.window_calls"] = (c["window_calls"], "count")
        out["sequences.symbols_read"] = (c["symbols_read"], "count")
        out["sequences.reread_ratio"] = (
            c["rereads"] / c["symbols_read"] if c["symbols_read"] else 0.0, "ratio")
        out["derive.symbols_read"] = (c["derive_symbols"], "count")
        out["derive.derived_pair_calls"] = (c["derived_pair_calls"], "count")
        out["derive.derived_pair_rejects"] = (c["derived_pair_rejects"], "count")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span, parent, op, layer, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span, "parent": parent, "op": op, "layer": layer,
                                     "name": name, "start": t0, "end": t1}) + "\n")
