"""In-process span recorder and the per-layer metrics computed from its spans.

`Tracer.install()` wraps the public functions of each bellcheck module
wherever they are looked up: a function is replaced in every loaded
bellcheck module that holds it, because `protocol` binds `measure_context`
and `shot_stream` at import and `cli` binds most of the others.
`ContextSystem.catalog` is a property that rebuilds on every access, so its
getter is wrapped.  Each call records a span (name, start, end, parent,
command id) in memory; `layer_metrics` turns a list of spans into the
per-layer numbers, and `write_tsv` writes the spans out at the end.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

# (module, attribute, span name).  The span name is the metric prefix.
TARGETS = (
    ("pauli", "multiply", "pauli.multiply"),
    ("pauli", "relabel", "pauli.relabel"),
    ("pauli", "to_dense", "pauli.to_dense"),
    ("constructions", "validate", "constructions.validate"),
    ("dsl", "parse_document", "dsl.parse_document"),
    ("parity", "build_parity_system", "parity.build_parity_system"),
    ("parity", "solve", "parity.solve"),
    ("parity", "check_certificate", "parity.check_certificate"),
    ("states", "apply_pauli", "states.apply_pauli"),
    ("states", "measure_context", "states.measure_context"),
    ("states", "bell_product_state", "states.bell_product_state"),
    ("states", "eigenrelation_check", "states.eigenrelation_check"),
    ("rng", "shot_stream", "rng.shot_stream"),
    ("protocol", "run_round", "protocol.run_round"),
    ("protocol", "run_experiment", "protocol.run_experiment"),
    ("chsh", "quantum_value", "chsh.quantum_value"),
)
CATALOG = "constructions.catalog"
MAIN = "cli.main"
# Spans that together make the dense state kernel.
KERNEL = ("states.apply_pauli", "states.measure_context")

AMPLITUDE_BYTES = 16  # complex128


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same span list, -1 for a root
    command: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters while installed; see module docstring."""

    def __init__(self):
        self.counters: dict[str, int] = {}
        self.command = 0
        self._raw: list[list] = []  # [name, start, end, parent, command]
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span called `name`."""
        index = len(self._raw)
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, self.command]
        self._raw.append(record)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def take(self) -> tuple[list[Span], dict[str, int]]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans = [Span(*record) for record in self._raw]
        counters = self.counters
        self._raw, self.counters = [], {}
        return spans, counters

    # --- installation --------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that were not found."""
        import bellcheck  # noqa: F401  (loads every submodule)
        from bellcheck.constructions import ContextSystem

        missing = []
        modules = [m for n, m in sys.modules.items() if n == "bellcheck" or n.startswith("bellcheck.")]
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules.get(f"bellcheck.{module_name}"), attr, None)
            if not callable(original):
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrapper(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        catalog = vars(ContextSystem).get("catalog")
        if isinstance(catalog, property):
            self._undo.append((ContextSystem, "catalog", catalog))
            ContextSystem.catalog = property(self._wrapper(CATALOG, catalog.fget), doc=catalog.__doc__)
        else:
            missing.append("constructions.ContextSystem.catalog")
        return missing

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _wrapper(self, name: str, fn):
        record = _COUNTERS.get(name)
        if name == "chsh.quantum_value":

            def wrapper(*args, **kwargs):
                method = kwargs.get("method", args[2] if len(args) > 2 else "factorized")
                return self.call(f"{name}.{method}", fn, *args, **kwargs)

        elif record is None:

            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                record(self, args, result)
                return result

        return wrapper


def _count_dsl(tracer: Tracer, args, result) -> None:
    tracer.count("dsl.bytes", len(args[0].encode()))


def _count_rows(tracer: Tracer, args, result) -> None:
    tracer.count("parity.rows", len(getattr(result, "rows", ())))


def _count_certificate(tracer: Tracer, args, result) -> None:
    tracer.count("parity.certificate_rows", len(getattr(result, "certificate", None) or ()))


def _count_apply(tracer: Tracer, args, result) -> None:
    # Computed, not measured: the input amplitudes are read and the output
    # written once each, 2^m complex128 values apiece.
    tracer.count("states.apply_pauli.bytes", 2 * AMPLITUDE_BYTES * len(result))


_COUNTERS = {
    "dsl.parse_document": _count_dsl,
    "parity.build_parity_system": _count_rows,
    "parity.solve": _count_certificate,
    "states.apply_pauli": _count_apply,
}
COUNTER_NAMES = ("dsl.bytes", "parity.rows", "parity.certificate_rows", "states.apply_pauli.bytes")
# `chsh.quantum_value` spans are named after the method they ran.
SPAN_NAMES = {
    *(name for _, _, name in TARGETS if name != "chsh.quantum_value"),
    *(f"chsh.quantum_value.{method}" for method in ("factorized", "dense")),
    CATALOG,
    MAIN,
}


# --- arithmetic on spans ---------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap one another.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def covered(spans: list[Span], names) -> float:
    """Wall time inside any span named in `names`, counting nested ones once."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name in names and not _has_ancestor(spans, s, names):
            total += s.duration
    return total


def busy_times(spans: list[Span]) -> dict[str, float]:
    """`covered(spans, (name,))` for every span name, in one sweep."""
    out: dict[str, float] = {}
    for s in spans:
        if not _has_ancestor(spans, s, (s.name,)):
            out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def _has_ancestor(spans: list[Span], span: Span, names) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], counters: dict[str, int], names) -> dict[str, float]:
    """The per-layer metrics `names` of one traced pass.

    `<span>.calls`, `<span>.busy_s` and `<span>.self_s` are the call count,
    wall time (nested spans of the same name once) and self time of the
    spans so named; a counter name gives its total; `states.kernel_share` is
    the wall time inside the kernel spans over that inside `cli.main`, and
    `trace.spans` the number of spans.  Any other name raises ValueError.
    """
    per_suffix: dict[str, dict[str, float]] = {"calls": {}, "self_s": {}}
    for s, t in zip(spans, self_times(spans)):
        per_suffix["calls"][s.name] = per_suffix["calls"].get(s.name, 0) + 1
        per_suffix["self_s"][s.name] = per_suffix["self_s"].get(s.name, 0.0) + t
    busy = per_suffix["busy_s"] = busy_times(spans)
    out: dict[str, float] = {}
    for name in names:
        span, _, suffix = name.rpartition(".")
        if name in COUNTER_NAMES:
            out[name] = counters.get(name, 0)
        elif name == "states.kernel_share":
            main = busy.get(MAIN, 0.0)
            out[name] = covered(spans, KERNEL) / main if main else 0.0
        elif name == "trace.spans":
            out[name] = len(spans)
        elif span in SPAN_NAMES and suffix in per_suffix:
            out[name] = per_suffix[suffix].get(span, 0 if suffix == "calls" else 0.0)
        else:
            raise ValueError(f"the span recorder has no per-layer metric {name!r}")
    return out


def write_tsv(path: Path, passes: list[list[Span]]) -> None:
    """Write every recorded span, one per line, with its pass number."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("pass\tindex\tname\tstart\tend\tparent\tcommand\n")
        for number, spans in enumerate(passes):
            for i, s in enumerate(spans):
                fh.write(f"{number}\t{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.parent}\t{s.command}\n")
