"""Spans around the calls into each gspcert layer, recorded from outside.

Tracer.install rebinds the public layer functions in the namespaces the
program looks them up in (gspcert.cli, .certifier, .eigen_data,
.polynomial), so a span nests exactly where the program calls the layer and
no layer runs twice.  Spans stay in memory until the benchmark reads them.
"""
from __future__ import annotations

from time import perf_counter_ns

# (module, attribute, span name): each function is rebound in the module
# whose code calls it, since that is where the program looks the name up
TARGETS = (
    ("cli", "ingest", "cli.ingest"),
    ("cli", "embedding_roots", "eigen_data.embedding_roots"),
    ("cli", "certify", "certifier.certify"),
    ("cli", "render_json", "cli.render_json"),
    ("cli", "render_text", "cli.render_text"),
    ("certifier", "specialize", "eigen_data.specialize"),
    ("certifier", "build_records", "certifier.build_records"),
    ("certifier", "make_field", "finite_field.make_field"),
    ("eigen_data", "hecke_quartic", "eigen_data.hecke_quartic"),
    ("eigen_data", "factor", "polynomial.factor"),
    ("eigen_data", "make_field", "finite_field.make_field"),
    ("polynomial", "make_field", "finite_field.make_field"),
) + tuple(
    ("certifier", f"check_{name}", f"certifier.check.{name}")
    for name in (
        "linear_constituent",
        "rational_22_split",
        "conjugate_22_split",
        "primitivity",
        "exceptional",
        "multiplier_surjective",
    )
)


class Span:
    """One call into a layer: child_ns is the time its direct child spans
    cover, value a count taken from its result."""

    __slots__ = ("name", "start", "end", "child_ns", "parent", "op", "value")

    def __init__(self, name, start, end=0, child_ns=0, parent=-1, op=None, value=0):
        self.name = name
        self.start = start
        self.end = end
        self.child_ns = child_ns
        self.parent = parent
        self.op = op
        self.value = value

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


class Tracer:
    """Collects spans; `op` tags them with the op that caused them (None
    while the workload sets up)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, value=None):
        """fn with a span around each call; value(result) is stored on it."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0, parent=stack[-1] if stack else -1, op=self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
                if stack:
                    spans[stack[-1]].child_ns += span.ns
            if value is not None:
                span.value = value(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced layer function; undone by uninstall()."""
        from gspcert import certifier, cli, eigen_data, polynomial

        modules = {
            "cli": cli,
            "certifier": certifier,
            "eigen_data": eigen_data,
            "polynomial": polynomial,
        }
        for module_name, attr, name in TARGETS:
            self._rebind(modules[module_name], attr, lambda fn, n=name: self.wrap(n, fn))
        self._rebind(
            eigen_data,
            "projective_order",
            lambda fn: self.wrap("symplectic.projective_order", fn, value=int),
        )
        self._rebind(certifier, "roots_in", self._wrap_roots_in)

    def _wrap_roots_in(self, fn):
        base = self.wrap("polynomial.roots_in_base", fn)
        ext = self.wrap("polynomial.roots_in_ext", fn)

        def roots_in(f, e):
            return base(f, e) if e == 1 else ext(f, e)

        return roots_in

    def _rebind(self, module, attr: str, make) -> None:
        fn = getattr(module, attr, None)
        if fn is None:  # a layer a later version removed is simply not traced
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def export(self) -> list[list]:
        return [
            [s.name, s.start, s.end, s.child_ns, s.parent, s.op, s.value] for s in self.spans
        ]


def load(rows: list[list]) -> list[Span]:
    """Spans written by Tracer.export, e.g. in a child process."""
    return [Span(*row) for row in rows]
