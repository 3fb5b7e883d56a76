"""Spans around the package's functions, recorded from the bench process.

``install`` replaces every module-level function of the ``alphabug``
layers, at every module that holds a reference to it (its defining module
and each ``from .x import f`` site), by a wrapper that appends a span
``[name, start, end, parent, job, work]`` to an in-memory list. ``parent``
is the index of the enclosing span (-1 at the top), ``job`` the job id the
caller set, ``work`` a size computed from the arguments for the kernels
whose cost is known (rows x shifts of a Sturm round, m**3 of a Jacobi
solve, 8 n**2 bytes of a dense matrix). Nothing under ``src/`` changes; the
wrappers exist only inside the bench's worker process and ``uninstall``
puts the originals back.

Per-value render helpers are not wrapped: they run once per printed float,
and a span each would cost more than the work they time. Their time counts
as self time of their caller.
"""

from __future__ import annotations

import functools
import inspect
import time
import types

import numpy as np

LAYERS = ("cli", "structured", "eigensolve", "graphs", "verify", "spectrum")
UNWRAPPED = {"cli._round12", "cli._jsonable", "cli._fmt_num"}
# spectrum.py defines no functions, only the Spectrum constructors
CLASSMETHODS = (("spectrum", "Spectrum", ("from_entries", "from_values")),)

WORK = {
    "eigensolve._sturm_counts": lambda diag, off_sq, shifts, scale: int(np.size(diag) * np.size(shifts)),
    "eigensolve.tridiag_eigenvalues": lambda t, config=None: int(t.order),
    "eigensolve.jacobi_eigenvalues": lambda a, config=None: int(np.shape(a)[0]) ** 3,
    "graphs.assemble_dense_alpha": lambda h, alpha: 8 * int(h.order) ** 2,
}

NAME, START, END, PARENT, JOB, WORK_FIELD = range(6)


class Tracer:
    """In-memory span list with the stack of currently open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                    work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced


def _traced_parser_factory(tracer: Tracer, build_parser):
    """build_parser whose parser also records a span for parse_args."""

    @functools.wraps(build_parser)
    def factory(*args, **kwargs):
        parser = build_parser(*args, **kwargs)
        parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
        return parser

    return factory


def install(tracer: Tracer, package) -> list[tuple]:
    """Wrap the layers' functions everywhere they are bound; returns the
    undo list for ``uninstall``."""
    modules = [package] + [getattr(package, layer) for layer in LAYERS]
    wrappers: dict = {}
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if not isinstance(value, types.FunctionType):
                continue
            layer = value.__module__.rpartition(".")[2]
            name = f"{layer}.{value.__name__}"
            if (value.__module__ != f"{package.__name__}.{layer}" or name in UNWRAPPED
                    or inspect.isgeneratorfunction(value)):
                continue
            if value not in wrappers:
                wrapped = tracer.wrap(name, value)
                if name == "cli.build_parser":
                    wrapped = _traced_parser_factory(tracer, wrapped)
                wrappers[value] = wrapped
            setattr(module, attr, wrappers[value])
            undo.append((module, attr, value))
    for layer, cls_name, methods in CLASSMETHODS:
        cls = getattr(getattr(package, layer), cls_name)
        for method in methods:
            original = vars(cls)[method]
            traced = tracer.wrap(f"{layer}.{cls_name}.{method}", original.__func__)
            setattr(cls, method, classmethod(traced))
            undo.append((cls, method, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for span, kids in zip(spans, children):
        lo, hi = span[START], span[END]
        covered = 0.0
        reach = lo
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        result.append((hi - lo) - covered)
    return result


def _outermost(spans: list, names: set[str]) -> list[int]:
    """Indices of spans named in names that have no ancestor named in names."""
    keep = []
    for index, span in enumerate(spans):
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            keep.append(index)
    return keep


def inclusive(spans: list, names: set[str]) -> tuple[float, int]:
    """Wall time and call count of the named functions, nested calls counted once."""
    keep = _outermost(spans, names)
    return sum(spans[k][END] - spans[k][START] for k in keep), len(keep)


def exclusive(spans: list, selfs: list[float], names: set[str]) -> float:
    return sum(t for span, t in zip(spans, selfs) if span[NAME] in names)


def work(spans: list, name: str) -> tuple[int, int]:
    """(calls, summed work) of one function."""
    picked = [span[WORK_FIELD] for span in spans if span[NAME] == name]
    return len(picked), int(sum(picked))


CLI_VALIDATE = {"cli.config_from_env", "cli._config_from_namespace", "cli.job_from_dict"}
CLI_RUN_JOB = {"cli.run_job", "cli._cmd_spectrum", "cli._cmd_sweep", "cli._cmd_scan",
               "cli._cmd_verify", "cli._closed_form", "cli._bug_echo"}
CLI_RENDER = {"cli.render", "cli.render_json", "cli.render_csv", "cli._csv",
              "cli._write_output", "cli._run_batch"}
ASSEMBLE = {"structured.bug_tridiagonal", "structured.halved_tridiagonal",
            "structured.proof_decomposition", "structured.quotient_matrix"}
COMPARE = {"verify.compare_spectra", "verify.cluster_multiplicity", "verify.check_interlacing"}
BUILD = {"spectrum.Spectrum.from_entries", "spectrum.Spectrum.from_values"}


def layer_metrics(spans: list, emitted: int, traced_wall: float, overhead_frac: float) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}.

    Times are raw span durations, so their shares of ``traced_wall`` hold
    within the pass; ``overhead_frac`` comes from probe-calibrated walls."""
    selfs = self_times(spans)
    m: dict[str, tuple[float, str]] = {}

    m["cli.parse_s"] = (inclusive(spans, {"cli.build_parser", "cli.parse_args"})[0], "s")
    m["cli.validate_s"] = (inclusive(spans, CLI_VALIDATE)[0], "s")
    m["cli.run_job_self_s"] = (exclusive(spans, selfs, CLI_RUN_JOB), "s")
    m["cli.render_s"] = (exclusive(spans, selfs, CLI_RENDER), "s")

    assemble_s, assemble_calls = inclusive(spans, ASSEMBLE)
    m["structured.assemble_s"] = (assemble_s, "s")
    m["structured.assemble_calls"] = (assemble_calls, "count")
    m["structured.bug_spectrum_self_s"] = (exclusive(spans, selfs, {"structured.bug_spectrum"}), "s")

    sturm_s = exclusive(spans, selfs, {"eigensolve._sturm_counts"})
    rounds, row_shifts = work(spans, "eigensolve._sturm_counts")
    m["eigensolve.sturm_s"] = (sturm_s, "s")
    m["eigensolve.sturm_rounds"] = (rounds, "count")
    m["eigensolve.sturm_row_shifts"] = (row_shifts, "count")
    m["eigensolve.sturm_rate"] = (row_shifts / sturm_s if sturm_s > 0 else 0.0, "1/s")
    tridiag_calls, tridiag_rows = work(spans, "eigensolve.tridiag_eigenvalues")
    m["eigensolve.tridiag_s"] = (inclusive(spans, {"eigensolve.tridiag_eigenvalues"})[0], "s")
    m["eigensolve.tridiag_calls"] = (tridiag_calls, "count")
    m["eigensolve.tridiag_rows"] = (tridiag_rows, "count")
    m["eigensolve.eigs_used_frac"] = (emitted / tridiag_rows if tridiag_rows else 0.0, "ratio")
    jacobi_calls, jacobi_work = work(spans, "eigensolve.jacobi_eigenvalues")
    m["eigensolve.jacobi_s"] = (inclusive(spans, {"eigensolve.jacobi_eigenvalues"})[0], "s")
    m["eigensolve.jacobi_calls"] = (jacobi_calls, "count")
    m["eigensolve.jacobi_work"] = (jacobi_work, "count")

    m["graphs.assemble_dense_s"] = (inclusive(spans, {"graphs.assemble_dense_alpha"})[0], "s")
    m["graphs.dense_bytes"] = (work(spans, "graphs.assemble_dense_alpha")[1], "B")

    m["verify.extremal_scan_s"] = (exclusive(spans, selfs, {"verify.extremal_scan"}), "s")
    m["verify.compare_s"] = (inclusive(spans, COMPARE)[0], "s")
    m["verify.run_verification_self_s"] = (exclusive(spans, selfs, {"verify.run_verification"}), "s")

    m["spectrum.build_s"] = (inclusive(spans, BUILD)[0], "s")

    for layer in LAYERS:
        total = sum(t for span, t in zip(spans, selfs) if span[NAME].startswith(layer + "."))
        m[f"{layer}.self_s"] = (total, "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m

