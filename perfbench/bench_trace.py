"""Per-layer tracing of hypersat from outside the program.

``Tracer.installed()`` replaces the layers' public functions with wrappers
that record spans (name, start, end, parent span, note), and restores every
replaced attribute on exit.  A function is patched under every name a
``hypersat`` module holds it by, because ``solver`` and ``oracle`` import
``build_forward``, ``normalized_operator``, ``evaluate`` and friends by name:
wrapping only the defining module would miss those calls.

Backward time is attributed by wrapping the ``_backward`` closure of every
``Tensor`` built while tracing, labelled by the op that built it (``other``
outside the tagged ops) and by whether ``cross_attention`` was open at the
time.  Tensor constructions and their ``value.nbytes`` are counted, and the
operator S is handed to the model as a subclass that counts transposes.

A span's self time is its duration minus that of its child spans; a layer is
the part of a span name before the first dot.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SOLVE_SPAN = "bench.solve"  # the benchmark's span around one timed solve
LAYERS = ("wcnf", "hypergraph", "model", "autodiff", "objective", "solver")
BACKWARD_OPS = (
    "matmul", "sparse_matmul", "row_softmax", "dropout", "layer_norm", "relu",
    "task_loss", "other",
)


@dataclasses.dataclass(frozen=True)
class Target:
    module: str  # defining module, relative to ``hypersat``
    attr: str
    span: str | None  # None: tag backward closures only, record no span
    tag: str | None = None  # label for closures of Tensors built inside
    hook: str | None = None  # Tracer method: (args, kwargs, out) -> (out, note)


TARGETS = (
    Target("wcnf", "parse_wcnf", "wcnf.parse"),
    Target("wcnf", "evaluate", "wcnf.evaluate"),
    Target("hypergraph", "build_literal_hypergraph", "hypergraph.build"),
    Target("hypergraph", "normalized_operator", "hypergraph.operator",
           hook="_count_operator"),
    Target("model", "build_forward", "model.forward", hook="_note_training"),
    Target("model", "conv_layer", "model.conv"),
    Target("model", "transformer_block", "model.transformer"),
    Target("model", "cross_attention", "model.attention"),
    Target("autodiff", "row_softmax", "model.softmax", tag="row_softmax"),
    Target("autodiff", "dropout", "model.dropout", tag="dropout"),
    Target("autodiff", "layer_norm", "model.layernorm", tag="layer_norm"),
    Target("autodiff", "matmul", None, tag="matmul"),
    Target("autodiff", "sparse_matmul", None, tag="sparse_matmul"),
    Target("autodiff", "relu", None, tag="relu"),
    Target("autodiff", "backward", "autodiff.backward"),
    Target("objective", "task_loss", "objective.task_loss", tag="task_loss"),
    Target("objective", "shared_loss", "objective.shared_loss"),
    Target("objective", "compile_clauses", "objective.compile",
           hook="_count_groups"),
    Target("solver", "train", "solver.train"),
    Target("solver", "adam_step", "solver.adam"),
    Target("solver", "sample_assignments", "solver.round"),
    Target("solver", "solve", "solver.solve"),
    Target("oracle", "local_search", "oracle.ls", hook="_count_steps"),
)


def _counting_view(matrix, on_transpose):
    """The scipy sparse matrix, sharing its arrays, as a subclass whose
    ``transpose`` (and so ``.T``) calls ``on_transpose`` first."""
    cls = type(matrix)

    def transpose(self, *args, **kwargs):
        on_transpose()
        return cls.transpose(self, *args, **kwargs)

    return type("Counting" + cls.__name__, (cls,), {"transpose": transpose})(matrix)


def hypersat_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "hypersat" or name.startswith("hypersat."))
    ]


class Tracer:
    def __init__(self):
        # Spans as parallel lists of atoms, which the cyclic garbage
        # collector does not track: a list per span would slow the
        # untraced solves of the same process too.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the parent span, or -1
        self.notes: list = []  # hook result: a count or a flag, else None
        self._stack: list[int] = []
        self._tag = "other"
        self._attention_depth = 0
        self.tensors = 0
        self.tensor_bytes = 0
        self.transposes = 0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, note=None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.notes.append(note)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- hooks -------------------------------------------------------------

    def _count_operator(self, args, kwargs, op):
        counting = _counting_view(op.matrix, self._on_transpose)
        return dataclasses.replace(op, matrix=counting), op.matrix.nnz

    def _on_transpose(self):
        self.transposes += 1

    def _note_training(self, args, kwargs, out):
        return out, bool(kwargs.get("training", args[3] if len(args) > 3 else False))

    def _count_groups(self, args, kwargs, out):
        return out, len(out.groups)

    def _count_steps(self, args, kwargs, out):
        return out, out.steps

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, target: Target):
        hook = getattr(self, target.hook) if target.hook else None
        attention = target.span == "model.attention"

        def wrapper(*args, **kwargs):
            idx = self._open(target.span) if target.span else None
            prev_tag = self._tag
            if target.tag:
                self._tag = target.tag
            self._attention_depth += attention
            try:
                out = fn(*args, **kwargs)
            finally:
                self._attention_depth -= attention
                self._tag = prev_tag
                if idx is not None:
                    self._close(idx)
            if hook is not None:
                out, note = hook(args, kwargs, out)
                if idx is not None:
                    self.notes[idx] = note
            return out

        return wrapper

    def _timed_backward(self, fn, name: str, in_attention: bool):
        def back(g):
            idx = self._open(name, in_attention)
            try:
                return fn(g)
            finally:
                self._close(idx)

        return back

    def _wrap_init(self, init):
        def traced_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            self.tensors += 1
            self.tensor_bytes += tensor.value.nbytes
            if tensor._backward is not None:
                tensor._backward = self._timed_backward(
                    tensor._backward,
                    "autodiff.backward." + self._tag,
                    self._attention_depth > 0,
                )

        return traced_init

    @contextmanager
    def installed(self):
        """Patch every traced name; restore each original object on exit."""
        modules = hypersat_modules()
        by_name = {mod.__name__: mod for mod in modules}
        patches = []  # (owner, attr, original)
        try:
            for target in TARGETS:
                owner = by_name.get("hypersat." + target.module)
                original = getattr(owner, target.attr, None)
                if original is None:
                    continue  # absent in this version of the program
                wrapper = self._wrap(original, target)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            tensor = by_name["hypersat.autodiff"].Tensor
            patches.append((tensor, "__init__", tensor.__init__))
            tensor.__init__ = self._wrap_init(tensor.__init__)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over all spans recorded so far.

        ``*_ms`` of spans with children are self times, except the totals
        ``model.forward_ms``, ``autodiff.backward_ms``, ``solver.train_ms``,
        ``solver.round_ms``, ``solver.epoch_*`` and ``oracle.ls_ms``.
        Model and autodiff metrics are per epoch: their sum over all traced
        solves divided by the epochs run.  The rest are per call.
        """
        names, parents, notes_ = self.names, self.parents, self.notes
        duration = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += duration[i]
        self_time = [d - c for d, c in zip(duration, child)]

        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        notes = defaultdict(list)
        share = defaultdict(float)  # layer -> self time inside solve spans
        in_solve = [False] * len(names)
        for i, (name, parent, note) in enumerate(zip(names, parents, notes_)):
            if parent >= 0:
                in_solve[i] = in_solve[parent] or names[parent] == SOLVE_SPAN
            if in_solve[i]:
                share[name.split(".")[0]] += self_time[i]
            if name == "wcnf.evaluate" and parent >= 0 and names[parent] == "oracle.ls":
                name = "oracle.ls_evaluate"
            total[name] += duration[i]
            own[name] += self_time[i]
            calls[name] += 1
            if note is not None:
                notes[name].append(note)
                if name.startswith("autodiff.backward.") and note:
                    total["autodiff.backward.attention"] += duration[i]

        solves = max(calls[SOLVE_SPAN], 1)
        solve_time = total[SOLVE_SPAN]
        epochs = max(sum(notes["model.forward"]), 1)
        epoch_ms = self._epoch_ms()

        def per_call(name, times=total):
            return 1e3 * times[name] / max(calls[name], 1)

        def per_epoch(name, times=total):
            return 1e3 * times[name] / epochs

        def mean_note(name):
            return float(np.mean(notes[name])) if notes[name] else 0.0

        ls_steps = sum(notes["oracle.ls"])

        m = {
            "wcnf.parse_ms": (per_call("wcnf.parse"), "ms"),
            "wcnf.evaluate_ms": (per_call("wcnf.evaluate"), "ms"),
            "wcnf.evaluate_count": (calls["wcnf.evaluate"] / solves, "count"),
            "hypergraph.build_ms": (per_call("hypergraph.build"), "ms"),
            "hypergraph.operator_ms": (per_call("hypergraph.operator"), "ms"),
            "hypergraph.nnz_count": (mean_note("hypergraph.operator"), "count"),
            "model.forward_ms": (per_epoch("model.forward"), "ms"),
            "model.conv_ms": (per_epoch("model.conv", own), "ms"),
            "model.transformer_ms": (per_epoch("model.transformer", own), "ms"),
            "model.attention_ms": (per_epoch("model.attention", own), "ms"),
            "model.softmax_ms": (per_epoch("model.softmax", own), "ms"),
            "model.dropout_ms": (per_epoch("model.dropout", own), "ms"),
            "model.layernorm_ms": (per_epoch("model.layernorm", own), "ms"),
            "model.head_ms": (per_epoch("model.forward", own), "ms"),
            "autodiff.backward_ms": (per_epoch("autodiff.backward"), "ms"),
            "autodiff.walk_ms": (per_epoch("autodiff.backward", own), "ms"),
        }
        for op in BACKWARD_OPS:
            m[f"autodiff.backward.{op}_ms"] = (per_epoch(f"autodiff.backward.{op}"), "ms")
        m.update({
            "autodiff.backward.attention_ms": (per_epoch("autodiff.backward.attention"), "ms"),
            "autodiff.tape_count": (self.tensors / epochs, "count"),
            "autodiff.tape_mb": (self.tensor_bytes / epochs / 2**20, "MiB"),
            "autodiff.sparse_transpose_count": (self.transposes / solves, "count"),
            "objective.task_loss_ms": (per_call("objective.task_loss"), "ms"),
            "objective.shared_loss_ms": (per_call("objective.shared_loss"), "ms"),
            "objective.compile_ms": (per_call("objective.compile"), "ms"),
            "objective.arity_group_count": (mean_note("objective.compile"), "count"),
            "solver.epoch_p50_ms": (float(np.percentile(epoch_ms, 50)) if epoch_ms else 0.0, "ms"),
            "solver.epoch_p99_ms": (float(np.percentile(epoch_ms, 99)) if epoch_ms else 0.0, "ms"),
            "solver.adam_ms": (per_call("solver.adam"), "ms"),
            "solver.round_ms": (per_call("solver.round"), "ms"),
            "solver.train_ms": (per_call("solver.train"), "ms"),
            "solver.epoch_count": (epochs / solves, "count"),
            "oracle.ls_ms": (per_call("oracle.ls"), "ms"),
            "oracle.ls_step_us": (1e6 * own["oracle.ls"] / max(ls_steps, 1), "us"),
            "oracle.ls_step_count": (ls_steps / max(calls["oracle.ls"], 1), "count"),
            "oracle.ls_evaluate_ms": (per_call("oracle.ls_evaluate"), "ms"),
        })
        for layer in LAYERS:
            m[f"{layer}.self_share"] = (share[layer] / solve_time if solve_time else 0.0, "ratio")
        m["trace.self_sum_ratio"] = (
            sum(share.values()) / solve_time if solve_time else 0.0, "ratio"
        )
        return m

    def _epoch_ms(self) -> list[float]:
        """Epoch wall times: from one training forward to the next, the last
        epoch ending where the dropout-off forward of the same train starts."""
        starts = defaultdict(list)  # train span -> starts of its forwards
        for name, start, parent, note in zip(
            self.names, self.starts, self.parents, self.notes
        ):
            if name == "model.forward":
                starts[parent].append((start, bool(note)))
        out = []
        for forwards in starts.values():
            forwards.sort()
            for (t0, training), (t1, _) in zip(forwards, forwards[1:]):
                if training:
                    out.append(1e3 * (t1 - t0))
        return out
