"""Span tracing of lpcoset from outside the package.

The tracer replaces the module attributes through which the lpcoset modules
call each other with wrappers that record one span per call: a name, start
and end times, the index of the enclosing span and an optional annotation
taken from the result.  Spans stay in memory until the run ends.  Word-level
helpers (``free_reduce``, ``word_image``) are not wrapped: they are called
millions of times and the wrapper would dominate what it measures.

A missing attribute is an error, so a refactor that moves a call site makes
the traced run fail instead of silently reporting zero for a layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time


class TracerError(AttributeError):
    """A patch point no longer exists in the traced package."""


def _relators(fp):
    return {"relators": len(fp.relators)}


def _overflow(table):
    return {"overflow": table is None}


def _image_group(group):
    if group is None:
        return {"cap_hit": True, "elements": 0}
    return {"cap_hit": False, "elements": group.order}


def _kernel(answer):
    return {"yes": answer is True}


def _escalations(result):
    return {"escalations": result.escalations}


def _subgroup_count(slist):
    return {"subgroups": len(slist.entries)}


# (module, attribute path, span name, annotation of the result).  Every
# module that imports a traced function by name gets its own entry, because
# the importing module's attribute is what its code calls.
PATCH_POINTS = (
    ("lpcoset.presentations", "LPresentation.covering", "presentations.covering", _relators),
    ("lpcoset", "parse_word", "presentations.parse", None),
    ("lpcoset", "parse_subgroup", "presentations.parse", None),
    ("lpcoset.cli", "parse_word", "presentations.parse", None),
    ("lpcoset.cli", "parse_subgroup", "presentations.parse", None),
    ("lpcoset.cli", "load_presentation", "presentations.parse", None),
    ("lpcoset.pipeline", "todd_coxeter", "coset_enum.todd_coxeter", _overflow),
    ("lpcoset.pipeline", "merge_coincidences", "coset_enum.merge_coincidences", None),
    ("lpcoset.pipeline", "standardize", "coset_enum.standardize", None),
    ("lpcoset.subgroups", "standardize", "coset_enum.standardize", None),
    ("lpcoset.subgroups", "schreier_generators", "coset_enum.schreier_generators", None),
    ("lpcoset.pipeline", "image_group", "perms.image_group", _image_group),
    ("lpcoset.subgroups", "image_group", "perms.image_group", _image_group),
    ("lpcoset.pipeline", "kernel_contained", "perms.kernel_contained", _kernel),
    ("lpcoset.pipeline", "decide_validity", "pipeline.decide_validity", None),
    ("lpcoset.subgroups", "decide_validity", "pipeline.decide_validity", None),
    ("lpcoset.cli", "decide_validity", "pipeline.decide_validity", None),
    ("lpcoset.pipeline", "cyclic_reduction_pair", "pipeline.cyclic_reduction_pair", None),
    ("lpcoset.pipeline", "is_valid_perm_rep", "pipeline.is_valid_perm_rep", None),
    ("lpcoset.pipeline", "fold_invalid", "pipeline.fold_invalid", None),
    ("lpcoset.pipeline", "fold_to_valid", "pipeline.fold_to_valid", None),
    ("lpcoset.subgroups", "fold_to_valid", "pipeline.fold_to_valid", None),
    ("lpcoset", "enumerate_cosets", "pipeline.enumerate_cosets", _escalations),
    ("lpcoset.subgroups", "enumerate_cosets", "pipeline.enumerate_cosets", _escalations),
    ("lpcoset.cli", "enumerate_cosets", "pipeline.enumerate_cosets", _escalations),
    ("lpcoset", "finite_index_subgroup", "subgroups.finite_index_subgroup", None),
    ("lpcoset.cli", "finite_index_subgroup", "subgroups.finite_index_subgroup", None),
    ("lpcoset", "low_index", "subgroups.low_index", _subgroup_count),
    ("lpcoset.cli", "low_index", "subgroups.low_index", _subgroup_count),
    ("lpcoset", "mark_normal_and_maximal", "subgroups.mark_normal_and_maximal", None),
    ("lpcoset.cli", "mark_normal_and_maximal", "subgroups.mark_normal_and_maximal", None),
    ("lpcoset", "core", "subgroups.core", None),
    ("lpcoset.cli", "core", "subgroups.core", None),
    ("lpcoset", "intersect", "subgroups.intersect", None),
    ("lpcoset.cli", "intersect", "subgroups.intersect", None),
    ("lpcoset.subgroups", "FiniteIndexSubgroup.from_table", "subgroups.from_table", None),
    ("lpcoset.cli", "main", "cli.main", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; use ``with tracer.installed(points):`` to patch.

    ``clock`` is a seam for tests; the default is ``time.perf_counter``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = self.clock()

    def wrap(self, fn, name: str, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if annotate is not None:
                self.spans[idx].info = annotate(result)
            return result

        return traced

    def install(self, points=PATCH_POINTS) -> None:
        """Patch every point; on any failure undo what was patched and raise."""
        try:
            for module_name, path, name, annotate in points:
                owner, attr = _resolve(module_name, path)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(raw.__func__, name, annotate))
                elif callable(raw):
                    patched = self.wrap(raw, name, annotate)
                else:
                    raise TracerError(f"{module_name}.{path} is not callable")
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, points=PATCH_POINTS):
        """Patch for the duration of a block; restore even if it raises."""
        self.install(points)
        try:
            yield self
        finally:
            self.restore()


def _resolve(module_name: str, path: str):
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TracerError(f"cannot import {module_name}: {exc}") from exc
    *parents, attr = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise TracerError(f"{module_name} has no attribute {part!r}")
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise TracerError(f"{module_name}.{path} does not exist")
    return owner, attr


# --- span arithmetic ---------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The traced program is single-threaded, so children never overlap.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def outermost(spans: list[Span], i: int) -> bool:
    """No ancestor of span ``i`` has the same name (recursion counted once)."""
    name = spans[i].name
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return False
        p = spans[p].parent
    return True


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return sum(spans[i].duration for i in idx(name) if outermost(spans, i))

    def self_s(name):
        return sum(selfs[i] for i in idx(name))

    def calls(name):
        return len(idx(name))

    def info(i, key):
        # a call that raised has no annotation
        return (spans[i].info or {}).get(key, 0)

    def info_sum(name, key):
        return sum(info(i, key) for i in idx(name))

    tc = idx("coset_enum.todd_coxeter")
    overflowed = [i for i in tc if info(i, "overflow")]
    kc = idx("perms.kernel_contained")
    folds_under = {}
    for i in idx("pipeline.fold_invalid"):
        folds_under[spans[i].parent] = folds_under.get(spans[i].parent, 0) + 1
    ftv = idx("pipeline.fold_to_valid")
    low = set(idx("subgroups.low_index"))
    candidates = sum(1 for i in ftv if spans[i].parent in low)

    m = {
        "presentations.covering.s": (total("presentations.covering"), "s"),
        "presentations.covering.calls": (calls("presentations.covering"), "count"),
        "presentations.covering.relators": (
            info_sum("presentations.covering", "relators"), "count"),
        "presentations.parse.s": (total("presentations.parse"), "s"),
        "coset_enum.todd_coxeter.s": (total("coset_enum.todd_coxeter"), "s"),
        "coset_enum.todd_coxeter.calls": (len(tc), "count"),
        "coset_enum.todd_coxeter.overflows": (len(overflowed), "count"),
        "coset_enum.todd_coxeter.overflow_s": (
            sum(spans[i].duration for i in overflowed), "s"),
        "coset_enum.todd_coxeter.useful_frac": (
            _frac(len(tc) - len(overflowed), len(tc)), "fraction"),
        "coset_enum.merge_coincidences.s": (total("coset_enum.merge_coincidences"), "s"),
        "coset_enum.standardize.s": (total("coset_enum.standardize"), "s"),
        "coset_enum.schreier_generators.s": (total("coset_enum.schreier_generators"), "s"),
        "perms.image_group.s": (total("perms.image_group"), "s"),
        "perms.image_group.calls": (calls("perms.image_group"), "count"),
        "perms.image_group.elements": (info_sum("perms.image_group", "elements"), "count"),
        "perms.image_group.cap_hits": (
            sum(1 for i in idx("perms.image_group") if info(i, "cap_hit")), "count"),
        "perms.kernel_contained.s": (total("perms.kernel_contained"), "s"),
        "perms.kernel_contained.calls": (len(kc), "count"),
        "perms.kernel_contained.yes_frac": (
            _frac(sum(1 for i in kc if info(i, "yes")), len(kc)), "fraction"),
        "pipeline.decide_validity.self_s": (self_s("pipeline.decide_validity"), "s"),
        "pipeline.decide_validity.calls": (calls("pipeline.decide_validity"), "count"),
        "pipeline.cyclic_reduction_pair.s": (total("pipeline.cyclic_reduction_pair"), "s"),
        "pipeline.is_valid_perm_rep.s": (total("pipeline.is_valid_perm_rep"), "s"),
        "pipeline.fold_invalid.calls": (calls("pipeline.fold_invalid"), "count"),
        "pipeline.fold_to_valid.valid_first_frac": (
            _frac(sum(1 for i in ftv if i not in folds_under), len(ftv)), "fraction"),
        "pipeline.enumerate_cosets.self_s": (self_s("pipeline.enumerate_cosets"), "s"),
        "pipeline.enumerate_cosets.escalations": (
            info_sum("pipeline.enumerate_cosets", "escalations"), "count"),
        "subgroups.low_index.descent_s": (self_s("subgroups.low_index"), "s"),
        "subgroups.low_index.candidates": (candidates, "count"),
        "subgroups.low_index.yield": (
            _frac(info_sum("subgroups.low_index", "subgroups"), candidates), "fraction"),
        "subgroups.mark_normal_and_maximal.s": (
            total("subgroups.mark_normal_and_maximal"), "s"),
        "subgroups.core.s": (total("subgroups.core"), "s"),
        "subgroups.intersect.s": (total("subgroups.intersect"), "s"),
        "subgroups.from_table.s": (total("subgroups.from_table"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
    }
    return m


def self_shares(spans: list[Span]) -> dict[str, float]:
    """Share of all root-span time spent as self time in each span name."""
    selfs = self_times(spans)
    root = sum(s.duration for s in spans if s.parent < 0)
    out: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        out[s.name] = out.get(s.name, 0.0) + t
    return {k: _frac(v, root) for k, v in sorted(out.items(), key=lambda kv: -kv[1])}
