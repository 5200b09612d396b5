"""Per-layer measurement for the traced run.

The traced run records spans (name, start, end, parent, request id) from
the benchmark's own code only: one ``cli.main`` span around each request,
then a replay of the same request as direct calls to the public functions
its subcommand uses.  During the replay two library entry points that the
engines call internally are wrapped, again from here: ``verifier.check_law``
(so sweeps inside ``audit`` and ``search_counterexample`` show up) and
``semantics.ModelTable`` (so table builds inside the logic functions do).
Spans stay in memory and are written out when the run ends.

Kernel timings (``*.ns*`` metrics and the subset enumerations) come from a
fixed batch of calls on the workload's primary universe.  All times are
scaled to the reference machine speed like the end-to-end ones (clock.py).
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from statistics import median

# Per-layer metric -> unit; BENCHMARK.json says which direction is better.
METRICS = {
    "universe.load_universe.s": "s",
    "universe.cloud_mask.ns.warm": "ns",
    "universe.cloud_mask.ns.cold": "ns",
    "universe.subsets.s": "s",
    "universe.closed_qsets.s": "s",
    "lattice.meet.ns.literal": "ns",
    "lattice.meet.ns.closure": "ns",
    "lattice.join.ns": "ns",
    "lattice.ortho.ns": "ns",
    "lattice.leq.ns": "ns",
    "verifier.check_law.s": "s",
    "verifier.check_law.cases": "count",
    "verifier.check_law.ns_per_case": "ns",
    "verifier.predicate.ns.arity1": "ns",
    "verifier.predicate.ns.arity2": "ns",
    "verifier.predicate.ns.arity3": "ns",
    "verifier.check_law.fails_s": "s",
    "verifier.check_law.sampled_s": "s",
    "verifier.search_counterexample.s": "s",
    "verifier.iter_universes.s": "s",
    "verifier.search.universes_checked": "count",
    "verifier.search.useful_ratio": "ratio",
    "formulas.generate_formulas.s": "s",
    "formulas.generate_formulas.count": "count",
    "formulas.parse_formula.s": "s",
    "semantics.ModelTable.s": "s",
    "semantics.ModelTable.builds": "count",
    "semantics.ModelTable.valuations": "count",
    "semantics.ModelTable.distinct_ratio": "ratio",
    "semantics.deduction_theorem_probe.s": "s",
    "semantics.is_valid.s": "s",
    "semantics.check_implication_conditions.s": "s",
    "semantics.eval_formula.ns": "ns",
    "cli.main.self_s": "s",
    "cli.output_bytes": "count",
    "cli.budget_exits": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Spans kept in memory: [id, name, start_ns, end_ns, parent, request, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        record = [len(self.spans), name, time.perf_counter_ns(), None,
                  self._stack[-1] if self._stack else None, self.request, attrs]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield attrs
        finally:
            record[3] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, request, attrs in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "request": request, "attrs": attrs,
                }) + "\n")


def self_time_ns(spans: list[list], span: list) -> int:
    """A span's duration minus the part of it that its children cover."""
    children = sorted((s[2], s[3]) for s in spans if s[4] == span[0])
    covered = 0
    cursor = span[2]
    for start, end in children:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return span[3] - span[2] - covered


# --------------------------------------------------------------------------
# Replay: each request as the public calls its subcommand makes
# --------------------------------------------------------------------------


class Replayer:
    def __init__(self, modules, tracer: Tracer, paths: dict[str, str]):
        self.il = modules
        self.tracer = tracer
        self.paths = paths

    def path(self, placeholder: str) -> str:
        return self.paths[placeholder[1:]]

    @contextmanager
    def wrapped(self):
        """Wrap check_law and ModelTable so calls inside the engines are spans."""
        verifier, semantics = self.il.verifier, self.il.semantics
        tracer = self.tracer
        check_law = verifier.check_law
        model_table = semantics.ModelTable

        def traced_check_law(universe, law, mode, strategy=verifier.EXHAUSTIVE, **kwargs):
            with tracer.span("verifier.check_law", sampled=strategy.kind == "sampled") as attrs:
                report = check_law(universe, law, mode, strategy, **kwargs)
                attrs.update(cases=report.cases_checked, status=report.status)
            return report

        class TracedModelTable(model_table):
            def __init__(self, *args, **kwargs):
                with tracer.span("semantics.ModelTable") as attrs:
                    super().__init__(*args, **kwargs)
                with tracer.span("bench.distinct_vectors"):
                    formulas = self.f0.formulas
                    distinct = len({self.value_vector(f) for f in formulas})
                attrs.update(valuations=len(self.assignments), formulas=len(formulas),
                             distinct=distinct)

        verifier.check_law = traced_check_law
        semantics.ModelTable = TracedModelTable
        try:
            yield
        finally:
            verifier.check_law = check_law
            semantics.ModelTable = model_table

    def replay(self, request) -> None:
        il, span = self.il, self.tracer.span
        kind = request.kind
        if kind in ("search", "modularity"):
            with span("replay"):
                searches = self._search(request)
            self.walk(request, searches)
            return
        with span("replay"):
            with span("universe.load_universe"):
                universe = il.universe.load_universe(self.path(request.option("universe")))
            modes = self._modes(request.option("mode", "both"))
            closed = request.option("valuations", "closed") == "closed"
            if kind == "check":
                law = il.verifier.law_by_name(request.option("law"))
                samples = request.option("samples")
                strategy = (il.verifier.CheckStrategy.sampled(int(samples), int(request.option("seed")))
                            if samples else il.verifier.EXHAUSTIVE)
                for mode in modes if law.mode_sensitivity == "per-mode" else [None]:
                    il.verifier.check_law(universe, law, mode, strategy)
            elif kind == "audit":
                with span("verifier.audit"):
                    il.verifier.audit(universe)
            elif kind == "deduction":
                f0 = self._formulas(["a", "b"], int(request.option("depth")))
                for mode in modes:
                    with span("semantics.deduction_theorem_probe"):
                        il.semantics.deduction_theorem_probe(
                            universe, f0, il.verifier.EXHAUSTIVE, mode, closed_valuations=closed)
            elif kind == "cn":
                with open(self.path(request.option("gamma")), encoding="utf-8") as handle:
                    lines = [line.strip() for line in handle if line.strip()]
                gamma = [self._parse(line) for line in lines]
                alpha = self._parse(request.option("formula"))
                names = sorted({n for f in gamma + [alpha] for n in il.formulas.atoms_of(f)})
                f0 = self._formulas(names, int(request.option("depth", "2")))
                for mode in modes:
                    with span("semantics.syntactic_consequence"):
                        il.semantics.syntactic_consequence(
                            universe, gamma, alpha, f0, il.verifier.EXHAUSTIVE, mode,
                            closed_valuations=closed)
            elif kind == "valid":
                formula = self._parse(request.option("formula"))
                for mode in modes:
                    with span("semantics.is_valid"):
                        il.semantics.is_valid(universe, formula, il.verifier.EXHAUSTIVE, mode,
                                              closed_valuations=closed)
            elif kind == "implication":
                for mode in modes:
                    with span("semantics.check_implication_conditions"):
                        il.semantics.check_implication_conditions(
                            universe, il.verifier.EXHAUSTIVE, mode, closed_valuations=closed)
            else:
                raise ValueError(f"no replay for request kind {kind!r}")

    def _modes(self, value: str):
        OpMode = self.il.lattice.OpMode
        return [OpMode.LITERAL, OpMode.CLOSURE] if value == "both" else [OpMode(value)]

    def _parse(self, text: str):
        with self.tracer.span("formulas.parse_formula"):
            return self.il.formulas.parse_formula(text)

    def _formulas(self, atoms, depth: int):
        with self.tracer.span("formulas.generate_formulas") as attrs:
            f0 = self.il.formulas.generate_formulas(atoms, depth)
        attrs["count"] = len(f0)
        return f0

    def _search(self, request) -> list:
        il, span = self.il, self.tracer.span
        max_atoms = int(request.option("max-atoms", "4"))
        if request.kind == "modularity":
            law = il.verifier.law_by_name("modularity-probe")
            for universe in il.verifier.iter_universes(max_atoms):
                for mode in self._modes(request.option("mode", "both")):
                    il.verifier.check_law(universe, law, mode)
            return []
        law = il.verifier.law_by_name(request.option("law"))
        modes = self._modes(request.option("mode")) if law.mode_sensitivity == "per-mode" else [None]
        searches = []
        for mode in modes:
            with span("verifier.search_counterexample") as attrs:
                found = il.verifier.search_counterexample(law, mode, max_atoms)
            searches.append((attrs, found))
        return searches

    def walk(self, request, searches) -> None:
        """Time iter_universes on its own, outside the replay root, and place
        each search witness in its order: the number of universes walked."""
        max_atoms = int(request.option("max-atoms", "4"))
        with self.tracer.span("verifier.iter_universes"):
            walked = [u.digest for u in self.il.verifier.iter_universes(max_atoms)]
        for attrs, found in searches:
            checked = walked.index(found[0].digest) + 1 if found else len(walked)
            types = {tuple(sorted(len(b) for b in json.loads(d))) for d in walked[:checked]}
            attrs.update(universes_checked=checked, types=len(types))


def replay_metrics(spans: list[list], clock) -> dict[str, float]:
    """Per-layer metrics from replay spans; a layer with no spans is left out.

    Times are totals over one pass of the workload, in seconds scaled by
    ``clock`` like the end-to-end figures.
    """

    def total_s(selected) -> float:
        return sum(clock.scaled_s(s[2], s[3]) for s in selected)

    out: dict[str, float] = {}
    for metric, span_name in (
        ("universe.load_universe.s", "universe.load_universe"),
        ("verifier.check_law.s", "verifier.check_law"),
        ("verifier.search_counterexample.s", "verifier.search_counterexample"),
        ("verifier.iter_universes.s", "verifier.iter_universes"),
        ("formulas.generate_formulas.s", "formulas.generate_formulas"),
        ("formulas.parse_formula.s", "formulas.parse_formula"),
        ("semantics.ModelTable.s", "semantics.ModelTable"),
        ("semantics.deduction_theorem_probe.s", "semantics.deduction_theorem_probe"),
        ("semantics.is_valid.s", "semantics.is_valid"),
        ("semantics.check_implication_conditions.s", "semantics.check_implication_conditions"),
    ):
        selected = [s for s in spans if s[1] == span_name]
        if selected:
            out[metric] = total_s(selected)

    checks = [s for s in spans if s[1] == "verifier.check_law"]
    if checks:
        exhaustive = [s for s in checks if not s[6]["sampled"]]
        out["verifier.check_law.cases"] = sum(s[6]["cases"] for s in checks)
        out["verifier.check_law.fails_s"] = total_s(s for s in checks if s[6]["status"] == "fails")
        if exhaustive:
            out["verifier.check_law.ns_per_case"] = (
                total_s(exhaustive) * 1e9 / sum(s[6]["cases"] for s in exhaustive))
        if len(exhaustive) < len(checks):
            out["verifier.check_law.sampled_s"] = total_s(s for s in checks if s[6]["sampled"])
    searches = [s for s in spans if s[1] == "verifier.search_counterexample"]
    if searches:
        walked = sum(s[6]["universes_checked"] for s in searches)
        out["verifier.search.universes_checked"] = walked
        out["verifier.search.useful_ratio"] = sum(s[6]["types"] for s in searches) / walked
    generated = [s for s in spans if s[1] == "formulas.generate_formulas"]
    if generated:
        out["formulas.generate_formulas.count"] = sum(s[6]["count"] for s in generated)
    tables = [s for s in spans if s[1] == "semantics.ModelTable"]
    if tables:
        out["semantics.ModelTable.builds"] = len(tables)
        out["semantics.ModelTable.valuations"] = sum(s[6]["valuations"] for s in tables)
        out["semantics.ModelTable.distinct_ratio"] = (
            sum(s[6]["distinct"] for s in tables) / sum(s[6]["formulas"] for s in tables))
    return out


def cli_self_s(spans: list[list], clock) -> float:
    """Request time minus the library time of its replay, summed over requests.

    The library time of a request is the part of its replay root that child
    spans cover, less the benchmark's own ``bench.*`` spans inside them.
    Durations are scaled by ``clock``.
    """
    library: dict[int, float] = {}
    for s in spans:
        if s[1] == "replay":
            covered = (s[3] - s[2] - self_time_ns(spans, s)) / 1e9 * clock.factor(s[2])
            library[s[5]] = library.get(s[5], 0) + covered
        elif s[1].startswith("bench."):
            library[s[5]] = library.get(s[5], 0) - clock.scaled_s(s[2], s[3])
    return sum(clock.scaled_s(s[2], s[3]) - library.get(s[5], 0)
               for s in spans if s[1] == "cli.main")


# --------------------------------------------------------------------------
# Kernel batch
# --------------------------------------------------------------------------

_REPEATS = 5


def _ns_per_call(fn, calls: int) -> float:
    """Median over repeats of the time per call of ``fn`` (which makes ``calls`` calls)."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter_ns()
        fn()
        times.append((time.perf_counter_ns() - start) / calls)
    return median(times)


def kernel_metrics(il, universe, formulas: list[str]) -> dict[str, float]:
    """Fixed-batch kernel timings on one universe."""
    rng = random.Random("kernels")
    full = (1 << len(universe)) - 1
    masks = sorted({rng.randrange(full + 1) for _ in range(512)})
    qsets = [universe.qset_from_mask(m) for m in masks]
    pairs = [(rng.choice(qsets), rng.choice(qsets)) for _ in range(512)]
    lattice, OpMode = il.lattice, il.lattice.OpMode
    out: dict[str, float] = {}

    def cold():
        fresh = il.universe.Universe(universe.atoms, universe.blocks)
        for m in masks:
            fresh.cloud_mask(m)

    def warm():
        for m in masks:
            universe.cloud_mask(m)

    warm()
    out["universe.cloud_mask.ns.cold"] = _ns_per_call(cold, len(masks))
    out["universe.cloud_mask.ns.warm"] = _ns_per_call(warm, len(masks))
    for metric, fn in (
        ("lattice.meet.ns.literal", lambda a, b: lattice.meet(a, b, OpMode.LITERAL)),
        ("lattice.meet.ns.closure", lambda a, b: lattice.meet(a, b, OpMode.CLOSURE)),
        ("lattice.join.ns", lattice.join),
        ("lattice.ortho.ns", lambda a, b: lattice.ortho(a)),
        ("lattice.leq.ns", lattice.leq),
    ):
        out[metric] = _ns_per_call(lambda: [fn(a, b) for a, b in pairs], len(pairs))

    for arity in (1, 2, 3):
        cases = []
        for law in il.verifier.law_registry():
            if law.arity != arity:
                continue
            modes = [OpMode.LITERAL, OpMode.CLOSURE] if law.mode_sensitivity == "per-mode" else [OpMode.LITERAL]
            for mode in modes:
                for _ in range(16):
                    cases.append((law.predicate, tuple(rng.choice(qsets) for _ in range(arity)), mode))
        out[f"verifier.predicate.ns.arity{arity}"] = _ns_per_call(
            lambda: [p(universe, t, m) for p, t, m in cases], len(cases))

    parsed = [il.formulas.parse_formula(text) for text in formulas]
    valuations = []
    for _ in range(8):
        picks = {name: rng.choice(qsets) for name in ("a", "b", "p", "q")}
        valuations.append(il.semantics.Valuation(universe, picks))
    evals = [(f, v, mode) for f in parsed for v in valuations for mode in (OpMode.LITERAL, OpMode.CLOSURE)]
    out["semantics.eval_formula.ns"] = _ns_per_call(
        lambda: [il.semantics.eval_formula(f, v, m) for f, v, m in evals], len(evals))

    out["universe.subsets.s"] = _ns_per_call(lambda: list(universe.subsets()), 1) / 1e9
    out["universe.closed_qsets.s"] = _ns_per_call(universe.closed_qsets, 1) / 1e9
    return out
