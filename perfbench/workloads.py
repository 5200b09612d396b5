"""Seeded inputs for the four benchmark workloads.

Every workload draws from a fixed, finite pool, so ``reference.json`` holds
a digest for every request that any seed can produce.  The seed picks one
labelling of each universe shape, the (premises, conclusion) pairs, and the
order of the requests.  Sizes and the
mix of request kinds never depend on the seed, so runs with different seeds
do the same amount of work.

A request is a CLI argument list in which ``@name`` stands for a generated
input file; its text with the placeholders left in is its reference key.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Labellings per universe shape; a seed picks one of them.
LABELLINGS = 4

WORKLOADS = ("audit", "search", "logic", "sampled")

SAMPLES = 500

# Universe shapes: (block size, atom kind) per block.
# One large m-block, a smaller m-block and an M-atom.  Six atoms would put a
# single pass over 20 s, so the audit universe has five.
AUDIT_SHAPE = ("audit5", ((3, "m"), (1, "m"), (1, "M")))
LOGIC_SHAPES = {
    "logic4": ((2, "m"), (1, "m"), (1, "M")),
    "logic5": ((3, "m"), (1, "m"), (1, "M")),
    "logic6": ((3, "m"), (2, "m"), (1, "M")),
}
SAMPLED_SHAPES = {
    "sampled12": ((4, "m"),) * 3,
    "sampled16": ((4, "m"),) * 4,
    "sampled20": ((4, "m"),) * 5,
}
FALLBACK_FILE = "fallback4"

VALID_TEMPLATES = 40
CN_PAIRS = 12
CN_PER_PASS = 4


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def option(self, name: str, default: str | None = None) -> str | None:
        flag = "--" + name
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return default


@dataclass
class Workload:
    name: str
    files: dict[str, str]
    requests: list[Request]
    # Run once per run outside the timed loop: rows that exit 2 at this commit.
    outside: list[Request] = field(default_factory=list)
    # Replayed only when the requests above leave a layer unmeasured.
    fallback: list[Request] = field(default_factory=list)
    # Formula universes the workload builds: (atoms, depth).
    formula_universes: list[tuple[tuple[str, ...], int]] = field(default_factory=list)
    # The universe file the per-layer kernel batch runs on.
    primary: str = ""

    @property
    def universe_files(self) -> list[str]:
        """The workload's own universe files, without the fallback one."""
        return [name for name in self.files
                if not name.startswith("gamma") and name != FALLBACK_FILE]


# --------------------------------------------------------------------------
# Universes and formulas
# --------------------------------------------------------------------------


def labelled_universe(shape_name: str, shape, index: int) -> str:
    """Universe document for labelling ``index`` of a shape.

    The blocks always cover the same bit positions, in shape order; the
    labelling only deals the names x1..xn to those positions.  So every
    labelling does exactly the same work and prints different atoms,
    counterexamples and digests.
    """
    size = sum(width for width, _ in shape)
    rng = random.Random(shape_name)
    orders: list[list[str]] = []
    while len(orders) <= index:
        names = [f"x{i}" for i in range(1, size + 1)]
        rng.shuffle(names)
        if names not in orders:
            orders.append(names)
    names = orders[index]
    atoms = []
    blocks = []
    for width, kind in shape:
        block, names = names[:width], names[width:]
        blocks.append(block)
        atoms += [{"id": atom, "kind": kind} for atom in block]
    return json.dumps({"atoms": atoms, "blocks": blocks}, sort_keys=True)


_BINARY = ("&", "|", "->", "<->")


def _random_formula(rng: random.Random, depth: int) -> str:
    if depth == 0:
        return rng.choice(("a", "b"))
    if rng.random() < 0.25:
        return "~" + _wrap(_random_formula(rng, depth - 1))
    left = _random_formula(rng, depth - 1)
    right = _random_formula(rng, rng.randrange(depth))
    return f"{_wrap(left)} {rng.choice(_BINARY)} {_wrap(right)}"


def _wrap(text: str) -> str:
    return text if text in ("a", "b") else f"({text})"


def _uses_both(*texts: str) -> bool:
    joined = " ".join(texts)
    return "a" in joined and "b" in joined


def valid_templates() -> list[str]:
    """Fixed formulas over atoms a and b, each using both, of depth 3."""
    rng = random.Random("valid-templates")
    out: list[str] = []
    while len(out) < VALID_TEMPLATES:
        text = _random_formula(rng, 3)
        if _uses_both(text) and text not in out:
            out.append(text)
    return out


def rename(text: str, swap: bool) -> str:
    """Rename a -> p and b -> q, or crosswise when ``swap``."""
    first, second = ("q", "p") if swap else ("p", "q")
    return text.replace("a", first).replace("b", second)


def cn_pairs() -> list[tuple[list[str], str]]:
    """Fixed (premises, conclusion) pairs inside the depth-2 universe over a, b."""
    rng = random.Random("cn-pairs")
    out: list[tuple[list[str], str]] = []
    while len(out) < CN_PAIRS:
        gamma = [_random_formula(rng, rng.randrange(1, 3)) for _ in range(rng.randrange(1, 3))]
        alpha = _random_formula(rng, 2)
        if _uses_both(*gamma, alpha) and (gamma, alpha) not in out:
            out.append((gamma, alpha))
    return out


# --------------------------------------------------------------------------
# Requests
# --------------------------------------------------------------------------


def law_rows(registry) -> list[tuple[str, str, int, bool]]:
    """(law, --mode value, arity, closed-only) for every row of the registry."""
    rows = []
    for law in registry:
        modes = ("literal", "closure") if law.mode_sensitivity == "per-mode" else ("both",)
        for mode in modes:
            rows.append((law.name, mode, law.arity, law.restriction == "closed-only"))
    return rows


def _check(universe: str, law: str, mode: str, *extra: str) -> Request:
    return Request(
        "check",
        ("check", "--universe", "@" + universe, "--law", law, "--mode", mode, *extra,
         "--format", "json"),
    )


def _fallback_requests() -> list[Request]:
    """A small fixed set of requests, one or more of every kind."""
    u = FALLBACK_FILE
    checks = [
        ("meet-associativity", "literal"),
        ("meet-associativity", "closure"),
        ("orthomodularity", "both"),
        ("order-meet-collapse", "literal"),
    ]
    out = [_check(u, law, mode) for law, mode in checks]
    out += [_check(u, law, mode, "--samples", "200", "--seed", "1") for law, mode in checks]
    out += [
        Request("search", ("search", "--law", "meet-associativity", "--mode", mode,
                           "--max-atoms", "3", "--format", "json"))
        for mode in ("literal", "closure")
    ]
    out.append(Request("deduction", ("probe", "deduction", "--universe", "@" + u,
                                     "--depth", "2", "--mode", "literal",
                                     "--valuations", "closed", "--format", "json")))
    out.append(Request("cn", ("consequence", "--universe", "@" + u, "--gamma", "@gamma0",
                              "--formula", cn_pairs()[0][1], "--relation", "cn-syntactic",
                              "--mode", "literal", "--valuations", "closed",
                              "--format", "json")))
    out.append(Request("valid", ("valid", "--universe", "@" + u, "--formula",
                                 rename(valid_templates()[0], False), "--valuations", "all",
                                 "--format", "json")))
    out.append(Request("implication", ("probe", "implication", "--universe", "@" + u,
                                       "--valuations", "closed", "--format", "json")))
    return out


def _fallback_files() -> dict[str, str]:
    return {
        FALLBACK_FILE: labelled_universe("logic4", LOGIC_SHAPES["logic4"], 0),
        "gamma0": "\n".join(cn_pairs()[0][0]) + "\n",
    }


class Choices:
    """What a seed decides: universe labellings and cn pairs.

    Drawn from ``rng`` for a run; fixed when enumerating the pool, where
    every labelling index is visited in turn.
    """

    def __init__(self, rng: random.Random | None = None, index: int = 0):
        self.rng = rng
        self.index = index

    def labelling(self) -> int:
        return self.rng.randrange(LABELLINGS) if self.rng else self.index

    def pairs(self) -> list[int]:
        if self.rng:
            return sorted(self.rng.sample(range(CN_PAIRS), CN_PER_PASS))
        return list(range(CN_PAIRS))


def _audit(choose: Choices, rows) -> Workload:
    shape_name, shape = AUDIT_SHAPE
    index = choose.labelling()
    name = f"{shape_name}-{index}"
    requests = [_check(name, law, mode) for law, mode, _, _ in rows]
    requests.append(Request("audit", ("audit", "--universe", "@" + name, "--format", "json")))
    return Workload("audit", {name: labelled_universe(shape_name, shape, index)}, requests,
                    primary=name)


def _search(choose: Choices, rows) -> Workload:
    requests = [
        Request("search", ("search", "--law", law, "--mode", mode,
                           "--max-atoms", "4" if arity == 3 else "5", "--format", "json"))
        for law, mode, arity, _ in rows
    ]
    requests.append(Request("modularity", ("probe", "modularity", "--format", "json")))
    # search builds its universes itself; the kernels run on the fallback one.
    return Workload("search", {}, requests, primary=FALLBACK_FILE)


def _logic(choose: Choices, rows) -> Workload:
    files = {}
    names = {}
    for shape_name, shape in LOGIC_SHAPES.items():
        index = choose.labelling()
        names[shape_name] = name = f"{shape_name}-{index}"
        files[name] = labelled_universe(shape_name, shape, index)
    u4, u5, u6 = names["logic4"], names["logic5"], names["logic6"]

    def deduction(universe, mode, valuations):
        return Request("deduction", ("probe", "deduction", "--universe", "@" + universe,
                                     "--depth", "2", "--mode", mode,
                                     "--valuations", valuations, "--format", "json"))

    requests = [
        deduction(u4, mode, valuations)
        for mode in ("literal", "closure") for valuations in ("closed", "all")
    ]
    requests += [deduction(u, mode, "closed") for u in (u5, u6) for mode in ("literal", "closure")]
    pairs = cn_pairs()
    for j in choose.pairs():
        files[f"gamma{j}"] = "\n".join(pairs[j][0]) + "\n"
        requests.append(Request("cn", ("consequence", "--universe", "@" + u4,
                                       "--gamma", f"@gamma{j}", "--formula", pairs[j][1],
                                       "--relation", "cn-syntactic", "--valuations", "closed",
                                       "--format", "json")))
    # Both renamings of every formula, so that which atom a sweep varies
    # fastest is no choice of the seed's.
    for t, template in enumerate(valid_templates()):
        universe = u5 if t % 2 == 0 else u6
        requests += [Request("valid", ("valid", "--universe", "@" + universe,
                                       "--formula", rename(template, swap),
                                       "--valuations", "all", "--format", "json"))
                     for swap in (False, True)]
    requests += [
        Request("implication", ("probe", "implication", "--universe", "@" + u,
                                "--valuations", valuations, "--format", "json"))
        for u in (u4, u5, u6) for valuations in ("closed", "all")
    ]
    return Workload("logic", files, requests, formula_universes=[(("a", "b"), 2)], primary=u5)


def _sampled(choose: Choices, rows) -> Workload:
    files = {}
    requests = []
    outside = []
    for shape_name, shape in SAMPLED_SHAPES.items():
        index = choose.labelling()
        name = f"{shape_name}-{index}"
        files[name] = labelled_universe(shape_name, shape, index)
        large = sum(width for width, _ in shape) > 16
        for law, mode, _, closed_only in rows:
            request = _check(name, law, mode, "--samples", str(SAMPLES), "--seed", str(index))
            # Above 16 atoms only the closed-only rows complete at this commit;
            # the rest exit 2 and are run outside the timed loop.
            (outside if large and not closed_only else requests).append(request)
    primary = next(name for name in files if name.startswith("sampled16"))
    return Workload("sampled", files, requests, outside=outside, primary=primary)


_BUILDERS = {"audit": _audit, "search": _search, "logic": _logic, "sampled": _sampled}


def _build(workload: str, choose: Choices, registry) -> Workload:
    try:
        builder = _BUILDERS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}") from None
    out = builder(choose, law_rows(registry))
    out.files.update(_fallback_files())
    out.fallback = _fallback_requests()
    return out


def generate(workload: str, seed: int, registry) -> Workload:
    """The inputs of one run: the same workload and seed give the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    out = _build(workload, Choices(rng), registry)
    rng.shuffle(out.requests)
    return out


def pool(workload: str, registry) -> tuple[list[Request], dict[str, str]]:
    """Every request any seed can produce for the workload, and their files."""
    requests: dict[str, Request] = {}
    files: dict[str, str] = {}
    for index in range(LABELLINGS):
        run = _build(workload, Choices(index=index), registry)
        for request in run.requests + run.outside:
            requests.setdefault(request.key, request)
        files.update(run.files)
    return list(requests.values()), files
