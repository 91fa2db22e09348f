"""Wall time of ineqlab's five operations on three workloads (see README.md).

    python3 perfbench/run.py --workload grouped-200k --seed 1 --seconds 36 --trace 0

Run from the root of a checkout: the package is imported from `src/`.
Each run builds its inputs from --seed, sets the program up SET_UPS times,
then repeats rounds of the five operations (measure, lorenz, decompose,
shapley, subgroup) for about --seconds, checks every output against
`checks.py`, and prints one JSON line: ops attempted and failed, and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import combinations
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import inputs
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

OPS = ("measure", "lorenz", "decompose", "shapley", "subgroup")
SET_UPS = 5
MEASURES = ("theil", "pietra", "ge:2@p=0.25", "atkinson:1")
SUBGROUP_C = 2.0
CHILD_TIMEOUT_S = 120

# Operations whose output fails its check on every input because of a
# known fault in the program; they count in `failed` and leave `correct`
# true (an exception or a non-zero exit never does). cli-csv
# `lorenz`: zonogon._merge_parallel compares cross products with an
# absolute cutoff, so distinct slopes of 1e5 columns of size 1e-5 merge
# (4,725 edges are left) and the chain's Theil is 9e-8 (relative) low.
KNOWN_FAULTS = {("cli-csv", "lorenz")}

END_TO_END = {f"{op}_s": "s" for op in ("setup",) + OPS} | {"peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.ingest_s": "s",
    "cli.ingest_rows": "count",
    "cli.emit_s": "s",
    "cli.output_lines": "count",
    "population.dataset_s": "s",
    "population.grouped_columns_s": "s",
    "population.grouped_columns_calls": "count",
    "population.population_matrix_s": "s",
    "zonogon.canonical_chain_s": "s",
    "zonogon.chain_columns_in": "count",
    "zonogon.chain_edges_out": "count",
    "zonogon.meet_s": "s",
    "zonogon.meet_calls": "count",
    "measures.inequality_s": "s",
    "measures.inequality_calls": "count",
    "measures.inequality_columns": "count",
    "decomposition.redundancy_lattice_s": "s",
    "decomposition.decompose_self_s": "s",
    "decomposition.subgroup_self_s": "s",
    "shapley.game_value_calls": "count",
    "shapley.shapley_self_s": "s",
}

# Public names the operations call: (name, layer, span, namespaces it is
# looked up in, sizes). "api" is the benchmark's own call site.
TRACED = [
    ("Dataset", "population", "dataset", ("api", "cli"), None),
    ("population_matrix", "population", "population_matrix", ("api", "cli", "population"), None),
    ("grouped_columns", "population", "grouped_columns", ("api", "cli", "decomposition", "shapley"), None),
    ("canonical_chain", "zonogon", "canonical_chain", ("api", "cli", "decomposition"),
     lambda args, z: {"chain_columns_in": len(args[0]), "chain_edges_out": len(z.vertices) - 1}),
    ("meet", "zonogon", "meet", ("zonogon",), None),
    ("inequality", "measures", "inequality", ("api", "cli", "decomposition", "shapley"),
     lambda args, _: {"inequality_columns": len(args[0])}),
    ("redundancy_lattice", "decomposition", "redundancy_lattice", ("decomposition",), None),
    ("decompose", "decomposition", "decompose_self", ("api", "cli"), None),
    ("subgroup_decompose", "decomposition", "subgroup_self", ("api", "cli"), None),
    ("shapley_values", "shapley", "shapley_self", ("api", "cli"), None),
    ("game_synergy", "shapley", "shapley_self", ("api", "cli"), None),
    ("game_value", "shapley", "shapley_self", ("shapley",), lambda args, _: {"game_value_calls": 1}),
    ("ingest", "cli", "ingest", ("cli",), lambda args, pop: {"ingest_rows": len(pop)}),
    ("_emit", "cli", "emit", ("cli",), None),
]


class OpFailed(Exception):
    pass


def p90(samples: list[float]) -> float:
    """90th percentile; see README.md for why not the median."""
    return statistics.quantiles(samples, n=10, method="inclusive")[-1] if len(samples) > 1 else samples[0]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_import(module: str) -> tuple[float, float]:
    """Wall seconds of a fresh interpreter importing `module`, and the
    seconds of the import statement alone as the child measured them."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = perf_counter() - t0
    if done.returncode != 0:
        raise OpFailed(f"import {module} failed: {done.stderr.strip()[-500:]}")
    return wall, float(done.stdout)


# -- library workloads: grouped-200k, many-small ---------------------------------


def lib_measure(api, d):
    out = {}
    for text in MEASURES:
        kind, parsed = api.parse_measure(text)
        if kind == "atkinson":
            out[text] = api.atkinson(d, parsed)
        else:
            out[text] = api.inequality(api.population_matrix(d), parsed)
    return out


def lib_lorenz(api, d):
    return api.canonical_chain(api.grouped_columns(d, d.attribute_names)).vertices


def lib_decompose(api, d):
    result = api.decompose(d, d.attribute_names, api.parse_measure("theil")[1])
    return [(node.sources, cum, part) for node, cum, part in result.nodes], result.total


def lib_shapley(api, d):
    spec = api.parse_measure("theil")[1]
    attrs = d.attribute_names
    phi = api.shapley_values(d, attrs, spec)
    return phi, {(a, b): api.game_synergy(d, a, b, spec) for a, b in combinations(attrs, 2)}


def lib_subgroup(api, d):
    r = api.subgroup_decompose(d, d.attribute_names[0], SUBGROUP_C)
    return r.between, {key[0]: (w, v) for key, w, v in r.within}, r.reconstruction, r.total


LIB_OPS = {
    "measure": lib_measure,
    "lorenz": lib_lorenz,
    "decompose": lib_decompose,
    "shapley": lib_shapley,
    "subgroup": lib_subgroup,
}

CHECKS = {
    "measure": checks.check_measures,
    "lorenz": lambda ref, out: checks.check_chain(ref, out, ref.names),
    "decompose": lambda ref, out: checks.check_decomposition(ref, *out),
    "shapley": lambda ref, out: checks.check_shapley(ref, *out),
    "subgroup": lambda ref, out: checks.check_subgroup(ref, ref.names[0], *out),
}


class Library:
    """Operations call ineqlab in this process; one operation is one call
    (grouped-200k) or one pass of that call over every population (many-small)."""

    entry = "ineqlab"

    def __init__(self, pops):
        import ineqlab

        self.pops = pops
        self.refs = [checks.Reference(p) for p in pops]
        self.labels = [{name: p.labels(j) for j, name in enumerate(p.names)} for p in pops]
        self.api = SimpleNamespace(**{name: getattr(ineqlab, name) for name in (
            "Dataset", "parse_measure", "atkinson", "inequality", "population_matrix",
            "grouped_columns", "canonical_chain", "decompose", "shapley_values",
            "game_synergy", "subgroup_decompose")})
        self.datasets = []
        # `decompose` raises NegativeComponent on some populations with a zero
        # indicator, on some seeds only (see README.md); it runs on the others
        self.members = {
            op: [i for i, p in enumerate(pops) if op != "decompose" or p.values.all()] for op in OPS
        }

    def set_up(self) -> float:
        self.datasets = []  # free the previous set-up first
        t0 = perf_counter()
        datasets = [self.api.Dataset(p.values, lab, p.names) for p, lab in zip(self.pops, self.labels)]
        seconds = perf_counter() - t0
        self.datasets = datasets
        return seconds

    def run(self, op):
        fn = LIB_OPS[op]
        datasets = [self.datasets[i] for i in self.members[op]]
        t0 = perf_counter()
        out = [fn(self.api, d) for d in datasets]
        return perf_counter() - t0, out

    def check(self, op, out):
        for i, o in zip(self.members[op], out, strict=True):
            CHECKS[op](self.refs[i], o)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- cli-csv: one `python -m ineqlab.cli` process per operation -------------------


def parse_cli(op, text):
    if op == "lorenz":
        lines = text.split()
        if not lines or lines[0] != "x,y":
            raise OpFailed(f"lorenz printed {text[:80]!r}")
        return [[float(v) for v in line.split(",")] for line in lines[1:]]
    out = json.loads(text)
    if op == "measure":
        return {out["measure"]: float(out["value"])}
    if op == "decompose":
        nodes = [
            ([tuple(s.split(",")) for s in row["node"][2:-2].split("],[")],
             float(row["cumulative"]), float(row["partial"]))
            for row in out["lattice"]
        ]
        return nodes, float(out["total"])
    if op == "shapley":
        phi = {a: float(v) for a, v in out["values"].items()}
        return phi, {tuple(k.split("|")): float(v) for k, v in out["interactions"].items()}
    return (
        float(out["between"]),
        {g["group"]: (float(g["weight"]), float(g["value"])) for g in out["within"]},
        float(out["reconstruction"]),
        float(out["total"]),
    )


class Cli:
    """One `python -m ineqlab.cli` process per operation; traced runs call
    `ineqlab.cli.main` in this process instead."""

    entry = "ineqlab.cli"

    def __init__(self, seed, rows, in_process):
        OUT.mkdir(exist_ok=True)
        pop = inputs.csv_population(seed, rows)
        fixed = inputs.csv_population(None, rows)
        self.files = [OUT / f"cli-csv-seed{seed}.csv", OUT / "cli-csv-lorenz.csv"]
        inputs.write_csv(pop, self.files[0])
        inputs.write_csv(fixed, self.files[1])
        ref = checks.Reference(pop)
        self.refs = {op: ref for op in OPS} | {"lorenz": checks.Reference(fixed)}
        common = ["--value-col", "income", "--precision", "17"]
        data = ["-i", str(self.files[0])] + common
        self.args = {
            "measure": ["measure", *data, "--measure", "ge:2@p=0.25"],
            "lorenz": ["lorenz", "-i", str(self.files[1]), *common],
            "decompose": ["decompose", *data, "--measure", "theil", "--attrs", "A,B,C"],
            "shapley": ["shapley", *data, "--measure", "theil", "--attrs", "A,B,C"],
            "subgroup": ["subgroup", *data, "--measure", "ge:2", "--group-by", "A"],
        }
        self.main = None
        if in_process:
            import ineqlab.cli

            self.main = ineqlab.cli.main

    def set_up(self) -> float:
        return 0.0

    def run(self, op):
        if self.main is not None:
            buf = io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    self.main(self.args[op], standalone_mode=False)
            except SystemExit as exc:  # how the CLI reports IneqError
                raise OpFailed(f"exit {exc.code}") from None
            return perf_counter() - t0, parse_cli(op, buf.getvalue())
        t0 = perf_counter()
        done = subprocess.run([sys.executable, "-m", "ineqlab.cli", *self.args[op]], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        seconds = perf_counter() - t0
        if done.returncode != 0:
            raise OpFailed(f"exit {done.returncode}: {done.stderr.strip()[-500:]}")
        return seconds, parse_cli(op, done.stdout)

    def check(self, op, out):
        ref = self.refs[op]
        if op == "lorenz":
            checks.check_chain(ref, out, ())
        else:
            CHECKS[op](ref, out)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        for path in self.files:
            path.unlink(missing_ok=True)


def make_workload(name, seed, trace, small=False):
    """`small` shrinks every input, for the benchmark's own tests."""
    if name == "grouped-200k":
        return Library([inputs.grouped(seed, rows=20_000 if small else inputs.GROUPED_ROWS)])
    if name == "many-small":
        if small:
            return Library(inputs.many_small(seed, count=6, rows=(50, 300)))
        return Library(inputs.many_small(seed))
    if name == "cli-csv":
        return Cli(seed, 3_000 if small else inputs.CSV_ROWS, in_process=trace)
    raise ValueError(name)


def install_spans(tracer: Tracer, api) -> None:
    import ineqlab.cli
    import ineqlab.decomposition
    import ineqlab.population
    import ineqlab.shapley
    import ineqlab.zonogon

    spaces = {"api": api, "cli": ineqlab.cli, "decomposition": ineqlab.decomposition,
              "population": ineqlab.population, "shapley": ineqlab.shapley,
              "zonogon": ineqlab.zonogon}
    for attr, layer, span, where, sizes in TRACED:
        for space in where:
            if space != "api" or api is not None:
                tracer.patch(spaces[space], attr, layer, span, sizes)
    # cli prints through `click.echo`, looked up on the click module
    lines = lambda args, _: {"output_lines": str(args[0] if args else "").count("\n") + 1}
    tracer.replace(ineqlab.cli, "click", _Click(ineqlab.cli.click, tracer.wrap(
        "cli", "emit", ineqlab.cli.click.echo, lines)))


class _Click:
    """The click module with `echo` replaced."""

    def __init__(self, module, echo):
        self._module = module
        self.echo = echo

    def __getattr__(self, name):
        return getattr(self._module, name)


def run(workload_name, seed, seconds, trace, small=False):
    """One benchmark run; returns the result object printed as the last line."""
    workload = make_workload(workload_name, seed, trace, small)
    tracer = Tracer() if trace else None
    try:
        return _measure(workload_name, workload, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.unpatch()
        if isinstance(workload, Cli):
            workload.close()


def _measure(workload_name, workload, seed, seconds, tracer):
    if tracer is not None:
        install_spans(tracer, getattr(workload, "api", None))
    imports, import_inner, builds = [], [], []
    for _ in range(SET_UPS):
        wall, inner = time_import(workload.entry)
        imports.append(wall)
        import_inner.append(inner)
        builds.append(workload.set_up())
    setup_spans = len(tracer.spans) if tracer else 0

    times = {op: [] for op in OPS}
    failures: dict[str, list[str]] = {}
    unexpected = 0
    attempted = rounds = 0
    round_ends = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for op in OPS:
            attempted += 1
            try:
                took, out = workload.run(op)
            except Exception as exc:  # the run goes on; the op counts as failed
                failures.setdefault(op, []).append(traceback.format_exception_only(exc)[-1].strip())
                unexpected += 1
                continue
            times[op].append(took)
            try:
                workload.check(op, out)
            except checks.CheckFailed as exc:
                failures.setdefault(op, []).append(str(exc))
                unexpected += (workload_name, op) not in KNOWN_FAULTS
        rounds += 1
        round_ends.append(len(tracer.spans) if tracer else 0)
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            break

    failed = sum(len(v) for v in failures.values())
    correct = unexpected == 0
    for op, reasons in failures.items():
        print(f"{workload_name} {op}: {len(reasons)} of {rounds} failed: {reasons[0]}", file=sys.stderr)

    if tracer is None:
        metrics = {"setup_s": p90(imports) + p90(builds)}
        metrics.update({f"{op}_s": p90(t) for op, t in times.items() if t})
        metrics["peak_rss_mb"] = workload.peak_rss_mb()
        units = END_TO_END
    else:
        totals = tracer.totals(setup_spans)
        metrics = {name: totals.get(name, 0.0) / rounds for name in PER_LAYER}
        if isinstance(workload, Cli):
            metrics["cli.import_s"] = statistics.median(import_inner)
        else:  # Datasets are built in set-up only
            metrics["population.dataset_s"] = (
                tracer.totals(0, setup_spans)["population.dataset_s"] / SET_UPS)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{workload_name}-seed{seed}.spans.jsonl", setup_spans, round_ends[0])

    OUT.mkdir(exist_ok=True)
    record = {"workload": workload_name, "seed": seed, "trace": tracer is not None,
              "rounds": rounds, "import_s": imports, "build_s": builds, "op_s": times,
              "failures": failures}
    (OUT / f"{workload_name}-seed{seed}-trace{int(tracer is not None)}.json").write_text(
        json.dumps(record, indent=1))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grouped-200k", "many-small", "cli-csv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ineqlab" / "__init__.py").is_file():
        print(f"error: no ineqlab package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
