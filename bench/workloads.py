"""The acbound benchmark workloads, and the worker process that runs one.

Run as a script, this module is the worker that ``run.py`` starts: a
fresh interpreter that imports acbound from the checkout's ``src/``, sets
one workload up from the seed, measures it and prints one JSON line.  The
program is reached only through public functions of its six modules,
which are the layers: ``bound_engine``, ``verification``, ``transform``,
``quantization``, ``entropy_model`` and ``cli``.

A workload is a sequence of rounds; round ``i`` is a list of timed
operations made from the seed and ``i`` alone, so a traced run can repeat
exactly the rounds it measured without tracing.  An operation is one or
more program calls, each with a check of its output.  A call that raises
one of the program's errors counts as a failed check and the run goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from acbound import cli  # noqa: E402
from acbound.bound_engine import (  # noqa: E402
    LossSetExhaustedError,
    Refinement,
    enumerate_deltas,
    reference_config,
    reference_length,
    refine_capacity,
    refine_maxconfig,
    solve_limit,
    upper_limit,
)
from acbound.entropy_model import (  # noqa: E402
    ComponentKind,
    crude_bound,
    sequence_length,
    symbolize,
    table_for,
)
from acbound.quantization import (  # noqa: E402
    pow2_table,
    quantize,
    scaled_annex_k,
)
from acbound.transform import forward_dct, level_shift, zigzag_scan  # noqa: E402
from acbound.verification import (  # noqa: E402
    HIGH_COST_SEED_BLOCK,
    SearchConfig,
    SoundnessViolationError,
    adversarial_search,
    encode_block,
)

from spans import Tracer  # noqa: E402

LUM, CHROMA = ComponentKind.LUMINANCE, ComponentKind.CHROMINANCE
SF_SET = ("1/64", "1/16", "1/8", "1/6", "1/4", "1/2", "1")
# (component, sf) in the order `acbound limits` computes them
PAPER_CELLS = tuple((comp, sf) for sf in SF_SET for comp in (LUM, CHROMA))
CLI_ARGS = ["limits", "--sf-set", "paper", "--refinement", "best", "--json"]

PROGRAM_ERRORS = (SoundnessViolationError, LossSetExhaustedError, ValueError)

EXPECTED = json.loads((BENCH / "expected.json").read_text())

# Per-layer metrics of the traced run.  `<span>.s` is the summed duration
# of the spans of that name, `<span>.calls` the calls they cover; the rest
# are counters recorded at the same boundaries, and two ratios.
PER_LAYER = (
    ("bound_engine.enumerate_deltas.calls", "count"),
    ("bound_engine.enumerate_deltas.s", "s"),
    ("bound_engine.enumerate_deltas.cases", "count"),
    ("bound_engine.enumerate_deltas.entries", "count"),
    ("bound_engine.enumerate_deltas.entries_per_case", "ratio"),
    ("bound_engine.refine_maxconfig.s", "s"),
    ("bound_engine.refine_maxconfig.dropped", "count"),
    ("bound_engine.refine_maxconfig.dropped_per_entry", "ratio"),
    ("bound_engine.refine_capacity.s", "s"),
    ("bound_engine.refine_capacity.copies_removed", "count"),
    ("bound_engine.solve_limit.s", "s"),
    ("transform.forward_dct.calls", "count"),
    ("transform.forward_dct.s", "s"),
    ("transform.zigzag_scan.s", "s"),
    ("quantization.quantize.calls", "count"),
    ("quantization.quantize.s", "s"),
    ("entropy_model.symbolize.calls", "count"),
    ("entropy_model.symbolize.s", "s"),
    ("entropy_model.sequence_length.s", "s"),
    ("cli.main.s", "s"),
    ("trace.overhead_s", "s"),
)


# search_climb operations are sized so that a 50-second run holds a few
# hundred of them, which keeps the tail percentile steady.
@dataclass(frozen=True)
class Sizes:
    cells: tuple            # paper cells timed by limits_cold
    vectors_per_s: float    # limits_cold random vectors per second of --seconds
    climb_iterations: int   # candidates per adversarial_search call
    cli_check: bool         # compare `limits --json` bytes (needs every paper cell)


FULL = Sizes(PAPER_CELLS, vectors_per_s=0.8, climb_iterations=500, cli_check=True)
SMOKE = Sizes(((LUM, "1/64"), (CHROMA, "1")), vectors_per_s=0, climb_iterations=20,
              cli_check=False)


def op_seed(seed: int, index: int) -> int:
    """Seed of operation ``index`` of a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def pinned_limit(component: ComponentKind, sf: str, level: Refinement) -> int:
    return EXPECTED["paper_limits"][component.value][sf][level.value]


@dataclass
class Call:
    label: str
    items: int
    run: Callable[[], object]                  # the program call, untraced
    traced: Callable[[Tracer], object]         # the same work, a span per layer call
    check: Callable[[object], str | None]      # None when the output is correct


class Recorder:
    """Times operations and counts checks."""

    def __init__(self):
        self.op_seconds: list[float] = []
        self.busy_s = 0.0
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, calls: list[Call], tracer: Tracer | None = None, root: str = "") -> None:
        """Time one operation, its calls in order; check their outputs after."""
        outs: list[object] = []
        start = time.perf_counter()
        with tracer.span(root) if tracer is not None else contextlib.nullcontext():
            for call in calls:
                try:
                    outs.append(call.run() if tracer is None else call.traced(tracer))
                except PROGRAM_ERRORS as exc:
                    outs.append(exc)
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        self.op_seconds.append(elapsed)
        for call, out in zip(calls, outs):
            if isinstance(out, PROGRAM_ERRORS):
                self.attempted += 1
                self._fail(call.label, f"{type(out).__name__}: {out}")
            else:
                self.items += call.items
                self.check(call.label, call.check, out)

    def check(self, label: str, check, *args) -> None:
        self.attempted += 1
        try:
            problem = check(*args)
        except PROGRAM_ERRORS as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self._fail(label, problem)

    def merge_checks(self, other: "Recorder") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)

    def _fail(self, label: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {problem.splitlines()[0]}")


# -- bound_engine stage replay ------------------------------------------------


def _entries(sets) -> int:
    return len(sets.losses) + len(sets.gains9) + len(sets.gains10)


def _copies(sets) -> int:
    return sum(e.multiplicity for e in sets.losses) + len(sets.gains9) + len(sets.gains10)


def replay_level(tr: Tracer, state: dict, level: Refinement) -> int:
    """One limit through the engine's public stages, a span around each.

    Does the work ``upper_limit``/``solve_limit`` do for the level: the
    base level enumerates (``state["make_ref"]`` builds the reference) and
    keeps the base sets in ``state`` for the two refinements of the same
    reference.
    """
    if level is Refinement.BASE:
        ref = state["ref"] = state["make_ref"](tr)
        with tr.span("bound_engine.enumerate_deltas"):
            sets = state["base"] = enumerate_deltas(ref)
        tr.count("bound_engine.enumerate_deltas.cases", sum(sets.census.values()))
        tr.count("bound_engine.enumerate_deltas.entries", _entries(sets))
    else:
        ref, sets = state["ref"], state["base"]
        if level is Refinement.MAXCONFIG:
            with tr.span("bound_engine.refine_maxconfig"):
                pruned = refine_maxconfig(sets, ref)
            tr.count("bound_engine.refine_maxconfig.dropped", _entries(sets) - _entries(pruned))
            sets = pruned
        with tr.span("bound_engine.refine_capacity"):
            capped = refine_capacity(sets)
        tr.count("bound_engine.refine_capacity.copies_removed", _copies(sets) - _copies(capped))
        sets = capped
    with tr.span("bound_engine.solve_limit"):
        return solve_limit(ref, sets=sets).limit


def _cell_ref(component: ComponentKind, q):
    def make_ref(tr: Tracer):
        with tr.span("quantization.pow2_table"):
            c = pow2_table(q)
        with tr.span("bound_engine.reference_length"):
            return reference_length(component, c)
    return make_ref


def maxconfig_setup(cells, qs: dict, rec: Recorder, tracer: Tracer | None) -> None:
    """Set-up of search_climb: the MAXCONFIG limit of each cell.

    A traced run first derives each limit through the engine stages (the
    bound_engine share of set-up); every run then fills the program's own
    caches through ``upper_limit``, which the harness reads.
    """
    for comp, sf in cells:
        q = qs[(comp, sf)]
        expected = pinned_limit(comp, sf, Refinement.MAXCONFIG)
        if tracer is not None:
            state = {"make_ref": _cell_ref(comp, q)}
            for level in (Refinement.BASE, Refinement.MAXCONFIG):
                replay_level(tracer, state, level)
        rec.check(f"set-up {comp.value} sf={sf}", _equals(expected, "limit"),
                  upper_limit(comp, q, Refinement.MAXCONFIG).limit)


def _equals(expected, what: str):
    def check(value):
        return None if value == expected else f"{what} {value}, expected {expected}"
    return check


# -- workloads ----------------------------------------------------------------


class Workload:
    min_rounds, max_rounds = 1, None

    def after(self, tracer: Tracer | None) -> None:
        """Checks made once, after the measured rounds."""


class LimitsCold(Workload):
    """The cold paper limit table, then limits of random exponent vectors.

    Runs in a fresh interpreter, so the engine's memo caches start empty as
    in every `acbound limits` call.  Round i < 14 is one paper cell at the
    three levels; later rounds are one random 63-entry exponent vector each.
    The number of vectors is fixed by ``--seconds``, not by the clock, so
    the operation count (and with it the tail percentile) and the memory
    the engine's caches hold do not depend on machine speed.
    """

    name = "limits_cold"
    why = ("cold paper limit table plus random exponent vectors: Fraction sorting, "
           "dominance and pruning in bound_engine")

    def __init__(self, seed: int, sizes: Sizes, seconds: float, rec: Recorder,
                 tracer: Tracer | None):
        self.seed = seed
        self.sizes = sizes
        self.rec = rec
        self.qs = {(comp, sf): scaled_annex_k(comp, Fraction(sf)) for comp, sf in sizes.cells}
        self.min_rounds = self.max_rounds = (
            len(sizes.cells) + max(1, math.ceil(sizes.vectors_per_s * seconds))
        )

    def ops(self, i: int) -> list[list[Call]]:
        """Three operations, one limit each."""
        if i < len(self.sizes.cells):
            calls = self._cell_calls(*self.sizes.cells[i])
        else:
            calls = self._vector_calls(i - len(self.sizes.cells))
        return [[call] for call in calls]

    def _cell_calls(self, comp, sf) -> list[Call]:
        q = self.qs[(comp, sf)]
        state = {"make_ref": _cell_ref(comp, q)}
        return [
            Call(f"{comp.value} sf={sf} {level.value}", 1,
                 lambda level=level: upper_limit(comp, q, level).limit,
                 lambda tr, level=level: replay_level(tr, state, level),
                 _equals(pinned_limit(comp, sf, level), "limit"))
            for level in Refinement
        ]

    def _vector_calls(self, k: int) -> list[Call]:
        comp = (LUM, CHROMA)[k % 2]
        exponents = np.random.default_rng([self.seed, k]).integers(0, 7, size=63)
        ref = reference_config(comp, exponents)

        def make_ref(tr):
            return ref

        state = {"make_ref": make_ref}
        limits: list[int] = []

        def check(limit):
            # levels run in order base, capacity, maxconfig: each is at most the last
            ceiling = limits[-1] if limits else crude_bound()
            limits.append(limit)
            return None if limit <= ceiling else f"limit {limit} above {ceiling}"

        return [
            Call(f"vector {k} {comp.value} {level.value}", 1,
                 lambda level=level: solve_limit(ref, level).limit,
                 lambda tr, level=level: replay_level(tr, state, level),
                 check)
            for level in Refinement
        ]

    def after(self, tracer: Tracer | None) -> None:
        """`limits --sf-set paper --refinement best --json` keeps its bytes."""
        if not self.sizes.cli_check:
            return

        def check():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    status = cli.main(CLI_ARGS)
                else:
                    with tracer.span("cli.main"):
                        status = cli.main(CLI_ARGS)
            data = out.getvalue().encode()
            digest = hashlib.sha256(data).hexdigest()
            if status != 0 or digest != EXPECTED["cli_limits_json_sha256"] or (
                len(data) != EXPECTED["cli_limits_json_bytes"]
            ):
                return f"exit {status}, {len(data)} bytes, sha256 {digest}"
            return None

        self.rec.check("cli " + " ".join(CLI_ARGS), check)


class SearchClimb(Workload):
    """adversarial_search at sf 1/64, one restart per call; an operation is
    one call per component."""

    name = "search_climb"
    why = ("hill climb at sf 1/64 scoring one block at a time: forward_dct, quantize, "
           "symbolize and sequence_length per candidate")

    def __init__(self, seed: int, sizes: Sizes, seconds: float, rec: Recorder,
                 tracer: Tracer | None):
        self.seed = seed
        self.sizes = sizes
        cells = ((LUM, "1/64"), (CHROMA, "1/64"))
        self.qs = {cell: scaled_annex_k(cell[0], Fraction(cell[1])) for cell in cells}
        maxconfig_setup(cells, self.qs, rec, tracer)

    def ops(self, i: int) -> list[list[Call]]:
        return [[self._call(2 * i + j, comp) for j, comp in enumerate((LUM, CHROMA))]]

    def _call(self, index: int, comp) -> Call:
        q = self.qs[(comp, "1/64")]
        cfg = SearchConfig(comp, Fraction(1, 64), iterations=self.sizes.climb_iterations,
                           restarts=1, seed=op_seed(self.seed, index))
        limit = pinned_limit(comp, "1/64", Refinement.MAXCONFIG)

        def check(report):
            again = encode_block(report.block, q, comp).ac_bits
            if again != report.ac_bits or report.limit != limit or report.ac_bits > limit:
                return f"ac_bits {report.ac_bits}, re-encoded {again}, limit {report.limit}"
            return None

        return Call(f"search {comp.value} seed={cfg.seed}", cfg.iterations,
                    lambda: adversarial_search(cfg, q),
                    lambda tr: replay_climb(tr, cfg, q, limit),
                    check)


def replay_climb(tr: Tracer, cfg: SearchConfig, q, limit: int):
    """The single restart of ``adversarial_search`` with ``restarts=1``,
    scoring each candidate through the public stage functions, a span
    around each stage."""
    table = table_for(cfg.component)

    def score(block) -> int:
        with tr.span("transform.forward_dct"):
            coeffs = forward_dct(block)
        with tr.span("transform.zigzag_scan"):
            zig = zigzag_scan(coeffs)
        with tr.span("quantization.quantize", calls=63):
            sizes = [abs(quantize(float(zig[k]), q.factor(k))).bit_length() for k in range(1, 64)]
        with tr.span("entropy_model.symbolize"):
            symbols = symbolize(sizes)
        with tr.span("entropy_model.sequence_length"):
            return sequence_length(table, symbols)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    block = level_shift(HIGH_COST_SEED_BLOCK)
    bits = score(block)
    for _ in range(cfg.iterations):
        candidate = block.copy()
        for _ in range(int(rng.integers(1, 3))):
            r, c = rng.integers(0, 8, size=2)
            candidate[r, c] = rng.integers(-128, 128)
        cand_bits = score(candidate)
        if cand_bits >= bits:
            block, bits = candidate, cand_bits
    return SimpleNamespace(block=block, ac_bits=bits, limit=limit)


WORKLOADS = {w.name: w for w in (LimitsCold, SearchClimb)}


# -- measurement --------------------------------------------------------------


def measure(workload, rec: Recorder, seconds: float, tracer: Tracer | None = None,
            untraced: Recorder | None = None) -> tuple[int, float]:
    """Run whole rounds until ``seconds`` have passed, but at least
    ``workload.min_rounds`` and at most ``workload.max_rounds``.

    With a tracer, each round also runs untraced into ``untraced``, the two
    in alternating order, so that the difference in their operation time is
    the tracing overhead and not a drift of machine speed.  Returns the
    rounds run and the wall time.
    """
    root = f"{workload.name}.op"
    start = time.perf_counter()

    def more(i: int) -> bool:
        if workload.max_rounds is not None and i >= workload.max_rounds:
            return False
        return i < workload.min_rounds or time.perf_counter() - start < seconds

    def traced_round(i: int) -> None:
        for calls in workload.ops(i):
            rec.op(calls, tracer, root)

    def untraced_round(i: int) -> None:
        for calls in workload.ops(i):
            untraced.op(calls)

    i = 0
    while more(i):
        if untraced is None:
            traced_round(i)
        elif i % 2 == 0:
            traced_round(i)
            untraced_round(i)
        else:
            untraced_round(i)
            traced_round(i)
        i += 1
    return i, time.perf_counter() - start


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """The highest of p99, p90 and p75 with at least ten values beyond it.

    Nearest-rank percentiles; falls back to p50 for tiny samples.  Returns
    (percentile, value, values beyond it).
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 90, 75, 50):
        rank = max(1, -(-p * n // 100))
        if n - rank >= 10 or p == 50:
            return p, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, dict]:
    total = tracer.seconds_by_name()
    values = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".s"):
            values[name] = total.get(name[:-2], 0.0)
        else:
            values[name] = tracer.counts.get(name, 0)
    entries = values["bound_engine.enumerate_deltas.entries"]
    cases = values["bound_engine.enumerate_deltas.cases"]
    values["bound_engine.enumerate_deltas.entries_per_case"] = entries / cases if cases else 0.0
    values["bound_engine.refine_maxconfig.dropped_per_entry"] = (
        values["bound_engine.refine_maxconfig.dropped"] / entries if entries else 0.0
    )
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop: how fast the machine is right now.

    Recorded beside the metrics, before and after the measured rounds, so a
    reader can tell a slow program from a slow host.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "acbound").glob("*.py"))


def manifest(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "op_seeds": "numpy SeedSequence([seed, op index])",
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_acbound_lines": src_line_count(),
    }


def run(args) -> dict:
    """Set the workload up and measure it; the result the launcher reads."""
    sizes = SMOKE if args.smoke else FULL
    rec = Recorder()
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, sizes, args.seconds, rec, tracer)
    setup_s = time.monotonic() - args.spawned_at if args.spawned_at is not None else None
    if args.setup_only:
        return {"setup_s": setup_s}

    untraced = Recorder() if tracer is not None else None
    reference_before_s = reference_loop_s()
    rounds, wall_s = measure(workload, rec, args.seconds, tracer, untraced)
    result = {
        "setup_s": setup_s, "rounds": rounds, "wall_s": wall_s,
        "reference_loop_s": [reference_before_s, reference_loop_s()],
    }
    if tracer is not None:
        rec.merge_checks(untraced)
        workload.after(tracer)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"{args.workload}-spans.npz"
        tracer.write(trace_path)
        result["per_layer"] = per_layer_metrics(tracer, rec.busy_s - untraced.busy_s)
        result["traced_op_s"] = rec.busy_s
        result["untraced_op_s"] = untraced.busy_s
        result["spans"] = len(tracer.start)
        result["spans_file"] = str(trace_path.relative_to(ROOT))
    else:
        workload.after(None)
        p, tail_s, beyond = tail_percentile(rec.op_seconds)
        result.update({
            "ops": len(rec.op_seconds),
            "items": rec.items,
            "busy_s": rec.busy_s,
            "op_s_p50": statistics.median(rec.op_seconds),
            "op_s_tail": tail_s,
            "tail_percentile": p,
            "tail_beyond": beyond,
        })
    result.update({
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "manifest": manifest(args),
    })
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one acbound benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; the launcher times set-up this way")
    parser.add_argument("--spawned-at", type=float,
                        help="time.monotonic() when the launcher started this process")
    return parser.parse_args(argv)


if __name__ == "__main__":
    print(json.dumps(run(parse_args())))
