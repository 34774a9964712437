"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload verify-paper --seed 1 --seconds 30 --trace 0

One closed-loop client in this process runs whole passes over the workload's
inputs, each pass in an order drawn from ``--seed``, until ``--seconds`` have
passed.  The result cache is cleared before every op, so each op models one
fresh ``verify``/``denotation`` invocation.  Every result is checked against
its known answer (see ``workloads.py``).  Op latency and set-up time are
CPU time of this single-threaded process, scaled by the time of a fixed
reference work measured beside them (see README.md, Clock).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under the layer wrappers of ``tracer.py`` for
half of ``--seconds`` and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  The full
record, with its environment block, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads and inherited by the set-up
# children: on a two-core host shared with other tenants, a BLAS call split
# over two threads waits whenever either core is taken, which made op times
# swing by a factor of three within one run.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"


def _keep_freed_memory() -> None:
    """Serve every allocation up to 32 MiB from a heap that is never trimmed.

    By default glibc maps large numpy buffers with ``mmap`` and returns freed
    heap tops to the kernel, so the next op faults the pages back in: up to
    20 000 page faults and a fifth of an op's CPU time, at a cost that swings
    with the host's memory pressure.  Kept memory takes that cost out of
    every op after the warm-up.
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, the largest glibc accepts
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_memory()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per ``--trace 0`` run: this process plus fresh child processes.
SETUP_RUNS = 5

#: Fewest passes of a ``--trace 0`` run: every input's median is taken over
#: at least this many ops, spread over the run.
MIN_PASSES = 3

#: Reference units timed after the warm-up ops, with theirs scaling the set-up.
SETUP_REFERENCES = 16

#: Most reference units timed around one op.
MAX_UNITS = 1000

#: Child set-up processes are killed after this many seconds.
SETUP_TIMEOUT_S = 150

WORKLOAD_NAMES = ("verify-paper", "denote-noisy", "denote-clean")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print {\"setup_s\": …} and exit (used for repeated set-up timing)",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment block
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    """Read the checked-out commit from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> dict:
    """Name, version and thread count of the BLAS numpy uses."""
    import ctypes

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for library in sorted(libs.glob("lib*openblas*.so*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(library))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                info["threads"] = int(function())
                return info
    return info


def environment_block(seed: int) -> dict:
    """Where and on what a result was measured."""
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# Set-up and the timed loop
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ("kind", "children", "value")

    def __init__(self, kind, children, value):
        self.kind, self.children, self.value = kind, children, value


def _tree(depth: int, index: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (), index)
    children = (_tree(depth - 1, 2 * index), _tree(depth - 1, 2 * index + 1))
    return _Node(f"op{index % 3}", children, None)


def _fold(node: _Node, table: dict) -> int:
    if node.kind == "leaf":
        key = f"x{node.value % 37}"
        table[key] = table.get(key, 0) + node.value
        return node.value
    return sum(_fold(child, table) for child in node.children)


class Reference:
    """Fixed work that does not depend on the program under test.

    The host's speed drifts by up to a factor of two between runs and
    within them, and CPU time drifts with it.  One unit of this work mixes
    what the program's ops do: tokenising and building, walking and
    tabulating a small tree of Python objects; small complex matrix products
    driven by a Python loop; and Kronecker products and an ``eigh`` on 16×16
    matrices.  Every op runs about as many units as it takes time, half right
    before it and half right after, so the op and its reference see the same
    host; op times are scaled by ``NOMINAL_S`` over the time of one unit, so
    that the drift cancels (README.md, Clock).
    """

    #: CPU seconds of one unit on a quiet 2-core x86_64 host.
    NOMINAL_S = 0.0012

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._small = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(4)]
        self._blocks = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3)]
        self._text = " ".join(f"tok{index}" for index in range(150))
        #: CPU seconds spent in :meth:`seconds` so far.
        self.spent_s = 0.0

    def seconds(self, units: int) -> float:
        """Do ``units`` units of the work and return the CPU seconds they took."""
        start = process_time()
        for _ in range(units):
            self._unit()
        seconds = process_time() - start
        self.spent_s += seconds
        return seconds

    def _unit(self) -> None:
        np = self._np
        table = {}
        words = [word.upper() for word in self._text.split() if word[-1] != "7"]
        _fold(_tree(7, len(words)), table)
        sorted(table.items(), key=lambda item: (item[1], item[0]))
        product = self._small[0]
        for step in range(100):
            product = product @ self._small[step % 4]
            product = product / np.abs(product).max()
            table[(step % 17, step % 5)] = complex(product[0, 0])
        state = np.kron(self._blocks[0], self._blocks[1])
        for step in range(20):
            state = np.kron(self._blocks[step % 3], self._blocks[(step + 1) % 3]) @ state
            state = state / np.abs(state).max()
        np.linalg.eigh(state + state.conj().T)


class Runner:
    """Runs ops of one workload and keeps what they did."""

    def __init__(self, cases, reference, clear_cache, cache_stats):
        self.cases = cases
        self.reference = reference
        self._clear_cache = clear_cache
        self._cache_stats = cache_stats
        self._units = {}
        self.failures = []

    def run_op(self, case, tracer=None, cache_counts=None) -> tuple:
        """Run one op on a cleared result cache.

        Returns ``(scaled_s, ok, cpu_s, wall_s, reference_s)``: the op's CPU
        time scaled by the reference work timed around it, whether its answer
        was right, the unscaled times, and the time of one reference unit.
        The number of units is the input's last op time in units, at least two.
        """
        units = self._units.get(case.name, 2)
        reference = self.reference.seconds(units // 2)
        self._clear_cache()
        record = tracer.open(tracing.OP) if tracer is not None else None
        wall_start, cpu_start = perf_counter(), process_time()
        try:
            result = case.op()
        except Exception as error:  # noqa: BLE001 - an unexpected error is a wrong answer
            result = error
        cpu, wall = process_time() - cpu_start, perf_counter() - wall_start
        if record is not None:
            tracer.close(record)
        reference = (reference + self.reference.seconds(units - units // 2)) / units
        self._units[case.name] = min(max(2, round(cpu / reference)), MAX_UNITS)
        try:
            ok = bool(case.check(result))
        except Exception:  # noqa: BLE001 - a check that cannot read the result fails it
            ok = False
        if not ok:
            self.failures.append((case.name, repr(result)[:300]))
            if isinstance(result, BaseException):
                traceback.print_exception(type(result), result, result.__traceback__, file=sys.stderr)
        if cache_counts is not None:
            for region in self._cache_stats()["regions"].values():
                cache_counts["hits"] += region["hits"]
                cache_counts["misses"] += region["misses"]
        return cpu * Reference.NOMINAL_S / reference, ok, cpu, wall, reference

    def run_passes(
        self, order_rng, seconds=None, passes=None, min_passes=1, tracer=None, cache_counts=None
    ):
        """Run whole passes until ``seconds`` elapsed after ``min_passes``, or ``passes`` ran.

        Each sample is ``(input name, *run_op(…))``.
        """
        samples = []
        done = 0
        start = perf_counter()
        while True:
            order = list(range(len(self.cases)))
            order_rng.shuffle(order)
            for index in order:
                case = self.cases[index]
                samples.append((case.name, *self.run_op(case, tracer, cache_counts)))
            done += 1
            if passes is not None and done >= passes:
                break
            if passes is None and done >= min_passes and perf_counter() - start >= seconds:
                break
        return samples, perf_counter() - start, done


def set_up(workload: str):
    """Import the program, build the inputs and warm up once per input.

    The set-up time is the CPU time this process has used since it started,
    less the reference work, scaled by the median of the references timed
    around the warm-up ops and right after them.  Returns
    ``(runner, warm_ok, scaled_s, cpu_s)``.
    """
    sys.path.insert(0, str(SRC))
    import workloads
    from repro.cache import cache_stats, clear_result_cache

    runner = Runner(workloads.WORKLOADS[workload](), Reference(), clear_result_cache, cache_stats)
    warm_ups = [runner.run_op(case) for case in runner.cases]
    cpu = process_time() - runner.reference.spent_s
    references = [warm_up[REFERENCE - 1] for warm_up in warm_ups] + [
        runner.reference.seconds(1) for _ in range(SETUP_REFERENCES)
    ]
    scaled = cpu * Reference.NOMINAL_S / statistics.median(references)
    return runner, all(warm_up[OK - 1] for warm_up in warm_ups), scaled, cpu


def _fresh_setup_seconds(workload: str, seed: int) -> tuple:
    """Time a whole set-up in a new interpreter; it is waited for or killed.

    Returns its ``(scaled_s, cpu_s)``.
    """
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return float(result["setup_s"]), float(result["setup_cpu_s"])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _quantile(values, fraction: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


#: Columns of a sample: ``(input name, *Runner.run_op(…))``.
SCALED, OK, CPU, WALL, REFERENCE = range(1, 6)


def input_medians(samples, column: int = SCALED) -> dict:
    """Each input's median over the run of one time column, in seconds."""
    latencies = {}
    for sample in samples:
        latencies.setdefault(sample[0], []).append(sample[column])
    return {name: statistics.median(values) for name, values in latencies.items()}


def end_to_end_metrics(samples, setups, peak_rss_mb) -> dict:
    # One latency per input, its median over the passes, and quantiles over
    # the inputs weighted alike as in a pass (see README.md, Metrics).  Each
    # set-up comes scaled by the references timed during and after its warm-up.
    latencies = sorted(input_medians(samples).values())
    attempted = len(samples)
    correct = sum(sample[OK] for sample in samples)
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": _metric(1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": _metric(1e3 * _quantile(latencies, 0.9), "ms"),
        "correct_frac": _metric(correct / attempted, "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


#: Per-layer metrics: (metric, layer, field, unit).  ``self_s`` is reported in
#: ms per op, fields with unit ``count/call`` as a mean per call, the rest per op.
LAYER_METRICS = (
    ("language.parse.calls", "language.parse", "calls", "count/op"),
    ("language.parse.self_ms", "language.parse", "self_s", "ms/op"),
    ("analysis.analyze.calls", "analysis.analyze", "calls", "count/op"),
    ("analysis.analyze.self_ms", "analysis.analyze", "self_s", "ms/op"),
    ("assistant.resolve.self_ms", "assistant.resolve", "self_s", "ms/op"),
    ("logic.prover.calls", "logic.prover", "calls", "count/op"),
    ("logic.prover.self_ms", "logic.prover", "self_s", "ms/op"),
    ("logic.ranking.self_ms", "logic.ranking", "self_s", "ms/op"),
    ("predicates.leq_inf.calls", "predicates.leq_inf", "calls", "count/op"),
    ("predicates.leq_inf.self_ms", "predicates.leq_inf", "self_s", "ms/op"),
    ("predicates.sdp_gap.calls", "predicates.sdp_gap", "calls", "count/op"),
    ("superop.choi.calls", "superop.choi", "calls", "count/op"),
    ("superop.choi.self_ms", "superop.choi", "self_s", "ms/op"),
    ("superop.choi.bytes", "superop.choi", "bytes", "B/op"),
    ("superop.simplified.calls", "superop.simplified", "calls", "count/op"),
    ("superop.simplified.self_ms", "superop.simplified", "self_s", "ms/op"),
    ("superop.simplified.rank_in", "superop.simplified", "rank_in", "count/call"),
    ("superop.simplified.rank_out", "superop.simplified", "rank_out", "count/call"),
    ("semantics.loop_iterates.calls", "semantics.loop_iterates", "calls", "count/op"),
    ("semantics.loop_iterates.iterations", "semantics.loop_iterates", "iterations", "count/call"),
    ("semantics.loop_iterates.self_ms", "semantics.loop_iterates", "self_s", "ms/op"),
    ("semantics.denotation.calls", "semantics.denotation", "calls", "count/op"),
    ("semantics.denotation.self_ms", "semantics.denotation", "self_s", "ms/op"),
    ("superop.compose.calls", "superop.compose", "calls", "count/op"),
    ("superop.compose.kraus_products", "superop.compose", "kraus_products", "count/op"),
    ("superop.compose.self_ms", "superop.compose", "self_s", "ms/op"),
    ("superop.deduplicate.calls", "superop.deduplicate", "calls", "count/op"),
    ("superop.deduplicate.self_ms", "superop.deduplicate", "self_s", "ms/op"),
)


def per_layer_metrics(summary, ops, cache_counts, overhead_frac) -> dict:
    metrics = {}
    for name, layer, field, unit in LAYER_METRICS:
        entry = summary.get(layer, {})
        value = entry.get(field, 0.0)
        if unit == "count/call":
            value = value / entry["calls"] if entry.get("calls") else 0.0
        elif field == "self_s":
            value = 1e3 * value / ops
        else:
            value = value / ops
        metrics[name] = _metric(value, unit)
    lookups = cache_counts["hits"] + cache_counts["misses"]
    metrics["cache.hits"] = _metric(cache_counts["hits"] / ops, "count/op")
    metrics["cache.misses"] = _metric(cache_counts["misses"] / ops, "count/op")
    metrics["cache.hit_ratio"] = _metric(cache_counts["hits"] / lookups if lookups else 0.0, "ratio")
    op_time = summary[tracing.OP]["total_s"]
    metrics["trace.overhead_frac"] = _metric(overhead_frac, "ratio")
    metrics["trace.unattributed_frac"] = _metric(summary[tracing.OP]["self_s"] / op_time, "ratio")
    return metrics


def layer_table(summary, ops) -> list:
    """Rows of (layer, calls per op, self ms per op, share of op time), by self time."""
    op_time = summary[tracing.OP]["total_s"]
    rows = [
        (layer, entry["calls"] / ops, 1e3 * entry["self_s"] / ops, entry["self_s"] / op_time)
        for layer, entry in summary.items()
    ]
    return sorted(rows, key=lambda row: -row[2])


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2

    runner, warm_ok, setup_s, setup_cpu_s = set_up(args.workload)
    if args.setup_only:
        if not warm_ok:
            print(f"error: warm-up answers were wrong: {runner.failures}", file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s}))
        return 0

    order_rng = random.Random(args.seed)
    tracing.assert_unwrapped()
    if args.trace == 0:
        samples, elapsed, _ = runner.run_passes(order_rng, seconds=args.seconds, min_passes=MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [(setup_s, setup_cpu_s)] + [
            _fresh_setup_seconds(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)
        ]
        metrics = end_to_end_metrics(samples, [scaled for scaled, _ in setups], peak_rss_mb)
        extra = {
            "setups_s": [scaled for scaled, _ in setups],
            "setups_cpu_s": [cpu for _, cpu in setups],
            "passes_s": elapsed,
        }
    else:
        # Untraced and traced passes alternate, so drift hits both alike.
        untraced, traced = [], []
        cache_counts = {"hits": 0, "misses": 0}
        tracer = tracing.Tracer()
        start = perf_counter()
        while perf_counter() - start < args.seconds / 2:
            untraced += runner.run_passes(order_rng, passes=1)[0]
            tracer.install()
            try:
                traced += runner.run_passes(
                    order_rng, passes=1, tracer=tracer, cache_counts=cache_counts
                )[0]
            finally:
                tracer.remove()
            tracing.assert_unwrapped()
        untraced_time = sum(sample[SCALED] for sample in untraced)
        traced_time = sum(sample[SCALED] for sample in traced)
        summary = tracer.summary()
        metrics = per_layer_metrics(
            summary, len(traced), cache_counts, traced_time / untraced_time - 1.0
        )
        table = layer_table(summary, len(traced))
        samples = untraced + traced
        extra = {"layers": [dict(zip(("layer", "calls_per_op", "self_ms_per_op", "share"), row))
                            for row in table]}

    attempted = len(samples)
    failed = sum(not sample[OK] for sample in samples)
    env = environment_block(args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "samples": attempted,
        "wrong_frac": failed / attempted,
        "warm_up_correct": warm_ok,
        "per_input_p50_ms": {name: 1e3 * value for name, value in input_medians(samples).items()},
        **{
            f"per_input_{label}_p50_ms": {
                name: 1e3 * value for name, value in input_medians(samples, column).items()
            }
            for label, column in (("cpu", CPU), ("wall", WALL), ("reference", REFERENCE))
        },
        "samples_ms": [
            (sample[0], *(1e3 * sample[column] for column in (SCALED, CPU, WALL, REFERENCE)))
            for sample in samples
        ],
        "metrics": metrics,
        "failures": runner.failures[:20],
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace == 1:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  samples {attempted}  "
          f"wrong_frac {failed / attempted:.4g}")
    print("environment " + json.dumps(env))
    for name, value in record["per_input_p50_ms"].items():
        print(f"  p50 {name:20s} {value:10.2f} ms scaled {record['per_input_wall_p50_ms'][name]:10.2f} ms wall")
    if args.trace == 1:
        for layer, calls, self_ms, share in table:
            print(f"  layer {layer:26s} {calls:10.2f} calls/op {self_ms:10.3f} ms/op {share:7.1%}")
    print(json.dumps({
        "correct": failed == 0 and warm_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
