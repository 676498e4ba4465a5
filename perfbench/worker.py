"""Run one workload in a fresh process and print its measurements as JSON.

run.py starts this file with PYTHONPATH set to the checkout's ``src``. It
calls the public lpwp functions in the same order as the matching CLI
subcommand, one problem at a time, so a problem that raises counts as failed
and the run goes on. It repeats whole passes over the corpus until the time
is used, then checks the last pass's outputs.

Usage: python3 worker.py WORK_DIR SECONDS TRACE TRACE_FILE
       python3 worker.py --noisy-digest WORK_DIR OUT_FILE

The second form only rebuilds the prep workload's noisy file and prints its
SHA-256, so that run.py can compare the file across interpreters.
"""

import hashlib
import json
import logging
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import gen
import lpwp
from probe import SpeedProbe
from lpwp import (
    NoiseConfig,
    augment_text,
    canonicalize,
    corrupt_spans,
    load_dataset,
    parse_declarations,
    save_dataset,
    score_accuracy,
    serialize_declarations,
    solve_lp,
    strip_tags,
)

MAX_ERRORS = 10


class Tracer:
    """In-memory spans ``(name, start, end, parent, problem id)``.

    While disabled, ``call`` only calls through, so traced and untraced
    passes run the same code.
    """

    def __init__(self):
        self.enabled = False
        self.spans = []
        self._stack = []

    def call(self, name, problem, fn, *args):
        if not self.enabled:
            return fn(*args)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, time.perf_counter(), parent, problem)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, problem in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "problem": problem}))
                fh.write("\n")


class LogCounter(logging.Handler):
    """Counts lpwp log records per logger name instead of printing them."""

    def __init__(self):
        super().__init__()
        self.counts = Counter()

    def emit(self, record):
        self.counts[record.name] += 1


class Failures:
    """Per-problem failure accounting: count by exception type, keep going."""

    def __init__(self):
        self.count = 0
        self.by_type = Counter()
        self.ids = set()

    def record(self, err, problem_id):
        self.count += 1
        self.by_type[type(err).__name__] += 1
        self.ids.add(problem_id)


# --- passes ---------------------------------------------------------------
# Each pass returns (attempted, failures, counters, outputs). Counters must
# repeat exactly on every pass of a run; outputs feed the checks.

def prep_pass(ctx, tracer):
    """``lpwp augment`` then ``lpwp noise --p 0.2``."""
    problems = tracer.call("ingest.load", None, load_dataset, ctx["corpus"])
    failures = Failures()
    rows = {}
    for problem in problems:
        try:
            source = tracer.call("augment.augment", problem.id, augment_text,
                                 problem.text, problem.spans)
            target = tracer.call("ir.serialize", problem.id,
                                 serialize_declarations, problem.gold or [])
        except Exception as err:  # a failing problem is counted, not fatal
            failures.record(err, problem.id)
            continue
        rows[problem.id] = (source, target)
    with open(ctx["dir"] / "train.tsv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(f"{s}\t{t}" for s, t in rows.values()) + "\n")
    cfg = NoiseConfig(p=ctx["noise_p"], seed=ctx["noise_seed"])
    noisy, _ = tracer.call("noise.corrupt", None, corrupt_spans, problems, cfg)
    noisy_path = ctx["dir"] / "noisy.jsonl"
    tracer.call("ingest.save", None, save_dataset, noisy, noisy_path)
    digest = hashlib.sha256(noisy_path.read_bytes()).hexdigest()
    counters = {"noisy_sha256": digest}
    return len(problems), failures, counters, (rows, noisy, noisy_path)


def score_pass(ctx, tracer):
    """``lpwp score``, with scoring isolated per example."""
    problems = tracer.call("ingest.load", None, load_dataset, ctx["corpus"])
    with open(ctx["preds"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != len(problems):
        raise ValueError(f"{len(lines)} prediction lines for {len(problems)} problems")
    failures = Failures()
    parsed = []
    diagnostics = recovered = 0
    for problem, line in zip(problems, lines):
        try:
            decls, diags = tracer.call("ir.parse", problem.id,
                                       parse_declarations, line, "lenient")
        except Exception as err:
            failures.record(err, problem.id)
            continue
        diagnostics += len(diags)
        recovered += len(decls)
        parsed.append((problem, decls))
    scores = {}
    for problem, decls in parsed:
        pid = problem.id
        try:
            report = tracer.call("metrics.score", pid, score_accuracy,
                                 {pid: problem.gold}, {pid: decls},
                                 {pid: problem.order_mapping})
        except Exception as err:
            failures.record(err, pid)
            continue
        e = report.per_example[0]
        scores[pid] = (e.d, e.fp, e.fn)
    counters = {"ir.diagnostics": diagnostics, "ir.recovered": recovered,
                "metrics.failed": failures.count,
                "scores_sha256": _digest(sorted(scores.items()))}
    return len(problems), failures, counters, scores


def solve_pass(ctx, tracer):
    """``lpwp canonicalize`` then ``lpwp solve`` on each problem."""
    problems = tracer.call("ingest.load", None, load_dataset, ctx["corpus"])
    failures = Failures()
    solutions = {}
    for problem in problems:
        try:
            formulation = tracer.call("canonical.canonicalize", problem.id,
                                      canonicalize, problem.gold,
                                      problem.order_mapping)
            solution = tracer.call("solver.solve", problem.id, solve_lp, formulation)
        except Exception as err:
            failures.record(err, problem.id)
            continue
        solutions[problem.id] = solution
    counters = dict(Counter(f"solver.{s.status}" for s in solutions.values()))
    counters["solutions_sha256"] = _digest(
        sorted((pid, s.as_json_dict()) for pid, s in solutions.items())
    )
    return len(problems), failures, counters, solutions


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def noisy_digest(work_dir, out_path):
    """Rebuild the prep workload's noisy file at ``out_path``; its SHA-256."""
    ctx = json.loads((work_dir / "manifest.json").read_text(encoding="utf-8"))
    problems = load_dataset(work_dir / "corpus.jsonl")
    cfg = NoiseConfig(p=ctx["noise_p"], seed=ctx["noise_seed"])
    noisy, _ = corrupt_spans(problems, cfg)
    save_dataset(noisy, out_path)
    return hashlib.sha256(Path(out_path).read_bytes()).hexdigest()


# --- checks ---------------------------------------------------------------
# Each check returns a list of error messages; empty means correct.

def failure_check(ctx, failed_ids):
    """Only the planted crash examples may fail, in any layer."""
    planted = {e["id"] for e in ctx["expected"] if e.get("crash")}
    return [f"{pid}: raised, but no failure was planted there"
            for pid in sorted(failed_ids - planted)]

def _raw_records(ctx):
    with open(ctx["corpus"], encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def prep_check(ctx, outputs):
    rows, noisy, noisy_path = outputs
    errors = []
    for record in _raw_records(ctx):
        if record["id"] not in rows:
            continue  # failed problem, judged by failure_check
        source, target = rows[record["id"]]
        text, spans = strip_tags(source)
        want_spans = [(s["start"], s["end"], s["label"]) for s in record["spans"]]
        if text != record["text"] or [(s.start, s.end, s.label) for s in spans] != want_spans:
            errors.append(f"{record['id']}: strip_tags(augment_text) differs from the input")
        want_target = "".join(gen.render_record(r) for r in record["gold"])
        if target != want_target:
            errors.append(f"{record['id']}: IR target differs from the gold records")
    if load_dataset(noisy_path) != noisy:
        errors.append("noisy dataset does not round-trip through save/load")
    return errors


def score_check(ctx, scores):
    errors = []
    for exp in ctx["expected"]:
        got = scores.get(exp["id"])
        if got is None:
            continue  # failed problem, judged by failure_check
        if got != (exp["D"], exp["FP"], exp["FN"]):
            errors.append(f"{exp['id']}: D/FP/FN {got}, planted "
                          f"{(exp['D'], exp['FP'], exp['FN'])}")
    return errors


def solve_check(ctx, solutions):
    errors = []
    records = {r["id"]: r for r in _raw_records(ctx)}
    for exp in ctx["expected"]:
        solution = solutions.get(exp["id"])
        if solution is None:
            continue  # failed problem, judged by failure_check
        if solution.status != exp["status"]:
            errors.append(f"{exp['id']}: status {solution.status}, planted {exp['status']}")
        elif solution.status == "optimal":
            errors += [f"{exp['id']}: {e}" for e in
                       _optimal_errors(records[exp["id"]], solution, exp["x_star"])]
    return errors


def _optimal_errors(record, solution, x_star):
    """x >= 0, every gold row holds, objective = c.x and is no worse than x*."""
    columns = record["order_mapping"]
    x = solution.x
    limits = [abs(float(g["limit"])) for g in record["gold"] if g["type"] == "linear"]
    tol = 1e-6 * max([1.0] + limits)
    errors = []
    if len(x) != len(columns) or min(x) < -tol:
        errors.append("x is not a non-negative vector over the columns")
        return errors
    c = [0.0] * len(columns)
    for g in record["gold"]:
        if g["type"] == "objvar":
            sign = 1.0 if g["direction"] == "minimize" else -1.0
            for var in g["vars"]:
                c[columns[var]] += sign
            continue
        lhs = sum(float(a) * x[columns[v]] for v, a in g["terms"].items())
        limit = float(g["limit"])
        if (lhs > limit + tol) if g["operator"] == gen.LE else (lhs < limit - tol):
            errors.append(f"row {g['operator']} {g['limit']} violated: {lhs}")
    cx = sum(ci * xi for ci, xi in zip(c, x))
    if abs(solution.objective_value - cx) > tol:
        errors.append(f"objective {solution.objective_value} != c.x {cx}")
    if cx > sum(ci * xi for ci, xi in zip(c, x_star)) + tol:
        errors.append("objective worse than the planted feasible point")
    return errors


WORKLOADS = {
    "prep": (prep_pass, prep_check),
    "score": (score_pass, score_check),
    "solve": (solve_pass, solve_check),
}


# --- per-layer figures ----------------------------------------------------

def layer_figures(tracer, ctx, passes):
    """Per-layer self time and counters, as medians over the traced passes."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    traced = [p for p in passes if p["traced"]]
    roots = [i for i, span in enumerate(spans) if span[0] == "pass"]
    speed_of = {root: p["speed"] for root, p in zip(roots, traced)}
    per_pass = {root: Counter() for root in roots}  # self seconds by layer
    solve_ms = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        root = i
        while spans[root][3] is not None:
            root = spans[root][3]
        if root not in per_pass:
            continue  # the quarter load, timed in its pass record
        seconds = ((end - start) - covered[i]) * speed_of[root]
        per_pass[root][name] += seconds
        if name == "solver.solve":
            solve_ms.append(seconds * 1000.0)
    by_pass = [per_pass[root] for root in roots]
    quarter = [p["quarter_load_seconds"] for p in traced]
    layers = {}
    for name in sorted({n for c in by_pass for n in c} - {"pass"}):
        layers[f"{name}_s"] = statistics.median(c[name] for c in by_pass)
    ratio = ctx["n"] / ctx["n_quarter"]
    layers["ingest.load_exp"] = statistics.median(
        math.log(c["ingest.load"] / q) / math.log(ratio)
        for c, q in zip(by_pass, quarter)
    )
    if solve_ms:
        cuts = statistics.quantiles(solve_ms, n=100)
        layers["solver.solve_ms_p50"] = statistics.median(solve_ms)
        layers["solver.solve_ms_p99"] = cuts[98]
    counters = traced[0]["counters"]
    for key, value in counters.items():
        if isinstance(value, int):
            layers[key] = value
    if "ir.recovered" in counters:
        planted = sum(e["planted"] for e in ctx["expected"])
        layers["ir.parse_yield"] = counters["ir.recovered"] / planted
    with_spans = statistics.median(p["nominal_seconds"] for p in traced)
    plain = statistics.median(p["nominal_seconds"] for p in passes if not p["traced"])
    layers["trace.overhead_frac"] = with_spans / plain - 1.0
    return layers


def main(argv):
    if argv[1] == "--noisy-digest":
        logging.getLogger("lpwp").addHandler(logging.NullHandler())
        logging.getLogger("lpwp").propagate = False
        print(noisy_digest(Path(argv[2]), Path(argv[3])))
        return 0
    work_dir, seconds, trace, trace_file = Path(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    src = Path(lpwp.__file__).resolve().parent.parent
    if src != work_dir.resolve().parent.parent / "src":
        raise SystemExit(f"lpwp imported from {src}, not from this checkout")
    ctx = json.loads((work_dir / "manifest.json").read_text(encoding="utf-8"))
    ctx.update(dir=work_dir, corpus=work_dir / "corpus.jsonl",
               preds=work_dir / "preds.txt")
    run_pass, check = WORKLOADS[ctx["workload"]]

    log_counter = LogCounter()
    lpwp_logger = logging.getLogger("lpwp")
    lpwp_logger.addHandler(log_counter)
    lpwp_logger.propagate = False

    tracer = Tracer()
    probe = SpeedProbe()
    failure_types = Counter()
    failed_ids = set()
    passes = []
    outputs = None
    start = time.perf_counter()
    min_passes = 2 if trace else 1
    while True:
        # A traced run alternates plain and traced passes, so that the
        # plain ones give the tracing overhead.
        tracer.enabled = trace and len(passes) % 2 == 1
        log_counter.counts.clear()
        outputs = None
        with probe:
            began = time.perf_counter()
            try:
                attempted, failures, counters, outputs = tracer.call(
                    "pass", None, run_pass, ctx, tracer)
            except Exception:  # the whole pass failed: every problem in it did
                traceback.print_exc()
                attempted, failures, counters = ctx["n"], Failures(), {}
                failures.count = ctx["n"]
                failures.by_type["pass"] = 1
            elapsed = time.perf_counter() - began
        speed, nominal_seconds = probe.speed(), probe.nominal_seconds(elapsed)
        for name in ("lpwp.ingest", "lpwp.noise"):
            counters[f"{name[5:]}.log_records"] = log_counter.counts[name]
        quarter_seconds = None
        if tracer.enabled:
            with probe:
                began = time.perf_counter()
                tracer.call("ingest.load_quarter", None, load_dataset,
                            work_dir / "corpus_quarter.jsonl")
                quarter_seconds = probe.nominal_seconds(time.perf_counter() - began)
        failure_types.update(failures.by_type)
        failed_ids |= failures.ids
        passes.append({"seconds": elapsed, "speed": speed,
                       "nominal_seconds": nominal_seconds,
                       "quarter_load_seconds": quarter_seconds,
                       "attempted": attempted,
                       "failed": failures.count, "traced": tracer.enabled,
                       "counters": counters})
        used = time.perf_counter() - start
        if len(passes) >= min_passes and used + elapsed > seconds:
            break
    tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = failure_check(ctx, failed_ids)
    if any(p["counters"] != passes[0]["counters"] for p in passes):
        errors.append("counters differ between passes of one seed")
    if outputs is not None:
        errors += check(ctx, outputs)
    else:
        errors.append("last pass produced no output to check")
    result = {"passes": passes, "peak_rss_mb": peak_rss_mb,
              "failure_types": dict(failure_types), "errors": errors[:MAX_ERRORS],
              "n_errors": len(errors)}
    if trace:
        result["layers"] = layer_figures(tracer, ctx, passes)
        tracer.write(trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
