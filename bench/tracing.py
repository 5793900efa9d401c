"""Span tracer over the library's layer entry points.

Tracing patches, for the duration of one job, the module, class and
dispatch-table attributes that callers look up at call time (for
example ``protocol.run_iterate_exact``, which ``run_strategy_exact``
resolves through its module globals).  Nothing under ``src/`` is
edited; ``uninstall`` puts every original back.

A span is ``[job, name, layer, start_ns, end_ns, parent]``, kept in
memory and written out by ``write_spans`` when the run ends.  A layer's
self time is the sum over its spans of duration minus the time covered
by child spans.
"""

from __future__ import annotations

import csv
import gzip
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("qstate", "photonics", "protocol", "analytics", "cli")

OPTIMIZE = "analytics.optimize_theta"


def _qstate_bytes(values) -> int:
    """Bytes of the dense operands and results one qstate call touches.

    Computed from matrix dimensions (complex128 elements), not measured.
    """
    total = 0
    for value in values:
        if isinstance(value, tuple):
            total += _qstate_bytes(value)
        else:
            elements = getattr(value, "_elements", None)
            if elements is None:
                elements = getattr(value, "matrix", None)
            if elements is not None and hasattr(elements, "nbytes"):
                total += elements.nbytes
    return total


class Tracer:
    """Collects spans and work counts for traced jobs."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.trees: list = []
        self.samples: list = []
        self.csv_rows = 0
        self._first_span = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, layer: str, name: str, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        errors = layer + ".errors"
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            record = [self.job, name, layer, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[errors] += 1
                raise
            finally:
                record[4] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_objective(self, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][1] == OPTIMIZE:
                counts["analytics.objective_evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def install(self, pd) -> None:
        """Wrap the entry points of every layer; ``pd`` is the package."""
        q, ph, proto, an, cl = pd.qstate, pd.photonics, pd.protocol, pd.analytics, pd.cli

        def qbytes(args, result):
            self.counts["qstate.bytes_computed"] += _qstate_bytes(args) + _qstate_bytes(
                (result,)
            )

        def keep_tree(args, tree):
            self.trees.append(tree)

        def keep_samples(args, stats):
            self.samples.append(stats)

        def count_rows(args, result):
            self.csv_rows += args[0].n_trials

        def region_points(args, points):
            self.counts["analytics.region_points"] += len(points)

        entry_points = [
            # qstate, as bound by protocol, analytics and cli
            ("qstate", proto, "tensor", qbytes),
            ("qstate", proto, "apply_one_qubit", qbytes),
            ("qstate", proto, "apply_cz", qbytes),
            ("qstate", proto, "project_x_unnormalized", qbytes),
            ("qstate", proto, "fidelity", qbytes),
            ("qstate", proto, "ry_minus_half_pi", qbytes),
            ("qstate", an, "plus_state", qbytes),
            ("qstate", cl, "plus_state", qbytes),
            # photonics, as bound by protocol, analytics and cli
            ("photonics", proto, "heralded_state", None),
            ("photonics", proto, "p_click", None),
            ("photonics", an, "p_click", None),
            ("photonics", an, "eta_weight", None),
            ("photonics", an, "heralded_state_with_dark_counts", None),
            ("photonics", cl, "heralded_state", None),
            ("photonics", cl, "p_click", None),
            ("photonics", ph.HeraldedPair, "expand", None),
            # protocol
            ("protocol", proto, "run_iterate_exact", None),
            ("protocol", an, "run_strategy_exact", keep_tree),
            ("protocol", cl, "run_strategy_exact", keep_tree),
            ("protocol", cl, "run_trajectories", keep_samples),
            ("protocol", proto.SampleStats, "write_csv", count_rows),
            ("protocol", proto.SampleStats, "summary", None),
            ("protocol", proto.ExactTree, "mean_success_fidelity", None),
            # analytics
            ("analytics", cl, "optimize_theta", None),
            ("analytics", an, "chain_growth_rate", None),
            ("analytics", cl, "chain_growth_rate", None),
            ("analytics", cl, "crossover_transmission", None),
            ("analytics", an, "dark_count_fidelity_region", region_points),
            # cli: main, and the handlers main dispatches through _COMMANDS
            ("cli", cl, "main", None),
            *[("cli", cl._COMMANDS, command, None) for command in cl._COMMANDS],
        ]
        for layer, owner, attr, after in entry_points:
            name = f"{layer}.{attr}"
            self._patch(owner, attr, lambda fn, l=layer, n=name, a=after: self._span(l, n, fn, a))

        # A validated DensityMatrix costs one eigvalsh; unvalidated ones
        # are cheap intermediates and stay untraced.
        def make_init(original):
            traced = self._span("qstate", "qstate.validate", original, qbytes)

            def __init__(obj, elements, labels, *, validate=True):
                if validate:
                    traced(obj, elements, labels, validate=True)
                else:
                    original(obj, elements, labels, validate=False)

            return __init__

        self._patch(q.DensityMatrix, "__init__", make_init)
        # Objective evaluations inside optimize_theta: counted, not spanned
        # (rate_bell is a microsecond closed form called ~10^5 times a job).
        self._patch(an, "rate_bell", self._count_objective)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- per-job analysis -------------------------------------------------

    def start_job(self, job: int) -> None:
        self.job = job
        self.counts.clear()
        self.trees.clear()
        self.samples.clear()
        self.csv_rows = 0
        self._first_span = len(self.spans)

    def job_metrics(self, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics of the job started last; see NOTES.md."""
        spans = self.spans[self._first_span :]
        offset = self._first_span
        child_ns: defaultdict[int, int] = defaultdict(int)
        for record in spans:
            if record[5] >= 0:
                child_ns[record[5]] += record[4] - record[3]
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        calls: Counter = Counter()
        layer_calls: Counter = Counter()
        optimize_children = 0
        for k, (_, name, layer, start, end, parent) in enumerate(spans, start=offset):
            duration = end - start
            self_s[layer] += (duration - child_ns[k]) * 1e-9
            incl_s[name] += duration * 1e-9
            calls[name] += 1
            layer_calls[layer] += 1
            if name == "analytics.chain_growth_rate" and parent >= 0:
                optimize_children += self.spans[parent][1] == OPTIMIZE

        def per(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        trials = sum(s.n_trials for s in self.samples)
        iterates = sum(int(s.iterates.sum()) for s in self.samples)
        attempts = sum(int(s.attempts.sum()) for s in self.samples)
        leaves = sum(len(t.leaves) for t in self.trees)
        classes = sum(_count_classes(t) for t in self.trees)
        trajectories_s = incl_s["protocol.run_trajectories"]
        iterate_calls = calls["protocol.run_iterate_exact"]
        chain_calls = calls["analytics.chain_growth_rate"]
        return {
            "qstate.ops": layer_calls["qstate"],
            "qstate.validated": calls["qstate.validate"],
            "qstate.self_s": self_s["qstate"],
            "qstate.us_per_op": per(self_s["qstate"] * 1e6, layer_calls["qstate"]),
            "qstate.bytes_computed": self.counts["qstate.bytes_computed"],
            "qstate.errors": self.counts["qstate.errors"],
            "photonics.calls": layer_calls["photonics"],
            "photonics.self_s": self_s["photonics"],
            "photonics.errors": self.counts["photonics.errors"],
            "protocol.run_trajectories.s": trajectories_s,
            "protocol.trials": trials,
            "protocol.us_per_trial": per(trajectories_s * 1e6, trials),
            "protocol.iterates_per_trial": per(iterates, trials),
            "protocol.attempts_per_trial": per(attempts, trials),
            "protocol.write_csv.s": incl_s["protocol.write_csv"],
            "protocol.csv_rows": self.csv_rows,
            "protocol.run_strategy_exact.s": incl_s["protocol.run_strategy_exact"],
            "protocol.run_strategy_exact.calls": calls["protocol.run_strategy_exact"],
            "protocol.run_iterate_exact.calls": iterate_calls,
            "protocol.run_iterate_exact.us_per_call": per(
                incl_s["protocol.run_iterate_exact"] * 1e6, iterate_calls
            ),
            "protocol.tree.leaves": leaves,
            "protocol.tree.count_classes": classes,
            "protocol.tree.classes_per_leaf": per(classes, leaves),
            "protocol.tree.pruned_probability": sum(t.pruned_probability for t in self.trees),
            "protocol.self_s": self_s["protocol"],
            "protocol.errors": self.counts["protocol.errors"],
            "analytics.optimize_theta.s": incl_s[OPTIMIZE],
            "analytics.optimize_theta.calls": calls[OPTIMIZE],
            "analytics.objective_evals": self.counts["analytics.objective_evals"]
            + optimize_children,
            "analytics.chain_growth_rate.calls": chain_calls,
            "analytics.chain_growth_rate.us_per_call": per(
                incl_s["analytics.chain_growth_rate"] * 1e6, chain_calls
            ),
            "analytics.dark_count_fidelity_region.s": incl_s[
                "analytics.dark_count_fidelity_region"
            ],
            "analytics.region_points": self.counts["analytics.region_points"],
            "analytics.self_s": self_s["analytics"],
            "analytics.errors": self.counts["analytics.errors"],
            "cli.rates.s": incl_s["cli.rates"],
            "cli.drift.s": incl_s["cli.drift"],
            "cli.chain.s": incl_s["cli.chain"],
            "cli.simulate.s": incl_s["cli.simulate"],
            "cli.self_s": self_s["cli"],
            "cli.bytes_written": bytes_written,
            "cli.errors": self.counts["cli.errors"],
        }

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "job", "name", "layer", "start_ns", "end_ns", "parent"])
            for k, record in enumerate(self.spans):
                writer.writerow([k, *record])


def _count_classes(tree) -> int:
    """Leaves grouped by (first parity, count of each of the four outcomes)."""
    classes = set()
    for leaf in tree.leaves:
        counts = [0, 0, 0, 0]
        for outcome in leaf.history:
            counts[outcome.index] += 1
        classes.add((leaf.history[0].parity, *counts))
    return len(classes)


# Work counts that must repeat exactly between jobs with the same inputs.
WORK_COUNTS = (
    "qstate.ops",
    "qstate.validated",
    "qstate.bytes_computed",
    "photonics.calls",
    "protocol.trials",
    "protocol.iterates_per_trial",
    "protocol.attempts_per_trial",
    "protocol.csv_rows",
    "protocol.run_strategy_exact.calls",
    "protocol.run_iterate_exact.calls",
    "protocol.tree.leaves",
    "protocol.tree.count_classes",
    "analytics.optimize_theta.calls",
    "analytics.objective_evals",
    "analytics.chain_growth_rate.calls",
    "analytics.region_points",
    "cli.bytes_written",
)


def summarize(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of a run from those of its traced jobs.

    Times are medians over the jobs, error counts are totals, and work
    counts are taken from the first job (run.py checks that they repeat).
    """
    out = {}
    for key in per_job[0]:
        values = [job[key] for job in per_job]
        if key.endswith(".errors"):
            out[key] = sum(values)
        elif key in WORK_COUNTS:
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out
