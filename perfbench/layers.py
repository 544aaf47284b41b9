"""Per-layer breakdown of a traced run.

Every workload reduces its spans to a :class:`Report`: the traced wall
time the shares are taken of, each named layer's self time, the explicit
``other`` remainder (wall minus every named self time), exact counts over
a fixed reference unit of work, and the tracing overhead per end-to-end
metric. :func:`finish` prints the table, fills the ``per_layer`` metrics
and applies the exact-repeat guard.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import common
import tracing

#: per_layer metric -> span name; seconds of self time per operation.
#: These layers run on every workload (all three execute the protocols).
SHARED_TIMES = [
    ("core.validation.is_valid_ranks.self_s", "core.validation.is_valid_ranks"),
    ("core.approximation.approximate.self_s", "core.approximation.approximate"),
    ("core.protocol.deliver.self_s", "core.protocol.deliver"),
    ("core.protocol.send.self_s", "core.protocol.send"),
    ("adversary.self_s", "adversary"),
    ("sim.engine.self_s", "sim.engine"),
    ("sim.runner.setup_s", "sim.runner"),
    ("analysis.properties.check_renaming.self_s", "analysis.properties.check_renaming"),
]

#: Counts the exact-repeat guard compares between two passes over the
#: same reference unit within one traced run.
GUARDED = (
    "sim.rounds",
    "sim.correct_messages",
    "sim.correct_bits",
    "core.validation.is_valid_ranks.calls",
    "sweep.claims",
)

#: per_layer count metrics, in output order (0 where a workload lacks the layer).
COUNTS = (
    "core.validation.is_valid_ranks.calls",
    "core.approximation.approximate.calls",
    "core.validation.is_sound_id.calls",
    "sim.rounds",
    "sim.correct_messages",
    "sim.correct_bits",
    "sweep.claims",
    "analysis.worker.execute_task.calls",
    "service.frames.read.calls",
    "service.frames.write.calls",
    "service.journal.append.calls",
)
RATIOS = (
    "core.validation.is_valid_ranks.accept_ratio",
    "sweep.useful_ratio",
    "service.replay_ratio",
)


@dataclass
class Report:
    """A traced run reduced to layers."""

    #: What the shares are of (ns) and how many operations it covered.
    wall_ns: int
    ops: int
    #: Named layer -> self time (ns) over the traced window.
    selfs: Dict[str, int]
    #: The remainder no named layer covers (ns).
    other_ns: int
    #: What the reference unit is ("first cycle", ...), and its exact counts.
    unit: str
    exact: Dict[str, float]
    #: Extra per-layer figures printed in the table (name -> (value, unit)).
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    overhead: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: A second pass over the same reference unit (what it was, its counts):
    #: every :data:`GUARDED` count both passes have must repeat exactly.
    repeat: Optional[Tuple[str, Dict[str, float]]] = None
    notes: List[str] = field(default_factory=list)


def overhead(plain: Dict[str, float], traced: Dict[str, float]) -> Dict[str, Tuple[float, float]]:
    return {name: (plain[name], traced[name]) for name in plain if name in traced}


def counts_over(counts: Dict[Tuple[int, str], int], ops: Optional[Iterable[int]]) -> Dict[str, int]:
    """Counter totals per name, restricted to ``ops`` (``None`` = all)."""
    keep = None if ops is None else set(ops)
    out: Dict[str, int] = defaultdict(int)
    for (op, name), value in counts.items():
        if keep is None or op in keep:
            out[name] += value
    return dict(out)


def protocol_exact(spans, counts, ops) -> Dict[str, float]:
    """Exact protocol-layer counts over the reference ``ops``."""
    keep = None if ops is None else set(ops)
    chosen = [s for s in spans if keep is None or s[2] in keep]
    calls = tracing.calls(chosen)
    totals = counts_over(counts, ops)
    checked = calls.get("core.validation.is_valid_ranks", 0)
    accepted = totals.get("core.validation.is_valid_ranks.accepted", 0)
    return {
        "core.validation.is_valid_ranks.calls": checked,
        "core.validation.is_valid_ranks.accept_ratio": accepted / checked if checked else 0.0,
        "core.approximation.approximate.calls": calls.get("core.approximation.approximate", 0),
        "core.validation.is_sound_id.calls": totals.get("core.validation.is_sound_id", 0),
        "sim.rounds": totals.get("sim.rounds", 0),
        "sim.correct_messages": totals.get("sim.correct_messages", 0),
        "sim.correct_bits": totals.get("sim.correct_bits", 0),
    }


# ------------------------------------------------------------------ workloads


def paper_exact(tracer: tracing.Tracer, reference) -> Report:
    """Each run is one ``bench.run`` root span; its self time is the
    harness glue around the layers and is the ``other`` remainder.
    ``reference`` are the op ids of the counting pass, which the table
    leaves out."""
    skip = set(reference)
    spans = [s for s in tracer.spans if s[2] not in skip]
    selfs = tracing.layer_self_ns(spans)
    roots = [s for s in spans if s[3] == "bench.run"]
    other = selfs.pop("bench.run", 0)
    return Report(
        wall_ns=sum(s[5] - s[4] for s in roots),
        ops=len(roots),
        selfs=selfs,
        other_ns=other,
        unit=f"first cycle ({len(skip)} runs)",
        exact=protocol_exact(tracer.spans, tracer.counts(), reference),
    )


def _descendants(spans, root_id: int) -> List[tuple]:
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    out, stack = [], [root_id]
    while stack:
        for child in children.get(stack.pop(), ()):
            out.append(child)
            stack.append(child[0])
    return out


def sweep(tracer: tracing.Tracer, spawners, batches, first: int) -> Report:
    """Shares are of worker-seconds: each worker process's wall from the
    coordinator's spawn to its exit. ``analysis.worker.startup`` is spawn
    until the pull loop starts (interpreter, imports); ``analysis.worker.
    idle`` is the pull loop's self time (polling, backoff, bookkeeping);
    ``other`` is what remains after the loop returns (teardown). Exact
    counts are taken per batch; the first traced batch is the reference
    unit and the second is its repeat."""
    selfs: Dict[str, int] = defaultdict(int)
    wall = other = cells = 0
    notes: List[str] = []
    exact: Dict[int, Dict[str, float]] = {}
    for index, spawner in sorted(spawners.items()):
        spans_all, counts_all = [], defaultdict(int)
        for path, spawned_ns in spawner.spawned:
            try:
                spans, counts, meta = tracing.load_dump(path)
            except (OSError, ValueError) as exc:
                notes.append(f"batch {index}: worker trace {path} unreadable ({exc})")
                continue
            roots = [s for s in spans if s[3] == "analysis.worker.run"]
            if not roots:
                notes.append(f"batch {index}: worker {path} never started its loop")
                continue
            root = roots[0]
            tree = [root] + _descendants(spans, root[0])
            for name, value in tracing.layer_self_ns(tree).items():
                selfs[name] += value
            selfs["analysis.worker.startup"] += root[4] - spawned_ns
            wall += meta["ended_ns"] - spawned_ns
            other += meta["ended_ns"] - root[5]
            cells += sum(1 for s in tree if s[3] == "analysis.worker.execute_task")
            spans_all += tree
            for key, value in counts.items():
                counts_all[key] += value
            common.remove(path)
        claims = batches[index - first].claims
        executed = sum(1 for s in spans_all if s[3] == "analysis.worker.execute_task")
        exact[index] = protocol_exact(spans_all, counts_all, None)
        exact[index].update({
            "sweep.claims": claims,
            "sweep.useful_ratio": len(batches[index - first].rows) / claims if claims else 0.0,
            "analysis.worker.execute_task.calls": executed,
        })
    selfs["analysis.worker.idle"] = selfs.pop("analysis.worker.run", 0)
    batch_spans = [s for s in tracer.spans if s[3] == "bench.batch"]
    batch_ns = sum(s[5] - s[4] for s in batch_spans) or 1
    coordinator_ns = tracing.layer_self_ns(tracer.spans).get("analysis.store.coordinator", 0)
    rows = [row for b in batches for row in b.rows]
    compute = sum(row.elapsed_s for row in rows)
    return Report(
        wall_ns=wall,
        ops=cells,
        selfs=dict(selfs),
        other_ns=other,
        unit="first traced batch",
        exact=exact[first],
        repeat=("the second traced batch", exact[first + 1]),
        extra={
            "batch wall (coordinator process)": (batch_ns / 1e9, "s"),
            "analysis.store.coordinator.self_s": (coordinator_ns / 1e9, "s"),
            "analysis.store.coordinator share of batch wall": (coordinator_ns / batch_ns, ""),
            "sweep.cell_compute_s (sum of elapsed_s)": (compute, "s"),
            "sweep.cells_per_s": (len(rows) / (batch_ns / 1e9), "1/s"),
        },
        notes=notes,
    )


class Timeline:
    """Labelled segments covering one operation's interval; painting a
    sub-interval relabels it (later paints win)."""

    def __init__(self, start: int, end: int, label: str) -> None:
        self.start, self.end = start, end
        self.segments: List[List] = [[start, end, label]]

    def paint(self, start: int, end: int, label: str) -> None:
        start, end = max(start, self.start), min(end, self.end)
        if start >= end:
            return
        out = []
        for seg_start, seg_end, seg_label in self.segments:
            if seg_end <= start or seg_start >= end:
                out.append([seg_start, seg_end, seg_label])
                continue
            if seg_start < start:
                out.append([seg_start, start, seg_label])
            if seg_end > end:
                out.append([end, seg_end, seg_label])
        out.append([start, end, label])
        self.segments = sorted(out)

    def copy(self) -> "Timeline":
        other = Timeline(self.start, self.end, "")
        other.segments = [list(seg) for seg in self.segments]
        return other

    def within(self, start: int, end: int) -> List[Tuple[int, int, str]]:
        """The current segments clipped to ``[start, end)``."""
        return [
            (max(a, start), min(b, end), label)
            for a, b, label in self.segments
            if b > start and a < end
        ]

    def totals(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for start, end, label in self.segments:
            out[label] += end - start
        return out


def _depth_order(spans) -> List[tuple]:
    by_id = {s[0]: s for s in spans}

    def depth(span) -> int:
        d = 0
        while span[1] in by_id:
            span = by_id[span[1]]
            d += 1
        return d

    return sorted(spans, key=lambda s: (depth(s), s[4]))


#: Server spans painted on the session timeline; everything below
#: ``service.session.execute`` is apportioned by self time instead.
EXECUTE = "service.session.execute"
CLIENT_OTHER = "service.client_other"
ADMISSION = "service.server.admission_wait"
#: Sessions (by client op index) whose daemon-side counts are exact.
REFERENCE_OPS = 200


def service(tracer: tracing.Tracer, daemon_dump: str, done) -> Report:
    """Shares are of client-observed session latency. Each session's
    interval is painted: client spans first (``client.*``; reads waiting
    for the server stay ``service.client_other``), then the daemon's spans
    on top (its ``net.wait`` reads, waiting for the client, show what lay
    beneath), then the admission interval — connect until the welcome
    frame arrives — on top of all. ``service.session.execute``'s painted
    time is split among the protocol layers by their self times. What no
    span covers is ``service.client_other``: loopback transit and event
    loop scheduling on both sides."""
    server_spans, server_counts, meta = tracing.load_dump(daemon_dump)
    client_counts = tracer.counts()
    sid_of = {op: value for (op, name), value in client_counts.items()
              if name == "service.session_id"}
    client_by_op: Dict[int, List[tuple]] = defaultdict(list)
    for span in tracer.spans:
        client_by_op[span[2]].append(span)
    server_by_op: Dict[int, List[tuple]] = defaultdict(list)
    for span in server_spans:
        server_by_op[span[2]].append(span)

    totals: Dict[str, int] = defaultdict(int)
    wall = 0
    ops = 0
    for op, spans in client_by_op.items():
        roots = [s for s in spans if s[3] == "bench.session"]
        if not roots or op not in sid_of:
            continue
        root = roots[0]
        ops += 1
        wall += root[5] - root[4]
        line = Timeline(root[4], root[5], CLIENT_OTHER)
        reads = sorted(s[4:6] for s in spans if s[3] == "client.frames.read")
        for span in _depth_order([s for s in spans if s is not root]):
            line.paint(span[4], span[5], CLIENT_OTHER if span[3] == tracing.WAIT else span[3])
        beneath = line.copy()
        server = server_by_op.get(sid_of[op], [])
        execute_ids = {s[0] for s in server if s[3] == EXECUTE}
        inside = set()
        for span in _depth_order(server):
            if span[1] in execute_ids or span[1] in inside:
                inside.add(span[0])
                continue
            if span[3] == tracing.WAIT:
                for start, end, label in beneath.within(span[4], span[5]):
                    line.paint(start, end, label)
            else:
                line.paint(span[4], span[5], span[3])
        if reads:
            line.paint(root[4], reads[0][1], ADMISSION)
        painted = line.totals()
        executed = painted.pop(EXECUTE, 0)
        subtree = [s for s in server if s[0] in execute_ids or s[0] in inside]
        selfs = tracing.layer_self_ns(subtree)
        subtotal = sum(selfs.values()) or 1
        for name, value in selfs.items():
            totals[name] += executed * value // subtotal
        for name, value in painted.items():
            totals[name] += value
    other = totals.pop(CLIENT_OTHER, 0)
    totals["service.server.loop"] = totals.pop("service.server.session", 0)

    reference = {sid_of[op] for op in range(REFERENCE_OPS) if op in sid_of}
    chosen = [s for s in server_spans if s[2] in reference]
    calls = tracing.calls(chosen)
    exact = protocol_exact(server_spans, server_counts, reference)
    # A replay counts when the daemon answered it without running a session.
    replays = [d.spec.index for d in done
               if d.spec.kind == "replay" and d.spec.index < REFERENCE_OPS]
    replayed = sum(
        1 for op in replays
        if op in sid_of and not any(s[3] == EXECUTE for s in server_by_op[sid_of[op]])
    )
    # Cross-check: the rounds the daemon counted for the sessions it ran
    # equal the rounds those sessions reported to the client.
    received = sum(d.outcome.rounds for d in done
                   if d.spec.index < REFERENCE_OPS and d.spec.kind != "replay")
    exact.update({
        "service.frames.read.calls": calls.get("service.frames.read", 0),
        "service.frames.write.calls": calls.get("service.frames.write", 0),
        "service.journal.append.calls": calls.get("service.journal.append", 0),
        "service.replay_ratio": replayed / len(replays) if replays else 0.0,
    })
    return Report(
        wall_ns=wall,
        ops=ops,
        selfs=dict(totals),
        other_ns=other,
        unit=f"first {REFERENCE_OPS} sessions",
        exact=exact,
        repeat=("the rounds the client received for them", {"sim.rounds": received}),
        extra={
            "daemon peak RSS": (meta["maxrss_kb"] / 1024.0, "MB"),
            "service.client_other_s": (other / 1e9, "s"),
        },
    )



# --------------------------------------------------------------------- output


def _guard(result: common.Result, report: Report) -> List[str]:
    """The exact-repeat guard: a count that differs between two passes over
    the same inputs fails the run."""
    if report.repeat is None:
        return []
    what, second = report.repeat
    shared = [k for k in GUARDED if k in report.exact and k in second]
    changed = [k for k in shared if report.exact[k] != second[k]]
    for name in changed:
        result.fail(f"exact-repeat guard: {name} is {report.exact[name]:g} over the "
                    f"{report.unit} but {second[name]:g} over {what}")
    if changed:
        return []
    return [f"exact-repeat guard: {len(shared)} guarded count(s) repeat exactly between the "
            f"{report.unit} and {what}"]


def finish(result: common.Result, report: Report) -> common.Result:
    wall = report.wall_ns or 1
    ops = max(1, report.ops)
    lines = [
        f"per-layer self time over {report.wall_ns / 1e9:.3f} s traced, "
        f"{report.ops} operations:",
        f"  {'layer':48s} {'self s':>10s} {'ms/op':>10s} {'share':>7s}",
    ]
    for name, value in sorted(report.selfs.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {name:48s} {value / 1e9:10.4f} {value / 1e6 / ops:10.4f} {value / wall:7.1%}"
        )
    lines.append(
        f"  {'other':48s} {report.other_ns / 1e9:10.4f} "
        f"{report.other_ns / 1e6 / ops:10.4f} {report.other_ns / wall:7.1%}"
    )
    for name, (value, unit) in report.extra.items():
        lines.append(f"  {name}: {value:.6g} {unit}")
    lines.append(f"exact counts over the {report.unit}:")
    for name in COUNTS + RATIOS:
        if name in report.exact:
            lines.append(f"  {name}: {report.exact[name]:.6g}")
    lines.append("tracing overhead (untraced -> traced):")
    for name, (plain, traced) in report.overhead.items():
        change = (traced - plain) / plain if plain else 0.0
        lines.append(f"  {name}: {plain:.4f} -> {traced:.4f} ({change:+.1%})")
    lines += _guard(result, report)
    lines += report.notes
    result.lines += lines

    metrics: Dict[str, float] = {}
    for metric, span in SHARED_TIMES:
        metrics[metric] = report.selfs.get(span, 0) / 1e9 / ops
    metrics["other_frac"] = report.other_ns / wall
    for name in COUNTS + RATIOS:
        metrics[name] = report.exact.get(name, 0)
    result.metrics = metrics
    result.artifact["layers"] = {
        "wall_s": report.wall_ns / 1e9,
        "ops": report.ops,
        "self_s": {k: v / 1e9 for k, v in report.selfs.items()},
        "other_s": report.other_ns / 1e9,
        "extra": report.extra,
        "exact": report.exact,
        "overhead": report.overhead,
    }
    return result
