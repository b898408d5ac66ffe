"""Spans and per-layer counters recorded around kflab's public functions.

The library carries no tracing code.  `Tracer.installed()` replaces the
names `harness._pipeline` and `kfactor.find_k_factor` look up at call time
(plus two `Graph` methods) with wrappers that record a span per call, and
puts the originals back on exit.  Counters come only from the arguments
and return values of those public functions.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from kflab import harness, kfactor
from kflab.graphs import Graph


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _exposed(mate) -> int:
    return sum(1 for w in mate if int(w) == -1)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.item: str | None = None
        # scan trials are attributed to items by their derived seed, the
        # only per-trial value the pipeline's first stage receives
        self.item_of_seed: dict[int, str] = {}
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name; returns its result."""
        span = Span(len(self.spans), name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.item)
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, on_call=None, on_result=None):
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # ------------------------------------------------------ counter hooks

    def _enter_trial(self, n, c, seed):
        self.item = self.item_of_seed.get(int(seed), self.item)

    def _graph(self, g):
        self.counts["randgraph.gen_gnp.edges"] += g.m

    def _core(self, cr):
        self.counts["kcore.peeled"] += len(cr.peel_order)

    def _strip(self, res):
        self.counts["strip.iterations"] += res.iterations
        self.counts["strip.enqueued"] += sum(row.enqueued for row in res.trace.rows)
        self.counts[f"strip.halt.{res.halted_reason.lower()}"] += 1

    def _factor(self, cert):
        self.counts["kfactor.none" if cert is None else "kfactor.found"] += 1

    def _gadget(self, gadget):
        self.counts["kfactor.gadget.nodes"] += gadget.n_nodes
        self.counts["kfactor.gadget.edges"] += len(gadget.edges)

    def _seed_mate(self, n, edges, seed_mate=None):
        self.counts["matching.exposed_at_seed"] += (
            n if seed_mate is None else _exposed(seed_mate)
        )

    def _mate(self, mate):
        self.counts["matching.exposed_after"] += _exposed(mate)

    @contextmanager
    def installed(self):
        """Wrap every module-boundary name for the duration of the block."""
        patches = [
            (harness, "gen_gnp", "randgraph.gen_gnp", self._enter_trial, self._graph),
            (harness, "k_core", "kcore.k_core", None, self._core),
            (harness, "sample_configuration", "randgraph.sample_configuration", None, None),
            (harness, "to_multigraph", "randgraph.to_multigraph", None, None),
            (harness, "run_strip", "strip.run_strip", None, self._strip),
            (harness, "enforce_parity", "strip.enforce_parity", None, None),
            (harness, "verify_K", "strip.verify_K", None, None),
            (harness, "find_k_factor", "kfactor.find_k_factor", None, self._factor),
            (kfactor, "gadget_reduce", "kfactor.gadget_reduce", None, self._gadget),
            (kfactor, "maximum_matching", "matching.maximum_matching",
             self._seed_mate, self._mate),
            (kfactor, "verify_k_factor", "kfactor.verify_k_factor", None, None),
            (Graph, "adjacency", "graphs.adjacency", None, None),
            (Graph, "induced_subgraph", "graphs.induced_subgraph", None, None),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in patches]
        try:
            for owner, attr, name, on_call, on_result in patches:
                setattr(owner, attr,
                        self._wrap(name, getattr(owner, attr), on_call, on_result))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def scan(self, config):
        """Top-level scan span: the benchmark's own call into harness."""
        records, summary = self.call("harness.scan", harness.scan, config)
        self.counts["harness.trials"] += len(records)
        self.counts["harness.errors"] += sum(1 for r in records if r.error)
        return records, summary

    def find_k_factor(self, core, k):
        """Top-level factor span: the benchmark's own call into kfactor."""
        cert = self.call("kfactor.find_k_factor", kfactor.find_k_factor, core, k)
        self._factor(cert)
        return cert

    # ---------------------------------------------------------- reduction

    def busy(self, name) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_time(self, name) -> float:
        child = Counter()
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        return sum(s.seconds - child[s.sid] for s in self.spans if s.name == name)

    def layer_metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric: name -> (value, unit).

        Times and work counts are means per traced item (unit "s/item" or
        "count/item"); item classifications are run totals ("count").
        """
        per = 1.0 / items
        out: dict[str, tuple[float, str]] = {}

        def time_(name, value):
            out[name] = (value * per, "s/item")

        def count(name, value):
            out[name] = (value * per, "count/item")

        c = self.counts
        time_("randgraph.gen_gnp.busy_s", self.busy("randgraph.gen_gnp"))
        count("randgraph.gen_gnp.edges", c["randgraph.gen_gnp.edges"])
        for name in ("sample_configuration", "to_multigraph"):
            time_(f"randgraph.{name}.busy_s", self.busy(f"randgraph.{name}"))
        time_("kcore.k_core.busy_s", self.busy("kcore.k_core"))
        time_("kcore.k_core.self_s", self.self_time("kcore.k_core"))
        count("kcore.peeled", c["kcore.peeled"])
        time_("graphs.adjacency.busy_s", self.busy("graphs.adjacency"))
        count("graphs.adjacency.calls",
              sum(1 for s in self.spans if s.name == "graphs.adjacency"))
        time_("graphs.induced_subgraph.busy_s", self.busy("graphs.induced_subgraph"))
        strip_busy = self.busy("strip.run_strip")
        time_("strip.run_strip.busy_s", strip_busy)
        count("strip.iterations", c["strip.iterations"])
        out["strip.step_us"] = (
            1e6 * strip_busy / c["strip.iterations"] if c["strip.iterations"] else 0.0,
            "us/step",
        )
        count("strip.enqueued", c["strip.enqueued"])
        count("strip.halt.cap_reached", c["strip.halt.cap_reached"])
        count("strip.halt.q_empty", c["strip.halt.q_empty"])
        time_("strip.enforce_parity.busy_s", self.busy("strip.enforce_parity"))
        time_("strip.verify_K.busy_s", self.busy("strip.verify_K"))
        time_("kfactor.find_k_factor.busy_s", self.busy("kfactor.find_k_factor"))
        time_("kfactor.find_k_factor.self_s", self.self_time("kfactor.find_k_factor"))
        time_("kfactor.gadget_reduce.busy_s", self.busy("kfactor.gadget_reduce"))
        count("kfactor.gadget.nodes", c["kfactor.gadget.nodes"])
        count("kfactor.gadget.edges", c["kfactor.gadget.edges"])
        time_("kfactor.verify_k_factor.busy_s", self.busy("kfactor.verify_k_factor"))
        out["kfactor.found"] = (c["kfactor.found"], "count")
        out["kfactor.none"] = (c["kfactor.none"], "count")
        time_("matching.maximum_matching.busy_s", self.busy("matching.maximum_matching"))
        exposed_seed = c["matching.exposed_at_seed"]
        exposed_after = c["matching.exposed_after"]
        augmentations = (exposed_seed - exposed_after) // 2
        count("matching.exposed_at_seed", exposed_seed)
        count("matching.exposed_after", exposed_after)
        count("matching.augmentations", augmentations)
        out["matching.augment_yield"] = (
            2 * augmentations / exposed_seed if exposed_seed else 0.0,
            "ratio",
        )
        time_("harness.scan.busy_s", self.busy("harness.scan"))
        time_("harness.self_s", self.self_time("harness.scan"))
        out["harness.trials"] = (c["harness.trials"], "count")
        out["harness.errors"] = (c["harness.errors"], "count")
        scan_ids = {s.sid for s in self.spans if s.name == "harness.scan"}
        out["harness.factor_attempts"] = (
            sum(1 for s in self.spans
                if s.name == "kfactor.find_k_factor" and s.parent in scan_ids),
            "count",
        )
        return out

    def span_rows(self) -> list[list]:
        return [[s.sid, s.name, s.start, s.end, s.parent, s.item] for s in self.spans]
