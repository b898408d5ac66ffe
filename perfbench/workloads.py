"""The benchmark's workloads: what one unit of work is, and how it is checked.

A unit is one call into the library -- one harness.scan call, or one
kfactor.find_k_factor instance -- and yields items: scan trials or factor
instances.  Each item carries the problems its checks found (none when it
passed).  Each unit also yields one `reference` value that is compared with
the recording for the default seed (see record_reference.py).
"""

import hashlib
import time
from dataclasses import dataclass

from kflab import analytics, harness, kcore, kfactor, randgraph, rng

# the checks call the library's own function, never a traced wrapper
VERIFY_K_FACTOR = kfactor.verify_k_factor


@dataclass
class Item:
    """One scan trial or one find_k_factor instance."""

    id: str
    seconds: float
    verdict: str
    problem: str = ""


@dataclass
class Unit:
    """The items of one library call, with its wall time and outputs."""

    seconds: float
    items: list
    output: str  # canonical outputs; untraced and traced runs must agree
    reference: tuple  # (key, value) compared with the recording


class ScanWorkload:
    """harness.scan on the AC9 grid: k=5, n=50,000, c from c_5-0.5 to
    c_5+1.5 in 8 steps, default beta_override=0.1, threads=1.  Each call
    runs one trial per grid point with base seed spawn_seed(seed,
    "scan-round", r) for call r."""

    K = 5
    N = 50_000
    STEPS = 8

    def __init__(self, name, mode):
        self.name = name
        self.mode = mode

    def prepare(self, seed):
        c_k = analytics.c_k_threshold(self.K)[0]
        self.seed = seed
        self.c_from = c_k - 0.5
        self.c_to = c_k + 1.5

    def config(self, r):
        return harness.ScanConfig(
            k=self.K, n=self.N, c_from=self.c_from, c_to=self.c_to,
            steps=self.STEPS, trials=1,
            base_seed=rng.spawn_seed(self.seed, "scan-round", r),
            mode=self.mode,
        )

    def run_unit(self, r, tracer):
        cfg = self.config(r)
        grid = cfg.c_grid()
        seeds = [rng.spawn_seed(cfg.base_seed, "trial", ci, 0) for ci in range(cfg.steps)]
        t0 = time.perf_counter()
        if tracer is None:
            records, _ = harness.scan(cfg)
        else:
            tracer.item = f"r{r}"
            tracer.item_of_seed.update({s: f"r{r}/c{ci}" for ci, s in enumerate(seeds)})
            records, _ = tracer.scan(cfg)
        seconds = time.perf_counter() - t0

        items = []
        for ci, rec in enumerate(records):
            problem = rec.error
            if not problem and (ci >= cfg.steps or rec.seed != seeds[ci]
                                or rec.trial != 0 or rec.c != grid[ci]):
                problem = "row is not spawn_seed(base, 'trial', ci, t) at grid point ci"
            if not problem and rec.factor_found and not (rec.k1 and rec.k4):
                problem = "factor_found without k1 and k4"
            items.append(Item(f"r{r}/c{ci}", rec.wall_time, rec.strip_halted_reason, problem))
        if len(records) != cfg.steps:
            items.append(Item(f"r{r}", seconds, "", f"{len(records)} rows, not {cfg.steps}"))
        rows = [line.rsplit(",", 1)[0] for line in
                harness.records_to_csv(records).splitlines()]
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        return Unit(seconds, items, digest, (str(r), digest))


class FactorWorkload:
    """kfactor.find_k_factor on k-cores of G(n, c/n), instances in seed
    order.  Empty cores and cores with odd k|core| are skipped: their None
    is an instant parity exit.  Set-up generates and peels a pool of
    instances, sized so that a run seldom solves one twice; a run
    that exhausts it starts over."""

    def __init__(self, name, k, n, c_offset, pool):
        self.name = name
        self.k = k
        self.n = n
        self.c_offset = c_offset
        self.pool_size = pool

    def prepare(self, seed):
        c = analytics.c_k_threshold(self.k)[0] + self.c_offset
        pool = []
        j = 0
        while len(pool) < self.pool_size:
            g = randgraph.gen_gnp(self.n, c, rng.spawn_seed(seed, "factor-instance", j))
            core = kcore.k_core(g, self.k).core
            if core.n and (self.k * core.n) % 2 == 0:
                pool.append((f"j{j}", core))
            j += 1
        self.pool = pool

    def run_unit(self, i, tracer):
        iid, core = self.pool[i % self.pool_size]
        t0 = time.perf_counter()
        if tracer is None:
            cert = kfactor.find_k_factor(core, self.k)
        else:
            tracer.item = iid
            cert = tracer.find_k_factor(core, self.k)
        seconds = time.perf_counter() - t0
        verdict = "none" if cert is None else "found"
        problem = ""
        if cert is not None and not (
            cert.k == self.k and VERIFY_K_FACTOR(core, cert.edges, self.k)
        ):
            problem = "certificate fails verify_k_factor"
        output = verdict if cert is None else cert.to_json()
        return Unit(seconds, [Item(iid, seconds, verdict, problem)], output,
                    (str(i % self.pool_size), verdict))


WORKLOADS = {
    w.name: w
    for w in (
        ScanWorkload("scan_simple", "simple"),
        ScanWorkload("scan_multigraph", "multigraph"),
        FactorWorkload("factor_found", k=5, n=300, c_offset=1.5, pool=320),
        FactorWorkload("factor_none", k=4, n=600, c_offset=0.2, pool=512),
    )
}
