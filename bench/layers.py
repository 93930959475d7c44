"""Per-layer metrics from the spans that bench/traced.py writes.

The metric list is fixed here, and BENCHMARK.json's per_layer section
lists the same names, so a function that a later change removes still
reports its metric (as 0) and the list can be compared from run to run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

FUNCTIONS = (
    "series.make_series",
    "series.truncate",
    "series.mul",
    "series.reciprocal",
    "series.derivative",
    "series.neg_x_log_derivative",
    "products.expand_to_product",
    "products.product_to_series",
    "products.inverse_sequence",
    "products.tilde_transform",
    "ghost.ghost_from_exponents",
    "ghost.exponents_from_ghost",
    "ghost.verify_reciprocal_identity",
    "congruences.rational_family_series",
    "congruences.fermat_quotient_via_product",
    "congruences.fermat_witness",
    "congruences.fermat_check",
    "congruences.is_prime",
    "congruences.is_wieferich",
    "congruences.wieferich_scan",
    "congruences.partition_numbers",
    "congruences.primes_in_range",
    "cli.main",
)
MODULES = ("series", "products", "ghost", "congruences", "cli")
INCLUSIVE = ("products.inverse_sequence", "congruences.fermat_witness",
             "congruences.fermat_check")

# name -> (unit, better)
METRICS: dict[str, tuple[str, str]] = {}
for _fn in FUNCTIONS:
    METRICS[f"{_fn}.calls"] = ("count", "lower")
    METRICS[f"{_fn}.self_s"] = ("s", "lower")
for _fn in INCLUSIVE:
    METRICS[f"{_fn}.incl_s"] = ("s", "lower")
for _module in MODULES:
    METRICS[f"{_module}.self_s"] = ("s", "lower")
METRICS.update({
    "cli.startup_s": ("s", "lower"),
    "cli.in_bytes": ("bytes", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "products.expand_to_product.order_sum": ("count", "lower"),
    "products.expand_to_product.max_bits": ("bits", "lower"),
    "ghost.exponents_from_ghost.errors": ("count", "lower"),
    "congruences.wieferich_scan.primes_tested": ("count", "lower"),
    "congruences.wieferich_scan.primes_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
})


class LayerTotals:
    """Sums span figures over the traced jobs of a run."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.startup_s: list[float] = []
        self.in_bytes = 0
        self.out_bytes = 0
        self.order_sum = 0
        self.max_bits = 0
        self.ghost_errors = 0
        self.primes_tested = 0
        self.traced_wall_s = 0.0
        self.untraced_wall_s = 0.0

    def add_job(self, spans: list, traced_wall_s: float, untraced_wall_s: float,
                in_bytes: int, out_bytes: int) -> None:
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        main_ns = 0
        for index, (name, start, end, parent, extra) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.self_ns[name] += duration - child_ns[index]
            if not _inside(spans, parent, name):
                self.incl_ns[name] += duration
            if name == "cli.main" and parent < 0:
                main_ns += duration
            elif name == "products.expand_to_product":
                self.order_sum += extra.get("order", 0)
                self.max_bits = max(self.max_bits, extra.get("bits", 0))
            elif name == "ghost.exponents_from_ghost" and extra.get("error"):
                self.ghost_errors += 1
            elif name == "congruences.wieferich_scan":
                self.primes_tested += extra.get("primes_tested", 0)
        self.startup_s.append(traced_wall_s - main_ns / 1e9)
        self.traced_wall_s += traced_wall_s
        self.untraced_wall_s += untraced_wall_s
        self.in_bytes += in_bytes
        self.out_bytes += out_bytes

    def metrics(self, passes: int) -> dict[str, float]:
        """Every METRICS entry; sums are per pass over the job list."""
        out: dict[str, float] = {}
        for fn in FUNCTIONS:
            out[f"{fn}.calls"] = self.calls[fn] / passes
            out[f"{fn}.self_s"] = self.self_ns[fn] / 1e9 / passes
        for fn in INCLUSIVE:
            out[f"{fn}.incl_s"] = self.incl_ns[fn] / 1e9 / passes
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                ns for name, ns in self.self_ns.items() if name.split(".")[0] == module
            ) / 1e9 / passes
        scan_s = self.incl_ns["congruences.wieferich_scan"] / 1e9
        out.update({
            "cli.startup_s": statistics.median(self.startup_s),
            "cli.in_bytes": self.in_bytes / passes,
            "cli.out_bytes": self.out_bytes / passes,
            "products.expand_to_product.order_sum": self.order_sum / passes,
            "products.expand_to_product.max_bits": self.max_bits,
            "ghost.exponents_from_ghost.errors": self.ghost_errors / passes,
            "congruences.wieferich_scan.primes_tested": self.primes_tested / passes,
            "congruences.wieferich_scan.primes_per_s":
                self.primes_tested / scan_s if scan_s else 0.0,
            "trace.overhead_ratio": self.traced_wall_s / self.untraced_wall_s,
        })
        assert out.keys() == METRICS.keys()
        return out

    def shares(self) -> str:
        """Each module's self time, inverse_sequence's inclusive time and
        the time outside cli.main, as shares of the traced jobs' wall time."""
        parts = {f"{module}.self_s": sum(ns for name, ns in self.self_ns.items()
                                         if name.split(".")[0] == module) / 1e9
                 for module in MODULES}
        parts["products.inverse_sequence.incl_s"] = self.incl_ns["products.inverse_sequence"] / 1e9
        parts["start-up (job wall - cli.main)"] = sum(self.startup_s)
        total = self.traced_wall_s or 1.0
        return ", ".join(f"{name} {100 * s / total:.1f}%" for name, s in parts.items())


def _inside(spans: list, parent: int, name: str) -> bool:
    """Whether some ancestor span has the same name (a nested call)."""
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
