"""Run the prodex CLI with a span around every public function.

Usage: python3 bench/traced.py SPANS_FILE [prodex arguments...]

prodex modules import each other's public functions by name, so one
function can be reachable through several module attributes
(`products.expand_to_product`, `congruences.expand_to_product`,
`cli.expand_to_product`).  Every such binding is replaced by the same
wrapper, so no call skips its span.  Spans stay in memory and are written
to SPANS_FILE as JSON once the CLI returns; stdout is left to the CLI alone.

A span is [name, start_ns, end_ns, parent_index, extra], where parent_index
is -1 at top level and extra holds per-call counts (input order, output
size in bits, primes tested, the error raised).
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("series", "products", "ghost", "congruences")
# functions whose results are measured after the run
SIZED = ("products.expand_to_product", "congruences.wieferich_scan")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (span index, result) pairs of SIZED calls; measuring them after
        # the run keeps that cost out of every span
        self.results: list[tuple[int, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, results = self.spans, self.stack, self.results
        sized = name in SIZED

        def traced(*args, **kwargs):
            index = len(spans)
            extra = {}
            if args and hasattr(args[0], "order"):
                extra["order"] = args[0].order
            span = [name, 0, 0, stack[-1] if stack else -1, extra]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter_ns()
                extra["error"] = type(exc).__name__
                raise
            else:
                span[2] = perf_counter_ns()
                if sized:
                    results.append((index, result))
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import prodex.cli as cli

        public = {cli.main: "cli.main"}
        for layer in LAYERS:
            module = sys.modules[f"prodex.{layer}"]
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    public[obj] = f"{layer}.{attr}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in public.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "prodex" and not modname.startswith("prodex."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def dump(self, path: str) -> None:
        for index, result in self.results:
            name, extra = self.spans[index][0], self.spans[index][4]
            if name == "products.expand_to_product":
                extra["bits"] = max(abs(v).bit_length() for v in result.exponents)
            elif name == "congruences.wieferich_scan":
                extra["primes_tested"] = result.primes_tested
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import prodex.cli as cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
