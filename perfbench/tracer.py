"""Per-layer tracer for one `zecheck verify` run.

Run as a script, it imports zecheck, wraps the public layer functions
listed in TRACED, runs the CLI in this process and writes the recorded
spans to a JSON file:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json verify --d 3 --n 2

The wrapper replaces the function on its defining module and on every
zecheck module namespace that imported it by name, so calls between
functions of one module (ppt_search -> project_to_ppt) are recorded too.
Spans are kept in memory as (function, start, end, parent) and written
when the run ends.  `layer_metrics` turns them into per-function call
counts and self times: a span's duration minus its direct child spans.
Helpers that are not traced, such as zecheck.linalg, are charged to
their caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = {
    "designs": (
        "enumerate_clifford",
        "multiplication_table",
        "frame_potential",
        "conjugate_twirl",
        "find_minimal_subdesign",
    ),
    "channel": ("apply_n", "apply_complementary_n", "cq_overlap", "random_block_state"),
    "zero_error": (
        "averaged_output_overlap",
        "code_pair_conditions",
        "design_average_overlap_operator",
    ),
    "ppt": ("ppt_search", "project_to_ppt", "is_ppt", "constraint_score", "isotropic_twirl_n"),
    "ncgraph": ("graph_span", "operator_span", "contains"),
    "privacy": ("run_protocol", "verify_secrecy"),
}
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Span recorder plus the counters read off traced return values."""

    def __init__(self):
        self.spans: list[tuple[int, float, float, int]] = []  # (name index, start, end, parent)
        self.stack: list[int] = []
        self.missing: list[str] = []  # TRACED names zecheck no longer defines
        self.counters = {
            "branches": 0,
            "branch_bytes": 0,
            "ppt_accepted": 0,
            "ppt_attempts": 0,
            "ppt_unconverged": 0,
        }

    def observe(self, name: str, result) -> None:
        c = self.counters
        if name in ("channel.apply_n", "channel.apply_complementary_n"):
            c["branches"] += int(result.labels.shape[0])
            c["branch_bytes"] += int(result.matrices.nbytes)
        elif name == "ppt.project_to_ppt" and result is None:
            c["ppt_unconverged"] += 1
        elif name == "ppt.ppt_search":
            c["ppt_accepted"] += int(result.accepted)
            c["ppt_attempts"] += int(result.accepted + result.skipped)

    def wrap(self, index: int, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(self.spans)
            self.spans.append(None)  # reserved so children can name their parent
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(slot)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[slot] = (index, start, end, parent)
            self.observe(name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function on every zecheck namespace that holds it."""
        import zecheck
        import zecheck.cli  # noqa: F401  (the CLI namespace must be patched too)

        namespaces = [m for k, m in sys.modules.items() if k == "zecheck" or k.startswith("zecheck.")]
        for index, name in enumerate(TRACED_NAMES):
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules.get(f"zecheck.{mod_name}"), fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(index, name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)

    def to_dict(self) -> dict:
        return {
            "names": list(TRACED_NAMES),
            "spans": [list(s) for s in self.spans if s is not None],
            "counters": self.counters,
            "missing": self.missing,
        }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-function `.calls`, `.self_s` and the counter-derived layer metrics."""
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    max_call = [0.0] * len(names)
    for i, (index, start, end, _) in enumerate(spans):
        calls[index] += 1
        self_s[index] += (end - start) - child_time[i]
        max_call[index] = max(max_call[index], end - start)
    out: dict[str, float] = {}
    for index, name in enumerate(names):
        out[f"{name}.calls"] = calls[index]
        out[f"{name}.self_s"] = self_s[index]
    c = trace["counters"]
    out["channel.branches"] = c["branches"]
    out["channel.branch_mb"] = c["branch_bytes"] / 2**20
    out["ppt.ppt_search.accept_ratio"] = (
        c["ppt_accepted"] / c["ppt_attempts"] if c["ppt_attempts"] else 0.0
    )
    out["ppt.project_to_ppt.unconverged"] = c["ppt_unconverged"]
    out["ncgraph.operator_span.max_call_s"] = max_call[names.index("ncgraph.operator_span")]
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json verify [zecheck verify flags]", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from zecheck.cli import main as zecheck_main

    try:
        code = zecheck_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
