"""Spans and work counters around the public functions of each hexcount module.

`install()` replaces each target function with a timing wrapper at every
name it is bound to in any loaded hexcount module, so that a call through
`polyfactor.det_exact` or `cli.region_svg` (bound by `from ... import`) is
seen like one through `pathdet.det_exact` or `render.region_svg`.  Spans
nest: a span's self time is its duration minus the durations of the spans it
called, so the self times of all spans plus `cli.self_s` (everything outside
the module spans: argument parsing, route glue, JSON) add up to the traced
wall time.  Counters are computed from arguments and return values only, so
two runs of the same code give identical counters.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# span metric -> (module, functions whose self time it sums)
SPANS = {
    "geometry.region": ("geometry", ("build_hexagon", "remove_axis_defect", "split_halves",
                                     "defect_cells")),
    "geometry.dual_graph": ("geometry", ("dual_graph",)),
    "matchcount.count": ("matchcount", ("count_matchings",)),
    "matchcount.find_tiling": ("matchcount", ("find_tiling",)),
    "pathdet.build": ("pathdet", ("upper_path_matrix", "lower_path_matrix",
                                  "odd_lower_path_matrix", "lower_poly_matrix",
                                  "reduced_poly_matrix", "lower_half_det_count")),
    "pathdet.det": ("pathdet", ("det_exact",)),
    "formulas.closed": ("formulas", ("even_case_count", "odd_case_count", "even_case_product",
                                     "odd_case_product", "upper_half_count", "lower_half_count",
                                     "lower_half_det_closed", "odd_upper_half_count",
                                     "odd_lower_half_count", "asymptotic_proportion")),
    "formulas.box": ("formulas", ("box_count",)),
    "polyfactor.interpolate": ("polyfactor", ("interpolate", "lower_det_polynomial",
                                              "closed_product_polynomial")),
    "polyfactor.roots": ("polyfactor", ("root_multiplicity", "half_integer_factor_report",
                                        "integer_factor_report", "leading_coefficient_check")),
    "hyperid.sums": ("hyperid", ("terminating_sum", "vandermonde_check",
                                 "pfaff_saalschuetz_check", "run_vandermonde_suite",
                                 "run_pfaff_suite")),
    "hyperid.relations": ("hyperid", ("half_root_column_relation", "paired_half_root_vectors",
                                      "integer_root_row_relation", "run_half_root_suite",
                                      "run_integer_root_suite")),
    "render.svg": ("render", ("region_svg",)),
}

FORMULAS = SPANS["formulas.closed"][1] + SPANS["formulas.box"][1]

COUNTERS = (
    "matchcount.count_calls", "matchcount.vertices_swept", "matchcount.dp_calls_per_tiling",
    "geometry.dual_vertices", "geometry.dual_edges",
    "pathdet.det_calls", "pathdet.det_order_max", "pathdet.entry_bits_max",
    "formulas.closed_calls", "formulas.result_bits_max",
    "polyfactor.nodes", "hyperid.tuples_checked", "render.svg_bytes",
)


def _bits(x) -> int:
    """Bit length of an exact rational: the larger of numerator and denominator."""
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counts = defaultdict(int)
        self.stack = []          # [span name, time covered by child spans]
        self.missing = []        # targets the package no longer defines

    def _count(self, fn_name: str, args, result) -> None:
        c = self.counts
        if fn_name == "count_matchings":
            c["matchcount.count_calls"] += 1
            c["matchcount.vertices_swept"] += len(args[0].verts)
            if any(name == "matchcount.find_tiling" for name, _ in self.stack):
                c["find_tiling_dp_calls"] += 1
        elif fn_name == "find_tiling":
            c["find_tiling_calls"] += 1
        elif fn_name == "dual_graph":
            c["geometry.dual_vertices"] += len(result.verts)
            c["geometry.dual_edges"] += len(result.edges)
        elif fn_name == "det_exact":
            rows = getattr(args[0], "rows", args[0])
            c["pathdet.det_calls"] += 1
            c["pathdet.det_order_max"] = max(c["pathdet.det_order_max"], len(rows))
            bits = max((_bits(x) for row in rows for x in row), default=0)
            c["pathdet.entry_bits_max"] = max(c["pathdet.entry_bits_max"], bits)
        elif fn_name in FORMULAS:
            c["formulas.closed_calls"] += 1
            if not isinstance(result, float):
                c["formulas.result_bits_max"] = max(c["formulas.result_bits_max"], _bits(result))
        elif fn_name == "interpolate":
            c["polyfactor.nodes"] += len(args[0])
        elif fn_name.startswith("run_"):
            c["hyperid.tuples_checked"] += result["tuples_checked"]
        elif fn_name == "region_svg":
            c["render.svg_bytes"] += len(result)

    def wrap(self, span: str, fn_name: str, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [span, 0.0]
            self.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self.stack.pop()
                self.self_s[span] += elapsed - frame[1]
                if self.stack:
                    self.stack[-1][1] += elapsed
            self._count(fn_name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self, wall_s: float) -> dict:
        """Per-layer values of one traced pass whose operations took wall_s."""
        out = {f"{span}_s": v for span, v in self.self_s.items()}
        out["cli.self_s"] = wall_s - sum(self.self_s.values())
        out.update({name: self.counts.get(name, 0) for name in COUNTERS})
        tilings = self.counts.get("find_tiling_calls", 0)
        out["matchcount.dp_calls_per_tiling"] = (
            self.counts.get("find_tiling_dp_calls", 0) / tilings if tilings else 0
        )
        return out


def install() -> Tracer:
    """Patch every binding site of every target in the loaded hexcount modules."""
    tracer = Tracer()
    for module, _ in SPANS.values():
        importlib.import_module(f"hexcount.{module}")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "hexcount" or name.startswith("hexcount."))]
    for span, (module, fn_names) in SPANS.items():
        home = sys.modules[f"hexcount.{module}"]
        for fn_name in fn_names:
            fn = getattr(home, fn_name, None)
            if fn is None:
                tracer.missing.append(f"{module}.{fn_name}")
                continue
            traced = tracer.wrap(span, fn_name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, traced)
    return tracer
