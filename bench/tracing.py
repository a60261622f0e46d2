"""Per-layer tracing from outside the library.

The traced run replaces the public functions of each chebspline module with
wrappers that record a span (name, start, end, parent) per call, or only a
call count and time for hot leaves.  A wrapper replaces the function in
every chebspline namespace that holds it, so names imported with
`from ... import` (basis.build_transition_table, refine.solve_space_row,
cli.write_csv, ...) are covered too.  Self time is a call's duration minus
the time its traced children took.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

PERF = time.perf_counter


def _basis_points(args, kwargs) -> int:
    """Points one outermost basis-layer call evaluates: len(xs) for the
    sample_* functions, one for a scalar evaluation or an integral."""
    try:
        return len(args[1])
    except (TypeError, IndexError):
        return 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(float)
        self.depth = defaultdict(int)   # active calls per layer
        self._stack: list[list] = []    # [child time, span index]
        self._patches: list[tuple] = []

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, name: str, layer: str, hot: bool = False,
             enter=None, leave=None):
        """Traced version of fn.  enter(args, kwargs) runs before the call
        and its result is handed to leave(state, result) after it."""
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tr._stack
            parent = stack[-1] if stack else None
            state = enter(args, kwargs) if enter else None
            if hot:
                frame = [0.0, parent[1] if parent else -1]
            else:
                frame = [0.0, len(tr.spans)]
                tr.spans.append([name, 0.0, 0.0, parent[1] if parent else -1])
            stack.append(frame)
            tr.depth[layer] += 1
            t0 = PERF()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = PERF()
                tr.depth[layer] -= 1
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                own = dur - frame[0]
                tr.calls[name] += 1
                tr.self_s[name] += own
                tr.layer_self[layer] += own
                if not hot:
                    span = tr.spans[frame[1]]
                    span[1], span[2] = t0, t1
            if leave:
                leave(state, out)
            return out

        return traced

    def patch_function(self, module, attr: str, name: str, layer: str, **kw):
        """Replace module.attr in every chebspline namespace holding it."""
        original = getattr(module, attr, None)
        if original is None:
            return
        traced = self.wrap(original, name, layer, **kw)
        for modname, mod in list(sys.modules.items()):
            if modname == "chebspline" or modname.startswith("chebspline."):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, layer: str, **kw):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, layer, **kw))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- installation ----------------------------------------------------------
    def install(self):
        import chebspline.basis as basis
        import chebspline.cli as cli
        import chebspline.descriptors as descriptors
        import chebspline.extensions as extensions
        import chebspline.output as output
        import chebspline.partition as partition
        import chebspline.refine as refine
        import chebspline.sections as sections
        import chebspline.transition as transition

        tr = self
        c = self.counts

        # sections: hot leaves
        self.patch_method(sections.ECSection, "eval_all", "sections.eval_all",
                          "sections", hot=True)
        self.patch_method(sections.ECSection, "integral_all",
                          "sections.integral_all", "sections", hot=True)

        # partition
        for attr in ("locate", "grid_interval", "multiplicity_of",
                     "end_multiplicities"):
            self.patch_method(partition.ExtendedPartition, attr,
                              f"partition.{attr}", "partition", hot=True)
        for attr in ("build_extended_partition", "partition_from_knots"):
            self.patch_function(partition, attr, f"partition.{attr}", "partition")

        # transition
        def ramp_done(_, out):
            rep = out[1]
            c["transition.solve_ramp.unknowns"] += rep.size
            c["transition.solve_ramp.max_cond"] = max(
                c["transition.solve_ramp.max_cond"], rep.condition)

        self.patch_function(transition, "solve_ramp", "transition.solve_ramp",
                            "transition", leave=ramp_done)
        self.patch_function(transition, "solve_space_row",
                            "transition.solve_space_row", "transition")

        def build_enter(args, kwargs):
            if tr.depth["refine"]:
                c["refine.full_rebuilds"] += 1

        self.patch_function(transition, "build_transition_table",
                            "transition.build_transition_table", "transition",
                            enter=build_enter)
        self.patch_method(transition.TransitionTable, "eval",
                          "transition.table_eval", "transition", hot=True)
        self.patch_method(transition.TransitionTable, "integral",
                          "transition.table_integral", "transition", hot=True)
        self.patch_function(transition, "detect_vanishing_order",
                            "extensions.detect_vanishing_order", "extensions")

        # basis: points are counted at the outermost basis-layer call
        def points_enter(args, kwargs):
            if not tr.depth["basis"]:
                c["basis.points"] += _basis_points(args, kwargs)

        for attr in ("sample_basis", "sample_spline", "sample_transitions",
                     "eval_spline", "eval_spline_derivative", "eval_bspline",
                     "eval_surface", "integrate_spline", "bernstein_basis"):
            self.patch_function(basis, attr, f"basis.{attr}", "basis",
                                enter=points_enter)
        self.patch_function(basis, "eval_nonzero_basis",
                            "basis.eval_nonzero_basis", "basis", hot=True,
                            enter=points_enter)

        # refine: rows reused by incremental table updates
        def reuse_enter(args, kwargs):
            return tr.calls["transition.solve_space_row"]

        def reuse_leave(before, table):
            solved = tr.calls["transition.solve_space_row"] - before
            c["refine.rows_resolved"] += solved
            c["refine.rows_reused"] += len(table.rows) - solved

        self.patch_function(refine, "_reuse_table", "refine.reuse_table",
                            "refine", enter=reuse_enter, leave=reuse_leave)
        for attr in ("insert_knot", "insert_knot_right", "to_bezier_segments",
                     "elevate_order", "remove_knot", "periodic_to_clamped",
                     "max_deviation", "refine_space_structure",
                     "make_periodic_space"):
            self.patch_function(refine, attr, f"refine.{attr}", "refine")

        # extensions
        for attr in ("build_multiorder_space", "qec_profile",
                     "sample_multiorder_basis", "refine_gc_space",
                     "build_gc_transition_table"):
            self.patch_function(extensions, attr, f"extensions.{attr}",
                                "extensions")
        self.patch_function(extensions, "eval_multiorder_bspline",
                            "extensions.eval_multiorder_bspline", "extensions",
                            hot=True)

        # descriptors and output: bytes of the file named by the first argument
        def bytes_to(counter):
            def leave(args, _):
                try:
                    c[counter] += os.path.getsize(args[0])
                except OSError:
                    pass
            return leave

        def keep_args(args, kwargs):
            return args

        for module, attr, name, counter in (
                (descriptors, "load_object", "descriptors.load", "descriptors.bytes"),
                (descriptors, "save_descriptor", "descriptors.save", "descriptors.bytes"),
                (output, "write_csv", "output.csv", "output.bytes"),
                (output, "write_svg", "output.svg", "output.bytes")):
            self.patch_function(module, attr, name, name.split(".")[0],
                                enter=keep_args, leave=bytes_to(counter))
        for attr in ("svg_function_plot", "svg_curve_plot", "curvature_comb"):
            self.patch_function(output, attr, "output.svg_build", "output")

        # cli: each command's callback
        for cmd in cli.main.commands.values():
            self._patches.append((cmd, "callback", cmd.callback))
            cmd.callback = self.wrap(cmd.callback, "cli.command", "cli")

    # -- results -----------------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        calls, own, c = self.calls, self.self_s, self.counts
        reused = c["refine.rows_reused"]
        resolved = c["refine.rows_resolved"]
        base = reused + resolved
        return {
            "sections.eval_all.calls": (calls["sections.eval_all"], "count"),
            "sections.eval_all.self_s": (own["sections.eval_all"], "s"),
            "sections.integral_all.calls": (calls["sections.integral_all"], "count"),
            "sections.integral_all.self_s": (own["sections.integral_all"], "s"),
            "partition.locate.calls": (calls["partition.locate"], "count"),
            "partition.grid_interval.calls": (calls["partition.grid_interval"], "count"),
            "partition.self_s": (self.layer_self["partition"], "s"),
            "transition.solve_ramp.calls": (calls["transition.solve_ramp"], "count"),
            "transition.solve_ramp.self_s": (own["transition.solve_ramp"], "s"),
            "transition.solve_ramp.unknowns": (c["transition.solve_ramp.unknowns"], "count"),
            "transition.solve_ramp.max_cond": (c["transition.solve_ramp.max_cond"], "ratio"),
            "transition.build_transition_table.calls":
                (calls["transition.build_transition_table"], "count"),
            "transition.build_transition_table.self_s":
                (own["transition.build_transition_table"], "s"),
            "transition.table_eval.calls": (calls["transition.table_eval"], "count"),
            "transition.table_eval.self_s": (own["transition.table_eval"], "s"),
            "basis.points": (c["basis.points"], "count"),
            "basis.eval_nonzero_basis.calls": (calls["basis.eval_nonzero_basis"], "count"),
            "basis.self_s": (self.layer_self["basis"], "s"),
            "refine.rows_resolved": (resolved, "count"),
            "refine.rows_reused": (reused, "count"),
            "refine.reuse_ratio": (reused / base if base else 0.0, "ratio"),
            "refine.reuse_base": (base, "count"),
            "refine.full_rebuilds": (c["refine.full_rebuilds"], "count"),
            "refine.remove_knot.calls": (calls["refine.remove_knot"], "count"),
            "refine.max_deviation.self_s": (own["refine.max_deviation"], "s"),
            "refine.self_s": (self.layer_self["refine"], "s"),
            "extensions.build_multiorder_space.self_s":
                (own["extensions.build_multiorder_space"], "s"),
            "extensions.qec_profile.self_s": (own["extensions.qec_profile"], "s"),
            "extensions.detect_vanishing_order.calls":
                (calls["extensions.detect_vanishing_order"], "count"),
            "descriptors.load.self_s": (own["descriptors.load"], "s"),
            "descriptors.save.self_s": (own["descriptors.save"], "s"),
            "descriptors.bytes": (c["descriptors.bytes"], "bytes"),
            "output.csv.self_s": (own["output.csv"], "s"),
            "output.svg.self_s": (own["output.svg"] + own["output.svg_build"], "s"),
            "output.bytes": (c["output.bytes"], "bytes"),
            "cli.command_self_s": (own["cli.command"], "s"),
        }
