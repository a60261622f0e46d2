"""The four workloads: sample (read path), build (construction path),
refine (write path) and cli (the user's path).

Each workload turns a seed into a fixed list of operations.  An operation is
one user-level call of a stated size; its check compares the result with an
independent oracle and returns the worst forward error, or raises
CheckFailed.  The schedule of kinds and sizes is the same for every seed;
the seed draws the break points, families, parameters and coefficients.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import gen
import oracles as O
from chebspline import basis as B
from chebspline import descriptors as D
from chebspline import extensions as X
from chebspline import refine as R
from chebspline.errors import ChebsplineError
from chebspline.partition import build_extended_partition


@dataclass
class Op:
    kind: str
    size: str
    run: Callable[[], Any]
    check: Callable[[Any], float]
    ramps: int = 0              # transition rows the op is expected to solve
    may_fail: bool = False      # a known library failure (refine's elevations)
    rss_kb: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# sample: evaluation on prebuilt tables
# ---------------------------------------------------------------------------

SAMPLE_K = (10, 100, 1000)
SAMPLE_ORDER = {10: 5, 100: 3, 1000: 4}
CLOSED_CASE = {10: "C", 100: "B", 1000: "A"}
BASIS_POINTS = {10: (100, 1000, 3000), 100: (100, 1000, 10000),
                1000: (100, 1000, 3000)}
TRANSITION_POINTS = {10: 1000, 100: 300, 1000: 30}
INTEGRALS = {10: 20, 100: 5, 1000: 1}
MULTIORDER = ((4, 300), (12, 150), (40, 60))   # (sections, points)


def _grid(space, n: int) -> np.ndarray:
    return np.linspace(space.a, space.b, n)


def _basis_op(space, n: int, label: str, oracle=None, rows: int = 0, rng=None) -> Op:
    xs = _grid(space, n)

    def check(vals):
        err = O.partition_of_unity(vals)
        if oracle is not None:
            err = max(err, oracle(xs, vals))
        for i in O.sample_rows(space, rows, rng) if rows else ():
            err = max(err, O.mp_row_error(space, i))
        return err

    return Op("basis", f"{label} n={n}", lambda: B.sample_basis(space, xs), check)


def _curve(spline, xs):
    """Values plus first and second derivatives, as the --comb path does."""
    last = xs[-1]
    vals = B.sample_spline(spline, xs)
    d1 = np.array([B.eval_spline_derivative(spline, 1, float(x),
                                            "left" if x == last else "right")
                   for x in xs])
    d2 = np.array([B.eval_spline_derivative(spline, 2, float(x),
                                            "left" if x == last else "right")
                   for x in xs])
    return vals, d1, d2


def _curve_op(spline, n: int, label: str) -> Op:
    xs = _grid(spline.space, n)
    part = spline.space.partition
    poly = all(s.family == "polynomial" for s in spline.space.sections)

    def check(res):
        vals, d1, d2 = res
        ref = O.cox_de_boor(part.knots, part.order, xs) @ spline.coefficients \
            if poly else B.sample_basis(spline.space, xs) @ spline.coefficients
        err = O.match(vals, ref, 1e-10, "curve values")
        if poly:
            for r, got in ((1, d1), (2, d2)):
                want = O.poly_spline_values(part.knots, part.order,
                                            spline.coefficients, xs, r)
                scale = max(1.0, float(np.abs(want).max()))
                err = max(err, O.match(got / scale, want / scale, 1e-10,
                                       f"derivative {r}"))
        else:
            O.finite_max(d1), O.finite_max(d2)
        return err

    return Op("curve", f"{label} n={n}", lambda: _curve(spline, xs), check)


def _transitions_op(space, n: int, label: str) -> Op:
    xs = _grid(space, n)

    def check(vals):
        basis = B.sample_basis(space, xs)
        # N_i = f_i - f_{i+1} with f_1 = 1 and f_{dim+1} = 0
        f = np.hstack([np.ones((n, 1)), vals, np.zeros((n, 1))])
        return O.match(f[:, :-1] - f[:, 1:], basis, 1e-12, "transition differences")

    return Op("transitions", f"{label} n={n}",
              lambda: B.sample_transitions(space, xs), check)


def _gauss_integral(spline, lo: float, hi: float, nodes: int) -> np.ndarray:
    """Gauss-Legendre quadrature of the spline, one rule per grid interval."""
    g, w = np.polynomial.legendre.leggauss(nodes)
    grid = spline.space.partition.grid
    cuts = np.unique(np.concatenate([[lo, hi], grid[(grid > lo) & (grid < hi)]]))
    total = np.zeros(spline.dim_target)
    for a, b in zip(cuts[:-1], cuts[1:]):
        xs = 0.5 * (b - a) * g + 0.5 * (a + b)
        total += 0.5 * (b - a) * (w @ O.spline_samples(spline, xs))
    return total


# Tolerance of integrate_spline against quadrature, relative to the largest
# coefficient times the interval length.  Twelve Gauss-Legendre nodes per
# grid interval are exact on polynomial sections; the closed forms (case C,
# tension up to 10) need 24 to reach 1e-16.  On mixed shift-map spaces the
# library's antiderivatives lose precision with the table's condition
# (ROADMAP item 3): over seeds 0 to 7 the error reached 11 * max_condition
# * eps, so those are held to INTEGRAL_COND_C times it.
INTEGRAL_TOL = 1e-12
INTEGRAL_COND_C = 1e3


def _integrate_op(spline, count: int, rng, label: str, exact: bool,
                  nodes: int = 12) -> Op:
    bounds = np.sort(rng.uniform(spline.space.a, spline.space.b, (count, 2)), axis=1)

    def run():
        return np.array([B.integrate_spline(spline, float(a), float(b))
                         for a, b in bounds])

    def check(res):
        tol = INTEGRAL_TOL if exact else \
            INTEGRAL_COND_C * spline.space.table.max_condition * O.EPS
        err = 0.0
        for k in range(0, count, max(1, count // 4)):
            a, b = bounds[k]
            scale = float(np.abs(spline.coefficients).max()) * (b - a)
            want = _gauss_integral(spline, float(a), float(b), nodes)
            err = max(err, O.match(res[k] / scale, want / scale, tol, "integral"))
        return err

    return Op("integrate", f"{label} intervals={count}", run, check)


def _surface_op(surface, g: int, label: str) -> Op:
    us = _grid(surface.u_space, g)
    vs = _grid(surface.v_space, g)

    def run():
        return np.array([[B.eval_surface(surface, float(u), float(v)) for v in vs]
                         for u in us])

    def check(res):
        nu = B.sample_basis(surface.u_space, us)
        nv = B.sample_basis(surface.v_space, vs)
        want = np.einsum("ui,vj,ijd->uvd", nu, nv, surface.net)
        return O.match(res, want, 1e-10, "surface")

    return Op("surface", f"{label} grid={g}x{g}", run, check)


def _multiorder_op(mo, n: int, label: str) -> Op:
    xs = np.linspace(mo.a, mo.b, n)
    return Op("multiorder", f"{label} n={n}",
              lambda: X.sample_multiorder_basis(mo, xs), O.partition_of_unity)


def sample_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    v_space = gen.mixed_space(rng, 10, 4)
    v_space.table
    ops = []
    for K in SAMPLE_K:
        mixed = gen.mixed_space(rng, K, SAMPLE_ORDER[K])
        poly = gen.poly_space(rng, K, 4)
        case = CLOSED_CASE[K]
        # closed forms on at most 100 knots: a larger table only lengthens set-up
        closed, knots, param = gen.closed_space(rng, case, min(K, 100))
        for space in (mixed, poly, closed):
            space.table
        tag = f"K={K}"

        def poly_oracle(xs, vals, part=poly.partition):
            return O.match(vals, O.cox_de_boor(part.knots, part.order, xs),
                           1e-10, "Cox-de Boor")

        def closed_oracle(xs, vals, case=case, knots=knots, param=param,
                          space=closed):
            inner = xs < space.b
            want = O.closed_form_matrix(case, knots, param, xs[inner], space.dim)
            return O.match(vals[inner], want, 1e-10, f"closed form {case}")

        n_small, n_mid, n_big = BASIS_POINTS[K]
        ops += [_basis_op(mixed, n_small, f"mixed m={SAMPLE_ORDER[K]} {tag}",
                          rows=8, rng=rng),
                _basis_op(mixed, 3 * n_small, f"mixed {tag}"),
                _basis_op(mixed, n_mid, f"mixed {tag}"),
                _basis_op(mixed, n_big, f"mixed {tag}"),
                _basis_op(poly, 1000, f"polynomial {tag}", poly_oracle, rows=2),
                _basis_op(closed, 300, f"closed {case} K={closed.partition.K}",
                          closed_oracle, rows=2)]
        spline = gen.spline_on(rng, mixed)
        poly_spline = gen.spline_on(rng, poly)
        closed_spline = gen.spline_on(rng, closed)
        ops += [_curve_op(spline, 100, f"mixed {tag}"),
                _curve_op(spline, 300, f"mixed {tag}"),
                _curve_op(poly_spline, 300, f"polynomial {tag}"),
                _transitions_op(mixed, TRANSITION_POINTS[K], f"mixed {tag}"),
                _integrate_op(spline, INTEGRALS[K], rng, f"mixed {tag}", False),
                _integrate_op(poly_spline, INTEGRALS[K], rng, f"polynomial {tag}",
                              True),
                _integrate_op(closed_spline, INTEGRALS[K], rng,
                              f"closed {case} K={closed.partition.K}", True, 24)]
        surface = B.TensorSurface(mixed, v_space,
                                  rng.uniform(-1, 1, (mixed.dim, v_space.dim, 3)))
        ops += [_surface_op(surface, 10, f"u {tag}"), _surface_op(surface, 30, f"u {tag}")]
    for nsec, n in MULTIORDER:
        ops.append(_multiorder_op(gen.multiorder_space(rng, nsec), n,
                                  f"sections={nsec}"))
    return ops


# ---------------------------------------------------------------------------
# build: fresh spaces, whole tables
# ---------------------------------------------------------------------------

BUILD_K = (10, 18, 32, 56, 100, 178, 316)
BUILD_HEAVY_K = (562, 1000)
QEC_K = (5, 10, 20, 5, 10, 20, 40)
# one single-family space per family, at the lowest order it allows
FAMILY_ORDERS = (("polynomial", 3), ("trigonometric", 3), ("hyperbolic", 3),
                 ("variable-degree", 3), ("rational-tension", 4), ("mixed", 5),
                 ("trig-envelope", 5), ("multi-frequency-trig", 5))
FAMILY_K = 32


def _table_check(rows: int = 2):
    def check(space):
        xs = np.linspace(space.a, space.b, 41)
        err = O.partition_of_unity(B.sample_basis(space, xs))
        for i in O.sample_rows(space, rows):
            err = max(err, O.mp_row_error(space, i))
        return err
    return check


def _build_op(template, label: str) -> Op:
    part, secs = template.partition, template.sections
    # by location: an integer grid index that is also a grid value would be
    # read as a location (ROADMAP item 3)
    conns = [(float(part.grid[g]), M) for g, M in template.connections.items()] or None

    def run():
        space = B.make_spline_space(part, secs, conns)
        space.table
        return space

    # more extended-precision rows on larger tables keep the worst error,
    # and so fwd_err_log10, steadier from seed to seed
    rows = 6 if template.partition.K >= 100 else 2
    return Op("build", label, run, _table_check(rows), ramps=gen.ramp_rows(template))


def _multiorder_build_op(rng, nsec: int) -> Op:
    mo = gen.multiorder_space(rng, nsec)
    secs, conts = mo.sections, mo.continuities

    def check(res):
        return O.partition_of_unity(
            X.sample_multiorder_basis(res, np.linspace(res.a, res.b, 41)))

    return Op("multiorder", f"sections={nsec}",
              lambda: X.build_multiorder_space(secs, conts), check,
              ramps=gen.multiorder_ramp_rows(mo))


def _qec_op(rng, K: int) -> Op:
    template = gen.mixed_space(rng, K, 4, ("variable-degree", "polynomial"),
                               integer_powers=True)
    part, secs = template.partition, template.sections
    m = part.order

    def run():
        space = B.make_spline_space(part, secs)
        return space, X.qec_profile(space.table)

    def check(res):
        space, prof = res
        # detected orders never fall below the multiplicity-determined ones
        for i, k in prof.kbar_right.items():
            O.require(k >= m - part.end_multiplicities(i)[1] - 1,
                      f"f_{i}: right vanishing order {k} too low")
        for i, k in prof.kbar_left.items():
            O.require(k >= m - part.end_multiplicities(i + m - 1)[0] - 1,
                      f"f_{i}: left vanishing order {k} too low")
        return _table_check(rows=1)(space)

    return Op("qec", f"variable-degree K={K}", run, check,
              ramps=gen.ramp_rows(template))


def build_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for j, K in enumerate(BUILD_K):
        m = 3 + j % 3
        ops.append(_build_op(gen.mixed_space(rng, K, m, zero_mult=True),
                             f"mixed m={m} K={K}"))
        m2 = 3 + (j + 1) % 3
        ops.append(_build_op(gen.mixed_space(rng, K, m2, connections=True),
                             f"connections m={m2} K={K}"))
        ops.append(_multiorder_build_op(rng, max(3, K // 3)))
    for fam, m in FAMILY_ORDERS:
        ops.append(_build_op(gen.mixed_space(rng, FAMILY_K, m, (fam,)),
                             f"{fam} m={m} K={FAMILY_K}"))
    ops += [_qec_op(rng, K) for K in QEC_K]
    for K in BUILD_HEAVY_K:
        ops.append(_build_op(gen.mixed_space(rng, K, 4, zero_mult=True),
                             f"mixed m=4 K={K}"))
        ops.append(_build_op(gen.mixed_space(rng, K, 4, connections=True),
                             f"connections m=4 K={K}"))
    return ops


# ---------------------------------------------------------------------------
# refine: insertion, extraction, elevation, removal, clamping
# ---------------------------------------------------------------------------

ALL_FAMILIES = ("polynomial", "trigonometric", "hyperbolic", "variable-degree")
# (class, families, break points, elevation amounts); the first spline of
# each class and size also gets the cheap operations.  Trigonometric and
# hyperbolic splines appear twice, so that their known elevation failures
# average over more draws.  The all-family spline with 20 break points is
# elevated by r = 1 only: it fails nearly always, and how long r = 2 runs
# before failing would dominate the seed-to-seed spread of ops_per_s.
REFINE_SPLINES = (
    ("polynomial", ("polynomial",), 10, (1, 2)),
    ("trigonometric", ("trigonometric",), 10, (1, 2)),
    ("hyperbolic", ("hyperbolic",), 10, (1, 2)),
    ("variable-degree", ("variable-degree",), 10, (1, 2)),
    ("all", ALL_FAMILIES, 10, (1, 2)),
    ("all", ALL_FAMILIES, 20, (1,)),
    ("all", ALL_FAMILIES, 5, (1, 2)),
    ("trigonometric", ("trigonometric",), 10, (1, 2)),
    ("hyperbolic", ("hyperbolic",), 10, (1, 2)),
    ("all", ALL_FAMILIES, 5, (1, 2)),
)


# periodic splines to clamp; their cost is close to a removal's, and the
# two groups together hold the median of the per-operation times
PERIODIC_Q = (6, 7, 8, 9, 10, 11, 12, 13)


def _refine_spline(rng, q: int, families, m: int = 4):
    bp = gen.random_breakpoints(rng, q)
    secs = gen.make_sections(rng, bp, m, families, integer_powers=True)
    part = build_extended_partition(bp, [1] * q, m)
    space = B.make_spline_space(part, secs)
    space.table
    return gen.spline_on(rng, space)


def _raise(exc):
    raise exc


def _dev_check(s_in, out_spline_of, expect=None):
    def check(res):
        out = out_spline_of(res)
        if expect is not None:
            expect(out)
        return O.deviation(s_in, out)
    return check


def refine_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    seen = set()
    for name, fams, q, amounts in REFINE_SPLINES:
        s = _refine_spline(rng, q, fams)
        part = s.space.partition
        m = part.order
        label = f"{name} q={q}"
        for r in amounts:
            def raised(out, r=r, m=m):
                O.require(out.space.order == m + r, "order not raised")
            ops.append(Op(f"elevate-r{r}", label,
                          lambda s=s, r=r: R.elevate_order(s.space, s, r),
                          _dev_check(s, lambda res: res[1], raised), may_fail=True))
        if label in seen:
            continue
        seen.add(label)
        x_new = float(rng.uniform(part.a, part.b))
        x_old = float(part.grid[1 + int(rng.integers(q))])
        dim = s.space.dim

        def grew(out, dim=dim):
            O.require(out.space.dim == dim + 1, "insertion did not add one function")

        ops += [
            Op("insert", label, lambda s=s, x=x_new: R.insert_knot(s.space, s, x),
               _dev_check(s, lambda r: r[1], grew)),
            Op("insert-repeated", label,
               lambda s=s, x=x_old: R.insert_knot(s.space, s, x),
               _dev_check(s, lambda r: r[1], grew)),
            Op("insert-right", label,
               lambda s=s, x=x_new: R.insert_knot_right(s.space, s, x),
               _dev_check(s, lambda r: r[1], grew)),
            Op("bezier", label, lambda s=s: R.to_bezier_segments(s.space, s),
               _dev_check(s, lambda r: r.spline)),
        ]
        # removal of a knot the spline does not need: insert it first
        try:
            fine = R.insert_knot(s.space, s, x_new)[1]
        except ChebsplineError as e:
            # the insertion op fails the same way; so does its removal
            ops.append(Op("remove", label, lambda e=e: _raise(e), None))
            continue
        fine.space.table
        ops.append(Op("remove", label,
                      lambda f=fine, x=x_new: R.remove_knot(f.space, f, x),
                      _dev_check(fine, lambda res: res[1])))
    for q in PERIODIC_Q:
        p = gen.periodic_spline(rng, q, 4, ("polynomial", "trigonometric"))
        p.space.table

        def clamped(out):
            part = out.space.partition
            O.require(part.multiplicity_of(part.a) == part.order
                      and part.multiplicity_of(part.b) == part.order,
                      "ends not clamped")

        ops.append(Op("clamp", f"periodic q={q}",
                      lambda p=p: R.periodic_to_clamped(p.space, p),
                      _dev_check(p, lambda res: res[1], clamped)))
    return ops


# ---------------------------------------------------------------------------
# cli: chebspline commands as child processes
# ---------------------------------------------------------------------------

def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, cwd: str) -> tuple[int, str, int]:
    """(exit code, output, peak RSS in kB) of one child process."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env, cwd=cwd)
    try:
        out = proc.stdout.read().decode("utf-8", "replace")
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class CliContext:
    """Where the cli workload reads descriptors and writes artifacts."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.demo = os.path.join(root, "demos", "descriptors")
        self.env = child_env(os.path.join(root, "src"))
        self.in_process = False

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def desc(self, name: str) -> str:
        return os.path.join(self.demo, name)


def _invoke(ctx: CliContext, args: list[str], op: Op):
    if ctx.in_process:
        import contextlib
        import io

        from chebspline import cli
        sink = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main.main(args, standalone_mode=False)
            except SystemExit as e:
                code = e.code or 0
        return code, sink.getvalue()
    code, out, rss = run_child([sys.executable, "-m", "chebspline.cli"] + args,
                               ctx.env, ctx.root)
    op.rss_kb.append(rss)
    return code, out


def _cli_op(ctx: CliContext, kind: str, args: list[str], check) -> Op:
    op = Op(kind, " ".join(a if not os.path.isabs(a) else os.path.basename(a)
                           for a in args), None, None)

    def run():
        return _invoke(ctx, args, op)

    def checked(res):
        code, out = res
        if code not in (0, 2, 3):
            # 2 and 3 are the CLI's reported failures; anything else crashed
            raise RuntimeError(f"exit code {code}: {out.strip()[-300:]}")
        O.require(code == 0, f"exit code {code}: {out.strip()[-300:]}")
        return check()

    op.run, op.check = run, checked
    return op


def _basis_artifact_check(ctx, descriptor: str, csv_stem: str, samples: int):
    """Basis CSV against in-process evaluation; for committed single-order
    spaces also the transition CSV against the mpmath rows (the committed
    descriptors are the same for every seed, so fwd_err_log10 is too)."""
    def check():
        obj = D.load_object(descriptor)
        _, vals = O.read_csv(ctx.path(csv_stem + ".csv"))
        _, trans = O.read_csv(ctx.path(csv_stem + ".transitions.csv"))
        xs = vals[:, 0]
        err = O.partition_of_unity(vals[:, 1:])
        space = obj.space if isinstance(obj, B.Spline) else obj
        if isinstance(space, B.SplineSpace):
            err = max(err, O.match(vals[:, 1:], B.sample_basis(space, xs), 1e-12,
                                   "basis csv"))
            if os.path.dirname(descriptor) == ctx.demo:
                picks = xs[np.linspace(0, len(xs) - 1, 9).astype(int)]
                row_of = {float(x): k for k, x in enumerate(xs)}
                for i in range(2, space.dim + 1):
                    err = max(err, O.mp_row_error(
                        space, i, picks, lambda x, i: trans[row_of[x], i - 1]))
        else:
            err = max(err, O.match(vals[:, 1:], X.sample_multiorder_basis(space, xs),
                                   1e-12, "multi-order basis csv"))
        return err
    return check


def _svg_check(ctx, name: str, minimum: int = 1):
    def check():
        O.require(O.read_svg(ctx.path(name)) >= minimum, f"{name}: too few curves")
        return 0.0
    return check


def _eval_csv_check(ctx, descriptor: str, name: str, samples: int):
    def check():
        spline = D.load_object(descriptor)
        _, data = O.read_csv(ctx.path(name))
        xs = np.linspace(spline.space.a, spline.space.b, samples)
        want = B.sample_spline(spline, xs)
        got = data[:, 1:] if spline.dim_target == 1 else data
        return O.match(got, want, 1e-12, "eval csv")
    return check


def _refined_check(ctx, descriptor: str, name: str, expect=None):
    def check():
        s_in = D.load_object(descriptor)
        s_out = D.load_object(ctx.path(name))
        if expect is not None:
            expect(s_in, s_out)
        return O.deviation(s_in, s_out)
    return check


def _surface_csv_check(ctx, descriptor: str, name: str, samples: int):
    def check():
        surf = D.load_object(descriptor)
        _, data = O.read_csv(ctx.path(name))
        O.require(data.shape[0] == samples * samples, "surface csv rows")
        picks = np.linspace(0, len(data) - 1, 25).astype(int)
        want = np.array([B.eval_surface(surf, data[k, 0], data[k, 1]) for k in picks])
        return O.match(data[picks, 2:], want, 1e-12, "surface csv")
    return check


def _kref_check(ctx, stem: str):
    def check():
        err = 0.0
        for tag in ("hp_inserted", "hp_elevated", "k_elevated", "k_inserted"):
            _, vals = O.read_csv(ctx.path(f"{stem}_{tag}.csv"))
            err = max(err, O.partition_of_unity(vals[:, 1:]))
        return err
    return check


def cli_ops(seed: int, ctx: CliContext) -> list[Op]:
    rng = np.random.default_rng(seed)
    generated = {}
    for j in range(4):
        generated[f"space{j}.json"] = gen.mixed_space(rng, 6 + 2 * j, 3 + j % 3,
                                                      integer_powers=True)
    for j in range(2):
        generated[f"spline{j}.json"] = gen.spline_on(
            rng, gen.mixed_space(rng, 8, 4, integer_powers=True))
        generated[f"periodic{j}.json"] = gen.periodic_spline(
            rng, 6 + 2 * j, 4, ("polynomial", "trigonometric"))
    generated["poly.json"] = gen.spline_on(rng, gen.poly_space(rng, 6, 3))
    generated["multiorder.json"] = gen.multiorder_space(rng, 6)
    for name, obj in generated.items():
        D.save_descriptor(ctx.path(name), obj)
    ats = [float(x) for x in rng.uniform(0.05, 0.95, 5)]
    p, d = ctx.path, ctx.desc
    curve_m4, curve_m3 = d("trig_m4_open_curve.json"), d("trig_m3_open_curve.json")
    surf = d("rounded_square_surface.json")
    ops = []

    def cmd(kind, args, check):
        ops.append(_cli_op(ctx, kind, args, check))

    def grew(count):
        def expect(s_in, s_out):
            O.require(s_out.space.dim == s_in.space.dim + count, "dimension")
        return expect

    def raised(r):
        def expect(s_in, s_out):
            O.require(s_out.space.order == s_in.space.order + r, "order")
        return expect

    for j, src in enumerate((d("poly_trig_hyperbolic_m3.json"), d("trig_element_m3.json"),
                             d("qec_envelope_vardeg_n5.json"),
                             d("qec_envelope_vardeg_n10.json"),
                             p("space0.json"), p("space1.json"), p("space2.json"),
                             d("multiorder_line_circle_cardioid.json"),
                             p("multiorder.json"))):
        cmd("basis", ["basis", "--input", src, "--output", p(f"b{j}.csv"),
                      "--samples", "300"],
            _basis_artifact_check(ctx, src, f"b{j}", 300))
    for j, src in enumerate((d("mixed_trig_hyperbolic_basis.json"),
                             d("qec_envelope_vardeg_n50.json"), p("space3.json"))):
        cmd("basis", ["basis", "--input", src, "--output", p(f"bs{j}.svg"),
                      "--format", "svg", "--samples", "300"],
            _svg_check(ctx, f"bs{j}.svg"))
    for j, src in enumerate((curve_m4, curve_m3, d("tension_zero_mult_curve.json"),
                             d("gc_trig_poly_curve_beta0.json"), p("spline0.json"),
                             p("spline1.json"))):
        cmd("eval", ["eval", "--input", src, "--output", p(f"e{j}.csv"),
                     "--samples", "500"],
            _eval_csv_check(ctx, src, f"e{j}.csv", 500))
    for j, src in enumerate((d("tension_closed_curve.json"),
                             d("gc_trig_poly_curve_beta14.json"),
                             d("gc_trig_poly_curve_betam7.json"), p("spline0.json"))):
        cmd("eval", ["eval", "--input", src, "--output", p(f"es{j}.svg"),
                     "--format", "svg", "--comb", "--samples", "400"],
            _svg_check(ctx, f"es{j}.svg", 2))
    for j, (src, at) in enumerate(((curve_m4, ats[:2]), (curve_m3, ats[2:3]),
                                   (p("spline1.json"), ats[3:5]))):
        cmd("insert", ["insert", "--input", src, "--output", p(f"i{j}.json")]
            + [a for x in at for a in ("--at", repr(x))],
            _refined_check(ctx, src, f"i{j}.json", grew(len(at))))
    for j, (src, r) in enumerate(((curve_m3, 1), (curve_m3, 2), (p("poly.json"), 1),
                                  (p("poly.json"), 2))):
        cmd("elevate", ["elevate", "--input", src, "--output", p(f"v{j}.json"),
                        "--r", str(r)],
            _refined_check(ctx, src, f"v{j}.json", raised(r)))
    for j, src in enumerate((curve_m4, p("spline0.json"), p("spline1.json"))):
        cmd("bezier", ["bezier", "--input", src, "--output", p(f"z{j}.json")],
            _refined_check(ctx, src, f"z{j}.json"))
    for j, src in enumerate((d("tension_closed_curve.json"), p("periodic0.json"),
                             p("periodic1.json"))):
        cmd("clamp", ["clamp", "--input", src, "--output", p(f"c{j}.json")],
            _refined_check(ctx, src, f"c{j}.json"))
    for j, (fmt, samples) in enumerate((("csv", 30), ("svg", 30), ("csv", 20))):
        name = f"s{j}.{fmt}"
        check = (_surface_csv_check(ctx, surf, name, samples) if fmt == "csv"
                 else _svg_check(ctx, name, 18))
        cmd("surface", ["surface", "--input", surf, "--output", p(name),
                        "--format", fmt, "--samples", str(samples)], check)
    cmd("kref-demo", ["kref-demo", "--output", p("k"), "--samples", "200"],
        _kref_check(ctx, "k"))
    cmd("kref-demo", ["kref-demo", "--output", p("ks"), "--samples", "200",
                      "--format", "svg"], _svg_check(ctx, "ks_k_inserted.svg"))
    return ops


WORKLOADS = {"sample": sample_ops, "build": build_ops, "refine": refine_ops,
             "cli": cli_ops}
