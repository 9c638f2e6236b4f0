"""The four benchmark workloads, untraced and traced.

Every workload is a closed loop: one caller in one process, each
operation starting when the previous one ends.  It passes the library
only what a user states — points, charges, the paper's
``AdaptiveChargeDegree(p0=4, alpha=0.5)`` policy and the engine — and
leaves every other knob at its default, so a change of default shows.

A run spreads over many input draws, so that its medians do not hang
on one draw: the cube workloads run ``ROUNDS`` rounds, each drawing a
fresh input, setting the engine up on it (one ``setup_s`` sample) and
running operations for its share of ``--seconds``; the BEM and n-body
workloads set up afresh for every operation.

An operation fails when it raises, returns non-finite values, misses
the workload's ``rel_err`` ceiling against the exact oracle, or (BEM)
GMRES does not converge.  The traced run calls the layers' public
functions one by one inside spans and must reproduce the untraced
output bitwise.
"""

from __future__ import annotations

import inspect
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from host import median_seconds, ref_gradient, ref_potential
from repro import AdaptiveChargeDegree, LeapfrogIntegrator, SimulationState, Treecode
from repro.bem.geometries import propeller
from repro.bem.gmres import gmres
from repro.bem.operator import SingleLayerOperator
from repro.direct import direct_gradient, direct_potential
from repro.fmm import UniformFMM
from repro.perf.scatter import scatter_add
from repro.tree import build_octree
from repro.tree.dualtree import dual_traverse

#: Problem sizes.  ``full`` is what the benchmark measures; ``smoke``
#: runs the same code paths in seconds, for the self-checks.
SCALES = {
    "full": {"cube-5k": 5000, "fmm-cube": 8000, "bem-propeller": 10, "nbody-plummer": 400},
    "smoke": {"cube-5k": 600, "fmm-cube": 600, "bem-propeller": 4, "nbody-plummer": 200},
}

#: Per-workload ``rel_err`` ceiling; an operation above it counts as
#: failed.  About 10x the median measured at the full scale, except
#: nbody-plummer: the library softens only the near field, so a far
#: cluster accepted a few softening lengths from a target gets the
#: unsoftened kernel, and single force evaluations reached 1.1e-2 and
#: 1.7e-1 on unlucky draws.  That ceiling flags gross breakage only;
#: the defect stays visible in ``rel_err``.
REL_ERR_CEILING = {
    "cube-5k": 2e-3,
    "fmm-cube": 1e-3,
    "bem-propeller": 2e-4,
    "nbody-plummer": 0.5,
}

#: Targets sampled for the exact oracle.
SAMPLE = 512
#: Rounds per run, each on its own input; ``setup_s`` is their median.
#: The error of one input draw varies by tens of percent, so cheap
#: set-ups get many rounds; the FMM set-up costs seconds and its
#: uniform grid varies little between draws.
ROUNDS = {"cube-5k": 9, "fmm-cube": 3}
#: GMRES settings of the paper's Table 3: restart 10, tol 1e-6.
GMRES_RESTART, GMRES_TOL = 10, 1e-6
#: n-body step and Plummer softening.
NBODY_DT, NBODY_SOFTENING = 1e-3, 1e-3


def _policy():
    return AdaptiveChargeDegree(p0=4, alpha=0.5)


def _defaults(fn) -> dict:
    return {
        k: p.default
        for k, p in inspect.signature(fn).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


#: The tree a bare ``Treecode(points, charges)`` builds; the traced run
#: builds it through ``build_octree`` with the same arguments.
_TC = _defaults(Treecode.__init__)


def _tree_kwargs(leaf_size=None) -> dict:
    return {
        "leaf_size": _TC["leaf_size"] if leaf_size is None else leaf_size,
        "expansion_center": _TC["expansion_center"],
        "max_depth": _TC["max_depth"],
    }


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b))


def _bitwise(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _span_s(sp) -> float:
    return sp["end"] - sp["start"]


@dataclass
class Run:
    """Everything one run measured."""

    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    rel_err: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: traced run only: every traced output equalled the untraced one
    bitwise: bool | None = None
    traced_op_s: list = field(default_factory=list)
    #: traced run only: stats of the last untraced operation
    stats: object = None
    #: the last operation's final state (n-body), for the direct base
    last: object = None
    layers: dict = field(default_factory=dict)
    #: base of ``speedup_vs_direct``
    direct: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: problems of the operation in progress; any one fails it
    problems: list = field(default_factory=list)

    def check(self, ok: bool, why: str) -> None:
        if not ok:
            self.problems.append(why)

    def same(self, a, b, what: str) -> None:
        ok = _bitwise(a, b)
        self.bitwise = ok if self.bitwise is None else (self.bitwise and ok)
        if not ok:
            self.errors.append(f"traced {what} differs from untraced")

    def gate(self, name: str, err: float, *outputs) -> None:
        """Record an operation's ``rel_err`` and check its outputs."""
        self.rel_err.append(err)
        finite = all(np.all(np.isfinite(o)) for o in outputs)
        self.check(finite, "non-finite output")
        if finite:
            self.check(err <= REL_ERR_CEILING[name], f"rel_err {err:.3g} above ceiling")

    def loop(self, seconds: float, op) -> None:
        """Call ``op(k)`` until ``seconds`` have passed, at least once;
        an exception fails the operation, it does not end the run."""
        end = time.perf_counter() + seconds
        k = 0
        while k == 0 or time.perf_counter() < end:
            self.attempted += 1
            self.problems = []
            timed = len(self.op_s)
            t0 = time.perf_counter()
            try:
                op(k)
            except Exception as exc:  # a failed operation is a result
                if len(self.op_s) == timed:
                    self.op_s.append(time.perf_counter() - t0)
                self.check(False, f"{type(exc).__name__}: {exc}")
            if self.problems:
                self.failed += 1
                self.errors.extend(f"op {k}: {p}" for p in self.problems)
            k += 1


def _traced_execute(plan, q, tr):
    """``plan.execute(q).potential`` through the plan's public stages,
    merging unit outputs with ``scatter_add`` in unit order (a plain
    fancy-index ``+=`` would drop duplicate target rows)."""
    with tr.span("perf.sort"):
        qs = plan.sort_charges(q)
    with tr.span("perf.p2m"):
        ctx = plan.form_coefficients(qs)
    phi = np.zeros(plan.n_targets)
    n_far = plan.n_units - plan.n_near_precomputed - plan.n_near_spilled
    with tr.span("perf.far"):
        for i in range(n_far):
            scatter_add(phi, *plan.execute_unit(ctx, qs, i))
    with tr.span("perf.near"):
        for i in range(n_far, plan.n_units):
            scatter_add(phi, *plan.execute_unit(ctx, qs, i))
    with tr.span("perf.finalize"):
        phi, _, _ = plan.finalize(phi)
    return phi


def _plan_layers(plan, stats, tr, executes: int, m2l: bool) -> dict:
    """Per-layer metrics of the ``perf`` layer.  Times are medians per
    operation, which runs ``executes`` plan executions; ``m2l`` says
    whether the plan translates box pairs (cluster plans) or evaluates
    particle-cluster rows (target-major plans, no M2L)."""
    m2l_model = (
        sum(c * (p + 1) ** 4 for p, c in stats.interactions_by_degree.items()) / 1e9
        if m2l
        else 0.0
    )
    far_s = tr.median_self("perf.far", "op")
    near_s = tr.median_self("perf.near", "op")
    return {
        "perf.compile_s": tr.median_self("perf.compile", "setup") + tr.median_self("perf.compile", "op"),
        "perf.plan_mb": plan.memory_bytes / 1e6,
        "perf.sort_s": tr.median_self("perf.sort", "op"),
        "perf.p2m_s": tr.median_self("perf.p2m", "op"),
        "perf.far_s": far_s,
        "perf.near_s": near_s,
        "perf.finalize_s": tr.median_self("perf.finalize", "op"),
        "perf.m2l_pairs": stats.n_pc_interactions if m2l else 0,
        "perf.near_pairs": stats.n_pp_pairs,
        "perf.far_spilled": plan.n_far_spilled,
        "perf.near_spilled": plan.n_near_spilled,
        "perf.m2l_gflop_model": m2l_model,
        "perf.m2l_gflops": m2l_model * executes / far_s if far_s else 0.0,
        "perf.near_mpairs_per_s": stats.n_pp_pairs * executes / near_s / 1e6 if near_s else 0.0,
    }


def _tree_counts(tree) -> dict:
    return {"tree.height": tree.height, "tree.leaves": int(tree.leaf_ids().size)}


def _core_counts(stats) -> dict:
    return {
        "core.pc_interactions": stats.n_pc_interactions,
        "core.pp_pairs": stats.n_pp_pairs,
        "core.terms": stats.n_terms,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _direct_base(pairs_sampled: int, seconds: float, pairs_per_op: float, how: str) -> dict:
    rate = pairs_sampled / seconds
    return {
        "oracle_s": seconds,
        "mpairs_per_s": rate / 1e6,
        "op_direct_s": pairs_per_op / rate,
        "base": how,
    }


# ---------------------------------------------------------------------------
# inputs: every array comes from the seed, through numpy alone
# ---------------------------------------------------------------------------


def neutral_charges(seed: int, r: int, k: int, n: int) -> np.ndarray:
    """Charge vector ``k`` of round ``r``: signed unit charges summing
    to zero (odd ``n``: one left over).  A random net charge would add
    a monopole background whose size swings ``rel_err`` by 2x between
    vectors."""
    q = np.ones(n)
    q[: n // 2] = -1.0
    return np.random.default_rng([seed, r, k]).permutation(q)


def cube_inputs(seed: int, r: int, n: int) -> dict:
    """Uniform random cube of round ``r``, with its oracle sample."""
    rng = np.random.default_rng([seed, r])
    return {
        "points": rng.random((n, 3)),
        "sample": np.sort(rng.choice(n, min(SAMPLE, n), replace=False)),
    }


def plummer_inputs(seed: int, k: int, n: int, scale: float = 0.1) -> dict:
    """Plummer sphere of draw ``k`` (radii by inverting the cumulative
    mass profile, capped at ten scale lengths), equal masses ``1/n``."""
    rng = np.random.default_rng([seed, k])
    m = rng.random(n) * 0.99 + 0.005
    rad = np.minimum(scale / np.sqrt(m ** (-2.0 / 3.0) - 1.0), 10.0 * scale)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return {"points": 0.5 + v * rad[:, None], "masses": np.full(n, 1.0 / n)}


def dirichlet_data(seed: int, k: int, vertices: np.ndarray) -> np.ndarray:
    """Boundary potential of solve ``k``: the conductor at potential 1
    in a weak uniform external field of seeded direction, ``g`` in
    ``[0.8, 1.2]``.  A weak field keeps the density near the paper's
    capacitance solution, so ``rel_err`` moves little between draws."""
    d = np.random.default_rng([seed, k]).normal(size=3)
    x = vertices - vertices.mean(axis=0)
    proj = x @ (d / np.linalg.norm(d))
    return 1.0 + 0.2 * proj / np.abs(proj).max()


# ---------------------------------------------------------------------------
# cube-5k: cluster plan matvec
# ---------------------------------------------------------------------------


def _cube_setup_traced(pts, q0, tr):
    with tr.span("setup"):
        with tr.span("tree.build"):
            tree = build_octree(pts, q0, **_tree_kwargs())
        with tr.span("core.upward"):
            tc = Treecode(pts, q0, degree_policy=_policy(), tree=tree)
        with tr.span("tree.dual_traverse"):
            pairs = dual_traverse(tc.tree, tc.alpha)
        with tr.span("perf.compile"):
            plan = tc.compile_plan(mode="cluster")
    return plan, pairs


def run_cube(seed: int, seconds: float, tr, scale: str) -> Run:
    name, n = "cube-5k", SCALES[scale]["cube-5k"]
    run = Run()
    plan = tplan = None
    for r in range(ROUNDS[name]):
        inp = cube_inputs(seed, r, n)
        pts, sample = inp["points"], inp["sample"]
        q0 = neutral_charges(seed, r, 0, n)
        plan = tplan = None  # one round's plans resident at a time
        t0 = time.perf_counter()
        plan = Treecode(pts, q0, degree_policy=_policy()).compile_plan(mode="cluster")
        run.setup_s.append(time.perf_counter() - t0)
        if tr:
            tplan, pairs = _cube_setup_traced(pts, q0, tr)

        def op(k):
            q = neutral_charges(seed, r, k + 1, n)
            res, dt = _timed(plan.execute, q)
            run.op_s.append(dt)
            run.gate(name, _rel(res.potential[sample], ref_potential(pts[sample], pts, q)), res.potential)
            if tr:
                with tr.span("op") as sp:
                    phi = _traced_execute(tplan, q, tr)
                run.traced_op_s.append(_span_s(sp))
                run.same(phi, res.potential, "potential")
                run.stats = res.stats

        run.loop(seconds / ROUNDS[name], op)
    if tr:
        run.layers.update(
            {
                "tree.build_s": tr.median_self("tree.build", "setup"),
                "tree.dual_traverse_s": tr.median_self("tree.dual_traverse", "setup"),
                "tree.far_box_pairs": pairs.n_far,
                "tree.near_box_pairs": pairs.n_near,
                "core.upward_s": tr.median_self("core.upward", "setup"),
                **_tree_counts(tplan.tc.tree),
                **_core_counts(run.stats),
                **_plan_layers(tplan, run.stats, tr, executes=1, m2l=True),
            }
        )
    run.peak_rss_mb = _peak_rss_mb()
    t = median_seconds(lambda: direct_potential(pts, q0, targets=pts[sample]))
    run.direct = _direct_base(
        sample.size * n, t, n * (n - 1), "direct_potential on sampled targets, scaled to n*(n-1) pairs per matvec"
    )
    return run


# ---------------------------------------------------------------------------
# fmm-cube: UniformFMM set_charges + evaluate
# ---------------------------------------------------------------------------


def run_fmm(seed: int, seconds: float, tr, scale: str) -> Run:
    name, n = "fmm-cube", SCALES[scale]["fmm-cube"]
    run = Run()
    firsts, compiles = [], []
    f = tf = None
    for r in range(ROUNDS[name]):
        inp = cube_inputs(seed, r, n)
        pts, sample = inp["points"], inp["sample"]
        q0 = neutral_charges(seed, r, 0, n)
        f = tf = None
        t0 = time.perf_counter()
        f = UniformFMM(pts, q0)
        f.evaluate()  # unplanned
        f.evaluate()  # compiles the plan
        run.setup_s.append(time.perf_counter() - t0)
        if tr:
            with tr.span("setup"):
                with tr.span("fmm.construct"):
                    tf = UniformFMM(pts, q0)
                with tr.span("fmm.first_eval") as s1:
                    tf.evaluate()
                with tr.span("fmm.compile_eval") as s2:
                    tf.evaluate()
            firsts.append(_span_s(s1))
            compiles.append(_span_s(s2))

        def op(k):
            q = neutral_charges(seed, r, k + 1, n)
            t0 = time.perf_counter()
            f.set_charges(q)
            phi = f.evaluate()
            run.op_s.append(time.perf_counter() - t0)
            run.gate(name, _rel(phi[sample], ref_potential(pts[sample], pts, q)), phi)
            if tr:
                with tr.span("op") as sp:
                    with tr.span("fmm.eval"):
                        tf.set_charges(q)
                        tphi = tf.evaluate()
                run.traced_op_s.append(_span_s(sp))
                run.same(tphi, phi, "potential")

        run.loop(seconds / ROUNDS[name], op)
    if tr:
        run.layers.update(
            {
                "fmm.first_eval_s": statistics.median(firsts),
                "fmm.compile_eval_s": statistics.median(compiles),
                "fmm.eval_s": tr.median_self("fmm.eval", "op"),
                "fmm.plan_mb": tf.plan_memory_bytes / 1e6,
                "fmm.levels": tf.L,
            }
        )
    run.peak_rss_mb = _peak_rss_mb()
    t = median_seconds(lambda: direct_potential(pts, q0, targets=pts[sample]))
    run.direct = _direct_base(
        sample.size * n, t, n * (n - 1), "direct_potential on sampled targets, scaled to n*(n-1) pairs per evaluate"
    )
    return run


# ---------------------------------------------------------------------------
# bem-propeller: GMRES(10) solve on the paper's propeller
# ---------------------------------------------------------------------------


class _TracedOperator(SingleLayerOperator):
    """``SingleLayerOperator`` whose matvec runs through the public
    layer functions inside spans, in the order the operator's own
    matvec calls them: unplanned first application, compile at the
    second, plan execution after."""

    def bind(self, tr):
        self.tr, self.matvec_s, self.bench_lists, self.bench_plan = tr, [], None, None
        return self

    def matvec(self, sigma):
        tr, tc, verts = self.tr, self.treecode, self.mesh.vertices
        with tr.span("bem.matvec") as sp:
            q = self.charges_for(sigma)
            if self.n_matvecs == 0:
                with tr.span("core.traverse"):
                    self.bench_lists = tc.traverse(verts, self_targets=False)
                with tr.span("core.upward"):
                    tc.set_charges(q)
                with tr.span("core.evaluate_lists"):
                    phi = tc.evaluate_lists(self.bench_lists, verts, self_targets=False).potential
            else:
                if self.bench_plan is None:
                    with tr.span("perf.compile"):
                        self.bench_plan = tc.compile_plan(
                            targets=verts,
                            lists=self.bench_lists,
                            memory_budget=self.plan_budget,
                            tol=self.tol,
                            cache_dir=self.plan_cache,
                        )
                phi = _traced_execute(self.bench_plan, q, tr)
        self.matvec_s.append(_span_s(sp))
        self.n_matvecs += 1
        return phi

    __call__ = matvec


def run_bem(seed: int, seconds: float, tr, scale: str) -> Run:
    """Each operation builds the operator (a ``setup_s`` sample) and
    solves ``V sigma = g`` for fresh seeded boundary data; the solve
    includes the operator's lazy plan compile at its second matvec."""
    name = "bem-propeller"
    res_ = SCALES[scale][name]
    mesh = propeller(blade_res=res_, hub_res=res_)
    verts = mesh.vertices
    nv = mesh.n_vertices
    run = Run()
    iters, matvecs = [], []
    topr = None

    def op(k):
        nonlocal topr
        g = dirichlet_data(seed, k, verts)
        opr, dt = _timed(SingleLayerOperator, mesh, degree_policy=_policy())
        run.setup_s.append(dt)
        res, dt = _timed(gmres, opr.matvec, g, restart=GMRES_RESTART, tol=GMRES_TOL)
        run.op_s.append(dt)
        matvecs.append(opr.n_matvecs)
        # residual at every vertex: cheap at this size, and a 512-vertex
        # sample of 665 moved rel_err by 20% between seeds
        vx = ref_potential(verts, opr.points, opr.charges_for(res.x))
        run.gate(name, _rel(vx, g), res.x)
        run.check(res.converged, f"GMRES not converged after {res.n_iterations} iterations")
        if tr:
            topr = None
            with tr.span("setup"):
                with tr.span("bem.operator"):
                    topr = _TracedOperator(mesh, degree_policy=_policy()).bind(tr)
            with tr.span("op") as sp:
                with tr.span("bem.gmres"):
                    tres = gmres(topr.matvec, g, restart=GMRES_RESTART, tol=GMRES_TOL)
            run.traced_op_s.append(_span_s(sp))
            run.same(tres.x, res.x, "GMRES solution")
            iters.append(tres.n_iterations)

    run.loop(seconds, op)
    if tr:
        plan, mv = topr.bench_plan, topr.matvec_s
        # one more application, outside every span, for the plan's counts
        stats = plan.execute(topr.charges_for(np.ones(nv))).stats
        run.layers.update(
            {
                "core.upward_s": tr.median_self("core.upward", "op"),
                "core.traverse_s": tr.median_self("core.traverse", "op"),
                "core.evaluate_lists_s": tr.median_self("core.evaluate_lists", "op"),
                "bem.matvecs": statistics.median(matvecs),
                "bem.gmres_iters": statistics.median(iters),
                "bem.matvec_first_s": mv[0],
                "bem.matvec_compile_s": mv[1],
                "bem.matvec_s": statistics.median(mv[2:]),
                **_tree_counts(topr.treecode.tree),
                **_core_counts(stats),
                # every matvec of a solve but the first executes the plan
                **_plan_layers(plan, stats, tr, executes=len(mv) - 1, m2l=False),
            }
        )
    run.peak_rss_mb = _peak_rss_mb()
    opr = SingleLayerOperator(mesh, degree_policy=_policy())
    q = opr.charges_for(np.ones(nv))
    t = median_seconds(lambda: direct_potential(opr.points, q, targets=verts))
    ng = opr.points.shape[0]
    run.direct = _direct_base(
        nv * ng,
        t,
        nv * ng * statistics.median(matvecs),
        "direct_potential on all vertices, times matvecs per solve",
    )
    return run


# ---------------------------------------------------------------------------
# nbody-plummer: one leapfrog step, two unplanned force evaluations
# ---------------------------------------------------------------------------


class _RecordingIntegrator(LeapfrogIntegrator):
    """Keeps the last acceleration so the oracle can check it."""

    def forces(self, state):
        self.last_acc = super().forces(state)
        return self.last_acc


class _TracedIntegrator(LeapfrogIntegrator):
    """Force evaluation through the public layer functions inside
    spans, exactly as ``LeapfrogIntegrator.forces`` composes them."""

    def bind(self, tr, force_s: list):
        self.tr, self.force_s = tr, force_s
        return self

    def forces(self, state):
        tr, pos, m = self.tr, state.positions, state.masses
        with tr.span("simulation.force") as sp:
            with tr.span("tree.build"):
                tree = build_octree(pos, m, **_tree_kwargs(self.leaf_size))
            with tr.span("core.upward"):
                tc = Treecode(
                    pos, m, degree_policy=self.degree_policy, alpha=self.alpha,
                    leaf_size=self.leaf_size, softening=self.softening, tree=tree,
                )
            with tr.span("core.traverse"):
                lists = tc.traverse(tc.tree.points, self_targets=True)
            with tr.span("core.evaluate_lists"):
                res = tc.evaluate_lists(lists, tc.tree.points, self_targets=True, compute="both")
        self.force_s.append(_span_s(sp))
        self.last_tree, self.last_stats = tc.tree, res.stats
        # the potential cache energy() reads, filled as forces() fills it
        self._last_potential = res.potential
        return self.sign * (-self.G) * res.gradient


def _nbody_start(inp, cls):
    """Integrator plus the state at rest."""
    integ = cls(degree_policy=_policy(), softening=NBODY_SOFTENING)
    pts = inp["points"]
    state = SimulationState(pts.copy(), np.zeros_like(pts), inp["masses"].copy())
    return integ, state


def run_nbody(seed: int, seconds: float, tr, scale: str) -> Run:
    """Each operation draws a fresh Plummer sphere, sets the integrator
    up on it (a ``setup_s`` sample, ending with the first force
    evaluation) and takes one step.  The force error of one draw is
    heavy-tailed (see ``REL_ERR_CEILING``), so a run covers as many
    draws as it can, and checks every particle."""
    name, n = "nbody-plummer", SCALES[scale]["nbody-plummer"]
    run = Run()
    force_s: list = []
    tinteg = None

    def op(k):
        nonlocal tinteg
        inp = plummer_inputs(seed, k, n)
        t0 = time.perf_counter()
        integ, state = _nbody_start(inp, _RecordingIntegrator)
        integ.run(state, NBODY_DT, 0)  # first force evaluation
        run.setup_s.append(time.perf_counter() - t0)
        _, dt = _timed(integ.run, state, NBODY_DT, 1)
        run.op_s.append(dt)
        pos, m = state.positions, state.masses
        exact = integ.sign * (-integ.G) * ref_gradient(pos, pos, m, NBODY_SOFTENING)
        run.gate(name, _rel(integ.last_acc, exact), pos, state.velocities)
        if tr:
            tinteg, tstate = _nbody_start(inp, _TracedIntegrator)
            tinteg.bind(tr, force_s)
            with tr.span("setup"):
                tinteg.run(tstate, NBODY_DT, 0)
            with tr.span("op") as sp:
                tinteg.run(tstate, NBODY_DT, 1)
            run.traced_op_s.append(_span_s(sp))
            run.same(tstate.positions, state.positions, "positions")
            run.same(tstate.velocities, state.velocities, "velocities")
        run.last = state

    run.loop(seconds, op)
    if tr:
        run.layers.update(
            {
                "simulation.force_s": statistics.median(force_s),
                "simulation.force_evals": 2,
                "tree.build_s": tr.median_self("tree.build", "op"),
                "core.upward_s": tr.median_self("core.upward", "op"),
                "core.traverse_s": tr.median_self("core.traverse", "op"),
                "core.evaluate_lists_s": tr.median_self("core.evaluate_lists", "op"),
                **_tree_counts(tinteg.last_tree),
                **_core_counts(tinteg.last_stats),
            }
        )
    run.peak_rss_mb = _peak_rss_mb()
    pos, m = run.last.positions, run.last.masses

    def direct_force():
        direct_potential(pos, m, softening=NBODY_SOFTENING)
        direct_gradient(pos, m, softening=NBODY_SOFTENING)

    t = median_seconds(direct_force)
    run.direct = _direct_base(
        n * n, t, 2 * n * n, "direct_potential + direct_gradient at every particle, times 2 evaluations per step"
    )
    return run


WORKLOADS = {
    "cube-5k": run_cube,
    "fmm-cube": run_fmm,
    "bem-propeller": run_bem,
    "nbody-plummer": run_nbody,
}
