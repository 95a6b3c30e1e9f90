"""The four benchmark workloads: inputs, batch commands and single solves.

A round runs every batch command once through ``glmdopt.cli.main`` (stdout
captured) and every single solve once through the library, with the
calibration kernel of ``calib.py`` between them. The runner repeats rounds
until its time is used; later rounds must reproduce the first exactly.

No timed input fails at the parent commit. Inputs that hit a known defect
form a workload's fixed probe instead: it runs once per run, untimed, and
its failures are reported apart from the timed operations.

Batch inputs are fixed, like the region lattice, so ``items_per_s``
compares the same work on every seed. The seed draws the single solves as
a scrambled Sobol sample, so the share of slow draws varies little from
one seed to the next.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

import calib
import gate
import glmdopt.boundary as boundary
import glmdopt.cli as cli
import glmdopt.design as design
import glmdopt.weights as weights
from glmdopt.errors import DomainError, SolverError


# -- inputs ----------------------------------------------------------------


def sobol(rng, n: int, lo, hi):
    """``n`` scrambled Sobol points in the box ``[lo, hi]`` (per column)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    pts = qmc.Sobol(lo.size, scramble=True, rng=rng).random(n)
    return lo + pts * (hi - lo)


def model_matrix(points, terms):
    """Model matrix built here, independently of glmdopt, for the gate."""
    points = np.asarray(points, dtype=float)
    if terms == "main-effects":
        terms = [[]] + [[j] for j in range(points.shape[1])]
    cols = [np.prod(points[:, list(t)], axis=1) if t else np.ones(len(points)) for t in terms]
    return np.column_stack(cols)


def factorial(k: int, levels=(1.0, -1.0)):
    return [list(p) for p in itertools.product(levels, repeat=k)]


def saturated_terms(k: int):
    """Intercept, main effects and every interaction below order k."""
    terms = [[]]
    for size in range(1, k):
        terms += [list(c) for c in itertools.combinations(range(k), size)]
    return terms


@dataclass
class Problem:
    """A discrete problem as written to a file and as the gate rebuilds it."""

    name: str
    link: str
    points: list
    terms: object
    beta: np.ndarray

    def __post_init__(self):
        self.X = model_matrix(self.points, self.terms)

    def write(self, path):
        raw = {"link": self.link, "beta": [float(b) for b in self.beta], "design_points": self.points}
        if self.terms != "main-effects":
            raw["model_terms"] = self.terms
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)


# -- outcomes --------------------------------------------------------------


@dataclass
class Outcome:
    """What one item produced: gate status, reason and case label."""

    status: str  # gate.PASS / gate.FAIL / gate.UNCHECKED
    reason: str = ""
    label: str = ""

    @property
    def checked(self) -> bool:
        """An output existed and the gate judged it."""
        return self.status == gate.PASS or (self.status == gate.FAIL and self.label not in RAISED)


#: labels of items that produced no output to check
RAISED = ("raised", "aborted")
#: label of a lift-one output that stopped at max_sweeps without converging
STALLED = "liftone-max-sweeps"


@dataclass
class Command:
    """One batch CLI invocation and how to check its output."""

    argv: list
    items: int
    check: object  # (stdout) -> list[Outcome], one per item
    stable: object = None  # (stdout) -> the part that must repeat across rounds


@dataclass
class Solve:
    """One library-level solve and how to check its result."""

    run: object  # () -> result
    check: object  # (result) -> Outcome


def run_cli(argv):
    """``glmdopt.cli.main(argv)`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def failed_command(cmd: Command, rc: int, err: str):
    reason = err.strip().splitlines()[-1] if err.strip() else f"exit {rc}"
    return [Outcome(gate.FAIL, reason, "aborted")] * cmd.items


def gap_bound(X, label: str) -> float:
    return gate.liftone_gap_bound(*X.shape) if label == "liftone" else gate.ANALYTIC_GAP


def check_report(problem_X, link, beta, report) -> Outcome:
    w = gate.weights(link, problem_X @ beta)
    label = report.case_label
    status, reason, _ = gate.check_discrete(
        problem_X, w, report.allocation.p, report.objective, gap_bound(problem_X, label)
    )
    if report.diagnostics.get("converged") == 0.0:
        label = STALLED
    return Outcome(status, reason, label)


def sweep_checker(problem: Problem, vary: int):
    def check(stdout: str):
        outs = []
        for row in csv.DictReader(io.StringIO(stdout)):
            beta = problem.beta.copy()
            beta[vary] = float(row["beta_value"])
            n = problem.X.shape[0]
            p = np.array([float(row[f"p{i + 1}"]) for i in range(n)])
            w = gate.weights(problem.link, problem.X @ beta)
            label = row["case_label"]
            status, reason, _ = gate.check_discrete(
                problem.X, w, p, float(row["objective"]), gap_bound(problem.X, label)
            )
            outs.append(Outcome(status, reason, label))
        return outs

    return check


def sweep_command(tmpdir, problem: Problem, vary: int, lo: float, hi: float, steps: int, method):
    path = os.path.join(tmpdir, f"{problem.name}.json")
    problem.write(path)
    argv = [
        "sweep-beta",
        path,
        "--vary",
        str(vary),
        f"--range={float(lo)!r}:{float(hi)!r}:{steps}",
        "--method",
        method,
    ]
    return Command(argv, steps, sweep_checker(problem, vary))


def discrete_solve(problem_X, link, beta, method):
    """Library solve: build the DesignProblem, dispatch, return the report."""

    def run():
        prob = design.DesignProblem(
            problem_X, beta=beta, weight_fn=weights.WeightFunction.from_name(link)
        )
        return cli.dispatch_solve(prob, method, gate.LIFTONE_TOL)

    return Solve(run, lambda report: check_report(problem_X, link, beta, report))


# -- workloads -------------------------------------------------------------

#: seed of the fixed batch inputs (the workload seed draws the single solves)
BATCH_SEED = 20130621


class Workload:
    """Fixed batch commands, seeded single solves and a fixed known-defect probe."""

    #: predicate on a probe outcome: True for a failure known at the parent commit
    known = staticmethod(lambda outcome: False)
    #: CLI call that exercises the family once, for warm-up and set-up probes
    warmup_argv: list = []
    #: calibration kernel shaped like this workload's work (see calib.py)
    kernel = "solver"

    def __init__(self, seed: int, tmpdir: str):
        self.tmpdir = tmpdir
        self.commands: list = []
        self.solves: list = []
        self.probe: list = []
        self.build(np.random.default_rng(BATCH_SEED), np.random.default_rng(seed))

    def build(self, batch_rng, rng):
        raise NotImplementedError


P22 = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
SPAN = [[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
GENERIC = [[-0.9, -0.6], [0.8, -0.7], [0.3, 0.9], [-0.5, 0.2]]


class FourPoint(Workload):
    """Four-point two-factor family: twofactor + solver4 with tiny arrays."""

    known = staticmethod(lambda o: "more than one zero coefficient" in o.reason)
    warmup_argv = ["bench", "--model", "2x2", "--n-instances", "2"]
    SWEEPS_PER_LAYOUT = 2
    SWEEP_STEPS = 60
    #: (name, link, points, single solves, half-width of the coefficient box).
    #: solver4 raises "more than one zero coefficient" once two weights exceed
    #: 1e9 times the smallest. Probit weights fall that far only beyond
    #: |eta| of about 6.6, so timed probit draws stay in U(-2,2)^3 (|eta| <= 6,
    #: every weight ratio above 5e-8) and the U(-3,3)^3 draws go to the probe.
    LAYOUTS = (
        ("logit22", "logit", P22, 512, 3.0),
        ("probit22", "probit", P22, 2048, 2.0),
        ("span", "logit", SPAN, 0, 3.0),
        ("generic", "logit", GENERIC, 512, 3.0),
    )
    PROBE = 512

    def build(self, batch_rng, rng):
        for name, link, pts, _, _ in self.LAYOUTS:
            for k, beta in enumerate(batch_rng.uniform(-3.0, 3.0, (self.SWEEPS_PER_LAYOUT, 3))):
                vary = k % 3
                prob = Problem(f"{name}-{k}", link, pts, "main-effects", beta)
                self.commands.append(
                    sweep_command(self.tmpdir, prob, vary, -3.0, 3.0, self.SWEEP_STEPS, "analytic")
                )
        for _, link, pts, n_solves, box in self.LAYOUTS:
            X = model_matrix(pts, "main-effects")
            for beta in sobol(rng, n_solves, [-box] * 3, [box] * 3):
                self.solves.append(discrete_solve(X, link, beta, "analytic"))
        X = model_matrix(P22, "main-effects")
        for beta in sobol(batch_rng, self.PROBE, [-3.0] * 3, [3.0] * 3):
            self.probe.append(discrete_solve(X, "probit", beta, "analytic"))


class Saturated(Workload):
    """Saturated 2^k factorials: compute_v + root_mu bisection."""

    warmup_argv = ["bench", "--model", "2^3", "--dist", "uniform:-1:1", "--n-instances", "2"]
    SIZES = (3, 4, 5)
    SWEEPS_PER_SIZE = 2
    SWEEP_STEPS = 30
    SOLVES_PER_SIZE = 128

    def build(self, batch_rng, rng):
        # near beta = 0 most instances take the interior h1/h2 branches and
        # their root_mu bisection; at U(-3, 3) most are boundary cases
        for k in self.SIZES:
            pts, terms = factorial(k), saturated_terms(k)
            d = len(terms)
            for j, beta in enumerate(batch_rng.uniform(-1.0, 1.0, (self.SWEEPS_PER_SIZE, d))):
                vary = j + 1
                prob = Problem(f"sat{k}-{j}", "logit", pts, terms, beta)
                self.commands.append(
                    sweep_command(self.tmpdir, prob, vary, -1.0, 1.0, self.SWEEP_STEPS, "analytic")
                )
        for k in self.SIZES:
            X = model_matrix(factorial(k), saturated_terms(k))
            d = X.shape[1]
            for beta in sobol(rng, self.SOLVES_PER_SIZE, [-1.0] * d, [1.0] * d):
                self.solves.append(discrete_solve(X, "logit", beta, "analytic"))


def bench_checker(n_instances: int, k: int):
    """bench prints aggregates only: failures and lift-one/analytic efficiency.

    Converged lift-one keeps the determinant ratio above ``(1 + gap)^-d``
    (Atwood's bound at the lift-one gap bound); the analytic optimum caps it
    at one.
    """
    n, d = 2**k, 2**k - 1
    floor = (1.0 + gate.liftone_gap_bound(n, d)) ** (-d)

    def check(stdout: str):
        rows = {r["method"]: r for r in csv.DictReader(io.StringIO(stdout))}
        failures = int(rows["analytic"]["failures"]) + int(rows["liftone"]["failures"])
        outs = [Outcome(gate.FAIL, "bench failure", "bench")] * min(failures, n_instances)
        eff_min = float(rows["liftone"]["efficiency_min"])
        eff_mean = float(rows["liftone"]["efficiency_mean"])
        if not (eff_min >= floor and eff_mean <= 1.0 + 1e-9):
            outs.append(Outcome(gate.FAIL, "bench efficiency outside the lift-one bound", "bench"))
        outs += [Outcome(gate.PASS, "", "bench")] * (n_instances - len(outs))
        return outs

    return check


def without_timing(stdout: str) -> str:
    """bench output minus its total_time_s column, which differs every round."""
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or "total_time_s" not in rows[0]:
        return stdout
    col = rows[0].index("total_time_s")
    return "\n".join(",".join(c for i, c in enumerate(r) if i != col) for r in rows)


class LiftOne(Workload):
    """Shapes with no analytic solver: lift-one's two evaluator branches."""

    known = staticmethod(lambda o: o.label == STALLED and o.reason.startswith("KW gap"))
    warmup_argv = ["bench", "--model", "2^3", "--dist", "uniform:-1:1", "--n-instances", "2"]
    kernel = "liftone"
    BENCH_COMMANDS = 4
    BENCH_INSTANCES = 100
    SWEEPS = 2
    SWEEP_STEPS = 8
    #: 2^3 main-effects draws, the slow-converging fifth of the single solves.
    #: Lift-one stalls where the weights are nearly symmetric: beta0 near 0
    #: mirrors the design, and slopes near 0 make the weights equal; both
    #: leave a flat optimum. Timed draws sit just outside that region, with
    #: |beta0| in [0.75, 0.9], every |slope| in [0.2, 0.25] and random signs:
    #: they converge in 24-45 sweeps of the 500 allowed, slower than nearly
    #: every 3^2 draw, so p90 is about the median of this group. The probe
    #: keeps U(-0.18, 0.18)^4, where most draws stop at max_sweeps.
    SOLVES_MAIN = 64
    MAIN_INTERCEPT = (0.75, 0.9)
    MAIN_SLOPE = (0.2, 0.25)
    SOLVES_INTERACTION = 256
    PROBE = 8
    PROBE_BOX = 0.18

    def build(self, batch_rng, rng):
        for i in range(self.BENCH_COMMANDS):
            bench = ["bench", "--model", "2^3", "--dist", "uniform:-1:1"]
            bench += ["--n-instances", str(self.BENCH_INSTANCES), "--seed", str(BATCH_SEED + i)]
            check = bench_checker(self.BENCH_INSTANCES, 3)
            self.commands.append(Command(bench, self.BENCH_INSTANCES, check, without_timing))
        main_pts = factorial(3)
        for j, beta in enumerate(batch_rng.uniform(-1.0, 1.0, (self.SWEEPS, 4))):
            prob = Problem(f"main3-{j}", "logit", main_pts, "main-effects", beta)
            self.commands.append(
                sweep_command(self.tmpdir, prob, j + 1, -1.0, 1.0, self.SWEEP_STEPS, "auto")
            )
        X_main = model_matrix(main_pts, "main-effects")
        (b_lo, b_hi), (s_lo, s_hi) = self.MAIN_INTERCEPT, self.MAIN_SLOPE
        # columns: four magnitudes, then four signs
        lo, hi = [b_lo] + [s_lo] * 3 + [0.0] * 4, [b_hi] + [s_hi] * 3 + [1.0] * 4
        u = sobol(rng, self.SOLVES_MAIN, lo, hi)
        for beta in u[:, :4] * np.where(u[:, 4:] < 0.5, -1.0, 1.0):
            self.solves.append(discrete_solve(X_main, "logit", beta, "auto"))
        X_int = model_matrix(factorial(2, (-1.0, 0.0, 1.0)), [[], [0], [1], [0, 1]])
        for beta in sobol(rng, self.SOLVES_INTERACTION, [-1.0] * 4, [1.0] * 4):
            self.solves.append(discrete_solve(X_int, "logit", beta, "auto"))
        box = self.PROBE_BOX
        for beta in sobol(batch_rng, self.PROBE, [-box] * 4, [box] * 4):
            self.probe.append(discrete_solve(X_main, "logit", beta, "auto"))


FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "region_verdict.json")


class Region(Workload):
    """Corner-support map: boundary grid scan and L-BFGS-B polish."""

    warmup_argv = ["region", "--beta0", "-1", "--range=-1:1", "--steps", "1"]
    kernel = "region"
    SOLVES = 128

    def build(self, batch_rng, rng):
        # the lattice holds the nodes (+-1.4, +-1.4), whose verdicts flip if
        # the polish is dropped, so the fixture catches a lost refinement
        with open(FIXTURE, encoding="utf-8") as fh:
            self.fixture = json.load(fh)
        steps = len(self.fixture["verdict"])
        self.commands.append(Command(self.fixture["argv"], steps * steps, self.check_map))
        # the verdict depends only on the unit-square coefficients, so those
        # are the Sobol sample; each is mapped back onto a random rectangle
        for beta_unit in sobol(rng, self.SOLVES, [-2.0] * 3, [2.0] * 3):
            lo = rng.uniform(-2.0, 0.0, 2)
            half = 0.5 * rng.uniform(0.5, 2.5, 2)
            mid = lo + half
            slopes = beta_unit[1:] / half
            beta = np.array([beta_unit[0] - slopes @ mid, *slopes])
            bounds = (lo[0], lo[0] + 2.0 * half[0], lo[1], lo[1] + 2.0 * half[1])
            self.solves.append(self.boundary_solve(beta, bounds))

    @staticmethod
    def boundary_solve(beta, bounds):
        def run():
            cp = boundary.ContinuousProblem(beta, bounds, weights.WeightFunction.from_name("logit"))
            unit, _ = boundary.rescale_problem(cp)
            return unit, boundary.check_boundary_optimal(unit)

        # the gate rescales the rectangle itself and checks glmdopt's copy
        mid = np.array([bounds[0] + bounds[1], bounds[2] + bounds[3]]) / 2.0
        half = np.array([bounds[1] - bounds[0], bounds[3] - bounds[2]]) / 2.0
        beta_unit = np.array([beta[0] + beta[1:] @ mid, *(beta[1:] * half)])

        def check(result):
            unit, v = result
            label = f"verdict-{int(v.boundary_optimal)}"
            if not np.allclose(unit.beta, beta_unit, rtol=1e-12, atol=1e-12):
                return Outcome(gate.FAIL, "rescaled coefficients differ", label)
            status, reason = gate.check_corner_verdict(
                beta_unit, "logit", v.p4.p, v.f_p4, v.boundary_optimal, v.argmin
            )
            return Outcome(status, reason, label)

        return Solve(run, check)

    def check_map(self, stdout: str):
        rows = list(csv.DictReader(io.StringIO(stdout)))
        want = "".join(self.fixture["verdict"])
        if len(rows) != len(want):
            return [Outcome(gate.FAIL, "region map has the wrong size", "failed")] * len(want)
        outs = []
        for row, expect in zip(rows, want):
            got = row["verdict"]
            if got == "failed":
                outs.append(Outcome(gate.FAIL, "region node failed", "failed"))
            elif got != expect:
                outs.append(Outcome(gate.FAIL, "verdict differs from the fixture", f"verdict-{got}"))
            else:
                outs.append(Outcome(gate.PASS, "", f"verdict-{got}"))
        return outs


WORKLOADS = {"fourpoint": FourPoint, "saturated": Saturated, "liftone": LiftOne, "region": Region}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -- rounds ----------------------------------------------------------------


class Round:
    """Raw wall times and outputs of one pass over a workload's inputs."""

    def __init__(self):
        self.commands = []  # (midpoint, seconds, items if it exited 0 else 0)
        self.chunks = []  # (midpoint, [seconds per solve])
        self.outputs = []  # per command (rc, stdout, stderr); per solve (result, exception)

    def items_per_s(self, ys) -> float:
        """Items of the commands that exited 0 per scaled second they took."""
        ok = [(t, dt, items) for t, dt, items in self.commands if items]
        return sum(items for _, _, items in ok) / sum(dt * ys.scale(t) for t, dt, _ in ok)

    def latencies(self, ys):
        return [dt * ys.scale(t) for t, chunk in self.chunks for dt in chunk]

    def timed_s(self, ys) -> float:
        return sum(dt * ys.scale(t) for t, dt, _ in self.commands) + sum(self.latencies(ys))


def attempt(solve: Solve):
    """``(result, None)``, or ``(None, exc)`` when the solve raised a glmdopt error."""
    try:
        return solve.run(), None
    except (DomainError, SolverError) as exc:
        return None, exc


def judge(solve: Solve, result, exc) -> Outcome:
    if exc is not None:
        return Outcome(gate.FAIL, f"{type(exc).__name__}: {exc}", "raised")
    return solve.check(result)


def run_round(wl: Workload, ys) -> Round:
    """One pass; calibration samples go to ``ys`` between the timed units."""
    r = Round()
    ys.measure()
    for cmd in wl.commands:
        t0 = time.perf_counter()
        rc, out, err = run_cli(cmd.argv)
        t1 = time.perf_counter()
        r.commands.append((0.5 * (t0 + t1), t1 - t0, cmd.items if rc == 0 else 0))
        r.outputs.append((rc, out, err))
        ys.measure(after=t1 - t0)
    c0, chunk = time.perf_counter(), []
    for solve in wl.solves:
        t0 = time.perf_counter()
        result, exc = attempt(solve)
        t1 = time.perf_counter()
        chunk.append(t1 - t0)
        r.outputs.append((result, exc))
        if t1 - c0 >= calib.INTERVAL_S or solve is wl.solves[-1]:
            r.chunks.append((0.5 * (c0 + t1), chunk))
            ys.measure()
            c0, chunk = time.perf_counter(), []
    return r


def run_probe(wl: Workload):
    """Gate outcome per probe input; the probe runs once and is not timed."""
    return [judge(solve, *attempt(solve)) for solve in wl.probe]


def check_round(wl: Workload, r: Round):
    """Gate outcome per item of one round."""
    outcomes = []
    for cmd, (rc, out, err) in zip(wl.commands, r.outputs):
        outcomes += cmd.check(out) if rc == 0 else failed_command(cmd, rc, err)
    for solve, (result, exc) in zip(wl.solves, r.outputs[len(wl.commands) :]):
        outcomes.append(judge(solve, result, exc))
    return outcomes


def fingerprint(wl: Workload, r: Round):
    """Everything a round printed or returned, for comparison across rounds."""
    prints = []
    for cmd, (rc, out, err) in zip(wl.commands, r.outputs):
        prints.append((rc, cmd.stable(out) if cmd.stable else out, err))
    for a, b in r.outputs[len(wl.commands) :]:
        if b is not None:  # a solve that raised
            prints.append(str(b))
        elif isinstance(a, tuple):  # region solve: (unit problem, verdict)
            v = a[1]
            prints.append((v.boundary_optimal, v.min_s, v.argmin, tuple(v.p4.p), v.f_p4))
        else:
            prints.append((tuple(a.allocation.p), a.objective, a.case_label))
    return prints


def run_rounds(wl: Workload, ys, seconds: float, reference=None):
    """Rounds until ``seconds`` would be exceeded (at least one).

    Returns the rounds and how many printed or returned something other than
    ``reference`` (by default the first round).
    """
    rounds, changed = [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        r = run_round(wl, ys)
        rounds.append(r)
        if reference is None:
            reference = fingerprint(wl, r)
        else:
            changed += fingerprint(wl, r) != reference
            r.outputs = None  # only the first round's outputs are kept and checked
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            return rounds, changed
