"""The benchmark's three workloads and the checks on their outputs.

exact        the algebraic route as a CLI user meets it: cold table sweeps,
             one deep min_dimension query, the repdecomp cross-check and a
             recursion-depth probe, with caches cleared before every op.
grid-solve   the criterion 7 realization (planar three-Gaussian grid).
cloud-solve  the criterion 8 realization (three-Gaussian cloud in R^4).

Every operation is timed on its own and checked; an exception or a wrong
output makes it a failed op instead of ending the run.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))

# criterion 1 of the acceptance suite: m=3, l = 2..22
CRITERION_1_D = [4, 7, 7, 8, 8] + [13] * 4 + [15, 15, 16, 16] + [25] * 8

# the 23 (m, l) cases of criterion 5
CROSSCHECK = [(m, l) for m in (2, 3) for l in range(1, 10)] + [(4, l) for l in range(1, 6)]


@dataclass(frozen=True)
class ExactSize:
    sweeps: tuple
    deep: tuple
    probe: tuple
    crosscheck: tuple
    cli: tuple


@dataclass(frozen=True)
class SolveSize:
    kind: str  # "grid" or "cloud"
    d: int
    components: int
    size: int  # cells per axis (grid) or points (cloud)
    l: int
    m: int
    tol: float
    restarts: int
    coarse_grid: int
    cli: tuple


EXACT = {
    "full": ExactSize(
        sweeps=((2, 128), (3, 64), (4, 32), (5, 12), (6, 4)),
        deep=(3, 800),
        # _quotient_power recurses once per power of P_m/x1: l=1000 needs
        # 500 levels, past the default recursion limit
        probe=(2, 1000),
        crosscheck=tuple(CROSSCHECK),
        cli=("min-d", "--m", "3", "--l", "14"),
    ),
    "smoke": ExactSize(
        sweeps=((2, 16), (3, 22), (4, 6)),
        deep=(3, 40),
        probe=(2, 1000),
        crosscheck=((2, 1), (2, 2), (3, 2), (3, 3)),
        cli=("min-d", "--m", "3", "--l", "14"),
    ),
}

# The solves keep the criterion 7/8 problems (mixture, l, m, tol, restart
# limit, seeds) on a smaller measure so that one run fits the time budget.
SOLVE = {
    "grid-solve": {
        "full": SolveSize("grid", 2, 3, 160, 2, 2, 1e-4, 200, 8,
                          ("certify", "--m", "2", "--l", "2", "--d", "2")),
        "smoke": SolveSize("grid", 2, 3, 48, 2, 2, 1e-3, 20, 8,
                           ("certify", "--m", "2", "--l", "2", "--d", "2")),
    },
    "cloud-solve": {
        "full": SolveSize("cloud", 4, 3, 50000, 2, 3, 5e-3, 50, 0,
                          ("certify", "--m", "3", "--l", "2", "--d", "4")),
        "smoke": SolveSize("cloud", 4, 3, 4000, 2, 3, 2e-2, 10, 0,
                           ("certify", "--m", "3", "--l", "2", "--d", "4")),
    },
}

MEASURE_SEED = {"grid-solve": 7, "cloud-solve": 11}
SOLVER_SEED = 0
CHILD_TIMEOUT = 60


@dataclass
class Op:
    name: str
    stage: str
    seconds: float
    error: str = ""  # empty when the op succeeded
    wrong: bool = False  # the op returned, but its output failed a check


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    report: str = ""  # solve report JSON (solves only)

    def stage_seconds(self, stage):
        return sum(op.seconds for op in self.ops if op.stage == stage)


def run_op(result, name, stage, fn, check, tracer=None):
    """Time fn(), then check its value; record the outcome as one Op."""
    sid = tracer.begin("op." + stage) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # a failed op is counted, not fatal
        result.ops.append(Op(name, stage, time.perf_counter() - t0,
                             "%s: %s" % (type(exc).__name__, exc)))
        return None
    finally:
        if sid is not None:
            tracer.end(sid)
    op = Op(name, stage, time.perf_counter() - t0)
    problem = check(value)
    if problem:
        op.error, op.wrong = problem, True
    result.ops.append(op)
    return value


def _load_golden():
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


def expected_d(golden, m, l):
    table = golden["tables"].get(str(m))
    if table is not None and 2 <= l <= table["l_max"]:
        return table["d"][l - 2]
    deep = golden["deep"]
    if (deep["m"], deep["l"]) == (m, l):
        return deep["d"]
    if m == 2:  # criterion 2: min_dimension(2, l) = ceil(l / 2) + 1
        return (l + 1) // 2 + 1
    raise KeyError("no recorded dimension for m=%d, l=%d" % (m, l))


# -- exact ---------------------------------------------------------------


class ExactWorkload:
    timed_stages = ("tables", "deep", "crosscheck")  # the probe stays out of pass_s

    def __init__(self, size, seed, on_clear=None):
        from equibox import certifier, repdecomp

        self.certifier, self.repdecomp = certifier, repdecomp
        self.size = EXACT[size]
        self.golden = _load_golden()
        rng = random.Random(seed)
        # caches are cleared before every op, so the order changes no work
        self.sweeps = rng.sample(self.size.sweeps, len(self.size.sweeps))
        self.cases = rng.sample(self.size.crosscheck, len(self.size.crosscheck))
        self.on_clear = on_clear
        self.criterion_cache = certifier.criterion_polynomial
        self.power_cache = certifier._quotient_power

    def clear_caches(self):
        if self.on_clear is not None:
            self.on_clear(self.power_cache.cache_info())
        self.criterion_cache.cache_clear()
        self.power_cache.cache_clear()

    def _is_d(self, m, l):
        want = expected_d(self.golden, m, l)
        return lambda d: "" if d == want else "got d=%r, expected %d" % (d, want)

    def _cold(self, fn, *args):
        def call():
            self.clear_caches()
            return fn(*args)
        return call

    def run_pass(self, tracer=None):
        c, r = self.certifier, self.repdecomp
        res = PassResult()
        for m, l_max in self.sweeps:
            want = [(l, expected_d(self.golden, m, l)) for l in range(2, l_max + 1)]

            def check(rows, want=want, m=m):
                if rows != want:
                    return "table m=%d differs from the recorded rows" % m
                if m == 3 and [d for _, d in rows[:21]] != CRITERION_1_D[:len(rows)]:
                    return "table m=3 differs from criterion 1"
                return ""

            run_op(res, "table m=%d l<=%d" % (m, l_max), "tables",
                   self._cold(c.equipartition_table, m, l_max), check,
                   tracer=tracer)

        m, l = self.size.deep
        run_op(res, "min_dimension(%d, %d)" % (m, l), "deep",
               self._cold(c.min_dimension, m, l), self._is_d(m, l), tracer=tracer)

        for m, l in self.cases:
            def crosscheck(m=m, l=l):
                spec = r.build_test_representation(m, l)
                table = r.character_multiplicities(spec)
                return r.index_polynomial(spec, table), c.criterion_polynomial(m, l)

            run_op(res, "crosscheck m=%d l=%d" % (m, l), "crosscheck",
                   self._cold(crosscheck),
                   lambda polys: "" if polys[0] == polys[1]
                   else "index polynomial differs from the criterion",
                   tracer=tracer)

        m, l = self.size.probe
        run_op(res, "min_dimension(%d, %d) probe" % (m, l), "probe",
               self._cold(c.min_dimension, m, l), self._is_d(m, l), tracer=tracer)
        self.clear_caches()
        return res

    def fingerprint(self):
        return {"sweeps": sorted(self.size.sweeps), "deep": self.size.deep}


# -- solves --------------------------------------------------------------


def build_measure(workload, size, measure_seed, seed):
    """The workload's measure; for the cloud, the seed shuffles point order.

    The solve does not depend on point order (equal weights, order
    statistics, per-box sums of equal weights), so every seed gives the
    same report; the harness checks that it does.
    """
    import numpy as np
    from equibox import measures

    p = SOLVE[workload][size]
    if p.kind == "grid":
        grid = measures.gaussian_mixture_grid(p.d, p.components, p.size, measure_seed)
        grid.cell_centers()
        return grid
    cloud = measures.gaussian_mixture_cloud(p.d, p.components, p.size, measure_seed)
    perm = np.random.default_rng(seed).permutation(p.size)
    return measures.PointCloud(cloud.points[perm], cloud.weights[perm])


class SolveWorkload:
    timed_stages = ("solve",)

    def __init__(self, workload, size, measure_seed, seed, solver_seed):
        from equibox import solver

        self.solver = solver
        self.p = SOLVE[workload][size]
        self.solver_seed = solver_seed
        self.measure = build_measure(workload, size, measure_seed, seed)

    def run_pass(self, tracer=None):
        s, p = self.solver, self.p
        res = PassResult()

        def solve_and_verify():
            rep = s.solve_equipartition(
                self.measure, p.l, p.m, tol=p.tol, max_restarts=p.restarts,
                seed=self.solver_seed, coarse_grid=p.coarse_grid)
            if rep.config is None:
                return rep, None
            return rep, s.verify_configuration(self.measure, rep.config, p.tol)

        def check(value):
            rep, verified = value
            res.report = rep.to_json()
            if rep.status != s.CONVERGED:
                return "solve ended %s (residual %.3g)" % (rep.status, rep.residual_max)
            if rep.residual_max > p.tol:
                return "residual_max %.3g above tol %g" % (rep.residual_max, p.tol)
            if not verified.passed:
                return "verify_configuration failed: %.3g" % verified.max_deviation
            return ""

        run_op(res, "solve %s" % p.kind, "solve", solve_and_verify, check, tracer=tracer)
        return res

    def fingerprint(self):
        return {"measure": [self.p.kind, self.p.size], "solver_seed": self.solver_seed}


# -- fresh-process probes ------------------------------------------------


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    return env


def cli_cold(root, argv):
    """Wall time of one cold `python -m equibox.cli ...`; (seconds, error)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "equibox.cli", *argv],
                          capture_output=True, text=True, env=child_env(root),
                          cwd=root, timeout=CHILD_TIMEOUT)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        return dt, "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-200:])
    if argv[0] == "min-d" and proc.stdout.strip() != "16":
        return dt, "min-d printed %r, expected 16" % proc.stdout.strip()
    if argv[0] == "certify" and not proc.stdout.startswith("CERTIFIED"):
        return dt, "certify printed %r" % proc.stdout.strip()[:80]
    return dt, ""


_CLI_PROBE = """
import sys, time, json
t0 = time.perf_counter()
import equibox.cli
t1 = time.perf_counter()
import io, contextlib
with contextlib.redirect_stdout(io.StringIO()):
    code = equibox.cli.dispatch(sys.argv[1:])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "command_s": t2 - t1, "code": code}))
"""


def cli_layers(root, argv):
    """Bare interpreter start, fresh `import equibox.cli`, and the command."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT)
    start = time.perf_counter() - t0
    proc = subprocess.run([sys.executable, "-c", _CLI_PROBE, *argv],
                          capture_output=True, text=True, env=child_env(root),
                          cwd=root, timeout=CHILD_TIMEOUT, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["code"] != 0:
        raise RuntimeError("cli probe exited %d" % out["code"])
    return start, out["import_s"], out["command_s"]


def setup_child(root, workload, size, measure_seed, seed):
    """Time a fresh process's imports and measure build; (seconds, error)."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-child"]
    if size == "smoke":
        argv.append("--smoke")
    if measure_seed is not None:
        argv += ["--measure-seed", str(measure_seed)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=root,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        return None, "setup child exit %d: %s" % (proc.returncode,
                                                  proc.stderr.strip()[-200:])
    return float(proc.stdout.strip().splitlines()[-1]), ""


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()
