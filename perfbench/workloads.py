"""The four workloads: inputs made from a seed, operations, and their checks.

Every input polytope is moved by a signed coordinate permutation and an
integer translation drawn from the seed.  These maps preserve every exact
answer, the quadrature node counts and the lattice candidate counts, and the
permutation only trades axes of equal extent, so all seeds do the same work.  Each operation carries its own tolerance; the exact
answers come from `oracles`, never from toriceig.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from . import child_env, oracles

F = Fraction
E2 = ((1, 0), (0, 1), (-1, 0), (0, -1))
E3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))
HIRZEBRUCH = ((1, 0), (0, 1), (0, -1), (-1, -1))


@dataclass(frozen=True)
class Spec:
    """{<nu_i, x> + c_i >= 0} and an integer box (lo, hi) that contains it."""

    normals: tuple
    offsets: tuple
    box: tuple

    @property
    def dim(self) -> int:
        return len(self.normals[0])


BASE = {
    "interval01": Spec(((1,), (-1,)), (0, 1), ((0,), (1,))),
    "intervalC": Spec(((1,), (-1,)), (1, 1), ((-1,), (1,))),
    "simplex2": Spec(((1, 0), (0, 1), (-1, -1)), (0, 0, 1), ((0, 0), (1, 1))),
    "square": Spec(E2, (0, 0, 1, 1), ((0, 0), (1, 1))),
    "cube": Spec(E3, (0, 0, 0, 1, 1, 1), ((0,) * 3, (1,) * 3)),
    "perturbed-simplex": Spec(
        ((1, 0), (0, 1), (-1, -1)), (F(-1, 10), F(-1, 10), 1), ((0, 0), (1, 1))
    ),
    "hirzebruch17": Spec(HIRZEBRUCH, (0, 0, F(1, 17), F(20, 17)), ((0, 0), (2, 1))),
    "box": Spec(E3, (0, 0, 0, F(1, 3), F(1, 2), 1), ((0,) * 3, (1,) * 3)),
    "square4": Spec(E2, (0, 0, 4, 4), ((0, 0), (4, 4))),
    "hirzebruch2": Spec(HIRZEBRUCH, (0, 0, 2, 4), ((0, 0), (4, 2))),
    "cube2": Spec(E3, (0, 0, 0, 2, 2, 2), ((0,) * 3, (2,) * 3)),
    "cube-centred": Spec(E3, (1,) * 6, ((-1,) * 3, (1,) * 3)),
}

# exact facts known in closed form
K0 = {"perturbed-simplex": 3, "hirzebruch17": 17, "box": 3}
VOLUME = {"simplex2": F(1, 2), "square4": 16, "hirzebruch2": 6, "cube2": 8}
SATURATION = {"simplex2": "fubini-study", "square4": "none", "hirzebruch2": "none", "cube2": "none"}


@dataclass(frozen=True)
class Transform:
    """x -> S x + t with (S x)_i = signs[i] * x[perm[i]]."""

    perm: tuple
    signs: tuple
    shift: tuple

    def apply(self, spec: Spec) -> tuple:
        normals, offsets = [], []
        for nu, c in zip(spec.normals, spec.offsets):
            new = tuple(s * nu[p] for s, p in zip(self.signs, self.perm))
            normals.append(new)
            offsets.append(F(c) - sum(a * b for a, b in zip(new, self.shift)))
        return tuple(normals), tuple(offsets)

    def axis(self, original: int) -> int:
        """The coordinate that the original axis `original` is mapped to."""
        return self.perm.index(original)


def draw_transform(seed: int, label: str, spec: Spec) -> Transform:
    """The seeded map of one input.  Only axes of equal extent trade places:
    toriceig scans lattice points axis by axis, and on the Hirzebruch-type
    polygon `bound_report` takes twice as long with its long side first, so
    a seed that swapped unequal sides would change the work."""
    rng = random.Random(f"{seed}/{label}")
    lo, hi = spec.box
    extent = [b - a for a, b in zip(lo, hi)]
    perm = list(range(spec.dim))
    for size in sorted(set(extent)):
        axes = [i for i in range(spec.dim) if extent[i] == size]
        for i, j in zip(axes, rng.sample(axes, len(axes))):
            perm[i] = j
    signs = tuple(rng.choice((-1, 1)) for _ in range(spec.dim))
    shift = tuple(rng.randint(-3, 3) for _ in range(spec.dim))
    return Transform(tuple(perm), signs, shift)


def polytope_json(normals, offsets) -> dict:
    def offset(c):
        c = F(c)
        return c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    return {
        "dim": len(normals[0]),
        "facets": [{"normal": list(nu), "offset": offset(c)} for nu, c in zip(normals, offsets)],
    }


@dataclass
class Outcome:
    """What one operation returned, judged against its oracle.

    `values` are compared exactly between traced and untraced passes;
    `abs_err` is |result - exact| where a closed form exists; `violation` is
    exact - lambda1T for Ritz upper bounds (negative when the bound holds).
    """

    ok: bool
    values: dict
    abs_err: Optional[float] = None
    violation: Optional[float] = None
    note: str = ""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    verify: Callable[[object], Outcome]
    argv: Optional[list] = None  # CLI arguments, for operations that run the CLI
    # Back-to-back calls per pass, each one a latency sample.  Sub-second
    # operations repeat so that their median rests on enough samples in a run
    # that makes only a few passes.
    repeat: int = 1


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    warmup: tuple = ()  # names of cheap operations run once before timing
    transforms: dict = field(default_factory=dict)


class Inputs:
    """Seeded, parsed input polytopes (parsed by toriceig's JSON reader)."""

    def __init__(self, T, seed: int):
        self.T = T
        self.seed = seed
        self.transforms: dict = {}
        self.dicts: dict = {}
        self.polytopes: dict = {}

    def get(self, name: str):
        if name not in self.polytopes:
            spec = BASE[name]
            tf = draw_transform(self.seed, name, spec)
            self.transforms[name] = tf
            self.dicts[name] = polytope_json(*tf.apply(spec))
            self.polytopes[name] = self.T.polytope_from_dict(self.dicts[name])
        return self.polytopes[name]


def _counts(name: str, ks) -> dict:
    spec = BASE[name]
    return {k: oracles.lattice_count(spec.normals, spec.offsets, spec.box, k) for k in ks}


def _lazy(fn):
    """Compute an oracle on first use, outside the timed region."""
    memo = []

    def get():
        if not memo:
            memo.append(fn())
        return memo[0]

    return get


# -- ritz ---------------------------------------------------------------------

# (polytope, degree, quadrature order, depth, tolerance on |lambda1T - exact|,
# calls per pass).  The order-3 rule at depth 2 is accurate to 1e-5 here; at
# depth 1 the cube rule is coarse (ROADMAP item 3), so its tolerance is 2e-3.
# The cases that take 0.25-0.5 s at the parent repeat: op_p50_s lands on them.
RITZ_CASES = (
    ("simplex2", 4, 3, 2, 1e-5, 1),
    ("simplex2", 6, 3, 2, 1e-5, 1),
    ("simplex2", 8, 3, 2, 1e-5, 3),
    ("square", 4, 3, 2, 1e-5, 1),
    ("square", 6, 3, 2, 1e-5, 1),
    ("square", 8, 3, 2, 1e-5, 3),
    ("cube", 4, 3, 1, 2e-3, 2),
    ("cube", 6, 3, 1, 2e-3, 1),
    ("cube", 8, 3, 1, 2e-3, 1),
    ("cube", 4, 3, 2, 1e-5, 1),
)
SWEEP_TOL = 1e-5
SWEEP_REPEAT = 2  # each sweep takes about 0.4 s at the parent


def ritz_outcome(lam: float, exact: float, tol: float, values: dict) -> Outcome:
    err = lam - exact
    return Outcome(
        ok=abs(err) <= tol,
        values=values,
        abs_err=abs(err),
        violation=-err,
        note=f"lambda1T={lam!r} exact={exact} tol={tol}",
    )


def _ritz_op(T, inputs: Inputs, name, degree, order, depth, tol, repeat) -> Op:
    P = inputs.get(name)
    exact = oracles.LAMBDA1[name]

    def call():
        Q = T.build_quadrature(P, order, depth)
        return T.lambda1_invariant(T.guillemin(P), degree, Q)

    def verify(r):
        values = {"lambda1T": r.lambda1T, "basis": r.basis_size, "nodes": r.quad_nodes}
        return ritz_outcome(r.lambda1T, exact, tol, values)

    return Op(f"ritz/{name}/d{degree}/depth{depth}", call, verify, repeat=repeat)


def _monotone(values, decreasing: bool) -> bool:
    pairs = zip(values, values[1:])
    return all(b < a for a, b in pairs) if decreasing else all(b > a for a, b in pairs)


def _sweep_uc_op(T, inputs: Inputs) -> Op:
    P = inputs.get("square")
    axis = inputs.transforms["square"].axis(0)
    c_list = [0.0, 1.0, 10.0, 100.0]

    def call():
        return T.sweep_uc(P, axis, c_list)

    def verify(r):
        lams = [lam for _c, lam in r.rows]
        out = ritz_outcome(lams[0], oracles.LAMBDA1["square"], SWEEP_TOL, {"rows": lams})
        out.ok = out.ok and _monotone(lams, decreasing=True) and not r.trend_violations
        out.ok = out.ok and all(0.0 < lam for lam in lams)
        out.note += f"; rows={lams} (decreasing in c)"
        return out

    return Op("ritz/sweep_uc/square", call, verify, repeat=SWEEP_REPEAT)


def _sweep_dilation_op(T, inputs: Inputs) -> Op:
    P = inputs.get("square")
    s_list = [2.0, 1.5, 1.1, 1.01]
    floor = oracles.LAMBDA1["square"] - SWEEP_TOL

    def call():
        return T.sweep_dilation(P, s_list)

    def verify(r):
        lams = [lam for _s, lam in r.rows]
        ok = _monotone(lams, decreasing=False) and not r.trend_violations
        ok = ok and all(lam >= floor for lam in lams)
        return Outcome(ok, {"rows": lams}, note=f"rows={lams} (increasing as s -> 1, >= 4)")

    return Op("ritz/sweep_dilation/square", call, verify, repeat=SWEEP_REPEAT)


def build_ritz(T, seed: int) -> Workload:
    inputs = Inputs(T, seed)
    ops = [_ritz_op(T, inputs, *case) for case in RITZ_CASES]
    ops += [_sweep_uc_op(T, inputs), _sweep_dilation_op(T, inputs)]
    warm = ("ritz/simplex2/d4/depth2", "ritz/cube/d4/depth1")
    return Workload("ritz", seed, ops, warm, inputs.transforms)


# -- lattice ------------------------------------------------------------------


def _bound_report_op(T, inputs: Inputs, name: str, repeat: int) -> Op:
    P = inputs.get(name)
    k0 = K0[name]
    counts = _lazy(lambda: _counts(name, range(k0, k0 + 5)))

    def verify(report):
        exact = {k: oracles.bly_bound(P.dim, k, n) for k, n in counts().items()}
        got = {b.k_used: b.bound for b in report.bounds}
        n_ok = all(b.n_k == counts()[b.k_used] - 1 for b in report.bounds if b.k_used in exact)
        ok = report.k0 == k0 and got == exact and n_ok
        ok = ok and report.recommended == min(exact.values()) and report.integral_bound is None
        err = max((abs(float(got[k] - v)) for k, v in exact.items() if k in got), default=None)
        values = {"k0": report.k0, "bounds": [str(b.bound) for b in report.bounds]}
        return Outcome(ok, values, abs_err=err, note=f"k0={report.k0} (exact {k0})")

    return Op(f"lattice/bound_report/{name}", lambda: T.bound_report(P), verify, repeat=repeat)


def _kpk_op(T, inputs: Inputs) -> Op:
    name = "perturbed-simplex"
    P = inputs.get(name)
    k0 = K0[name]
    count = _lazy(lambda: _counts(name, [k0])[k0])

    def verify(report):
        expected = {
            "k": k0,
            "is_integral": True,
            "is_delzant": True,
            "lattice_count_matches": True,
            "n_k": count() - 1,
        }
        err = abs(report["n_k"] - expected["n_k"]) if "n_k" in report else None
        return Outcome(report == expected, dict(report), abs_err=err)

    return Op(f"lattice/check_kpk_integral/{name}", lambda: P.check_kpk_integral(k0), verify)


def _lattice_points_op(T, inputs: Inputs, name: str, k: int) -> Op:
    P = inputs.get(name)
    count = _lazy(lambda: _counts(name, [k])[k])

    def verify(data):
        ok = data.n_k == count() - 1 and len(data.points) == count()
        return Outcome(ok, {"n_k": data.n_k}, abs_err=float(abs(data.n_k + 1 - count())))

    return Op(f"lattice/lattice_points/{name}/k{k}", lambda: P.lattice_points(k), verify)


def build_lattice(T, seed: int) -> Workload:
    inputs = Inputs(T, seed)
    # Calls per pass.  The reports take about 0.02, 0.3 and 0.2 s at the
    # parent; op_p50_s lands between the last two.
    repeats = {"perturbed-simplex": 1, "hirzebruch17": 4, "box": 5}
    ops = [_bound_report_op(T, inputs, name, n) for name, n in repeats.items()]
    ops += [
        _kpk_op(T, inputs),
        _lattice_points_op(T, inputs, "square", 200),
        _lattice_points_op(T, inputs, "cube", 30),
    ]
    warm = ("lattice/bound_report/perturbed-simplex",)
    return Workload("lattice", seed, ops, warm, inputs.transforms)


# -- moment -------------------------------------------------------------------

BALANCE_TOL = 1e-9  # recomputed balance residual (the solver stops at 1e-10)
KE_TOL = 1e-8


def _embedding_op(T, inputs: Inputs, name: str) -> Op:
    P = inputs.get(name)
    count = _lazy(lambda: _counts(name, [1])[1])

    def call():
        E = T.build_embedding(P)
        u = T.guillemin(E.polytope)
        Q = T.build_quadrature(E.polytope, 3, 2)
        weights = T.balance(E, u, Q)
        return E, Q, weights, T.saturation_check(E, u, weights, Q)

    def verify(result):
        E, Q, weights, sat = result
        residual = oracles.balance_residual(
            Q.nodes, Q.weights, E.polytope.normals, E.polytope.offsets, E.points,
            weights.alpha, VOLUME[name],
        )
        ok = E.count == count() and residual <= BALANCE_TOL
        ok = ok and abs(float(sum(weights.alpha)) - 1.0) <= 1e-12 and min(weights.alpha) > 0
        ok = ok and sat.classification == SATURATION[name]
        values = {
            "count": E.count,
            "iterations": weights.iterations,
            "alpha": [float(a) for a in weights.alpha],
            "r1": sat.r1,
            "r2": sat.r2,
            "classification": sat.classification,
        }
        note = f"residual={residual:.3e} (tol {BALANCE_TOL}) class={sat.classification}"
        return Outcome(ok, values, note=note)

    return Op(f"moment/balance/{name}", call, verify)


def _ke_op(T, inputs: Inputs, name: str, potential: str) -> Op:
    P = inputs.get(name)
    if potential == "guillemin":
        exact, method = oracles.KE_LAMBDA[name], "auto"
    else:  # dilation(s=1.5): not Kahler-Einstein, finite-difference derivatives
        exact, method = None, "fd"

    def call():
        u = T.guillemin(P) if exact is not None else T.dilation(P, 1.5)
        return T.ke_check(u, samples=400, method=method)

    def verify(report):
        values = {"lambda_hat": report.lambda_hat, "residual_max": report.residual_max}
        if exact is None:
            ok = not report.is_ke and math.isfinite(report.lambda_hat) and math.isfinite(report.residual_max)
            return Outcome(ok, values, note=f"is_ke={report.is_ke} (expected False)")
        err = abs(report.lambda_hat - exact)
        ok = err <= KE_TOL and report.is_ke
        return Outcome(ok, values, abs_err=err, note=f"lambda_hat={report.lambda_hat!r} exact={exact}")

    return Op(f"moment/ke_check/{name}/{potential}", call, verify)


def build_moment(T, seed: int) -> Workload:
    inputs = Inputs(T, seed)
    ops = [_embedding_op(T, inputs, name) for name in ("simplex2", "square4", "hirzebruch2", "cube2")]
    ops += [
        _ke_op(T, inputs, "simplex2", "guillemin"),
        _ke_op(T, inputs, "square", "guillemin"),
        _ke_op(T, inputs, "cube-centred", "dilation"),
    ]
    warm = ("moment/balance/simplex2", "moment/ke_check/simplex2/guillemin")
    return Workload("moment", seed, ops, warm, inputs.transforms)


# -- cli ----------------------------------------------------------------------


def run_cli(argv, traced_to: Optional[Path] = None) -> subprocess.CompletedProcess:
    """One CLI call in a fresh interpreter; with `traced_to`, the spans of
    the call are written there."""
    if traced_to is None:
        cmd = [sys.executable, "-m", "toriceig.cli", *argv]
    else:
        launcher = Path(__file__).resolve().parent / "traced_cli.py"
        cmd = [sys.executable, str(launcher), str(traced_to), *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=120)


def _cli_json(proc) -> dict:
    if proc.returncode != oracles.EXIT_OK:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


def _cli_csv(proc) -> list:
    if proc.returncode != oracles.EXIT_OK:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    lines = proc.stdout.strip().splitlines()
    if lines[0] != "param,lambda1T,degree,quad_nodes":
        raise RuntimeError(f"bad CSV header {lines[0]!r}")
    return [float(line.split(",")[1]) for line in lines[1:]]


def _bound_rows_ok(rows, dim, counts) -> bool:
    return all(
        F(str(row["bound"])) == oracles.bly_bound(dim, row["k_used"], counts[row["k_used"]])
        and row["n_k"] == counts[row["k_used"]] - 1
        for row in rows
    )


def build_cli(T, seed: int, workdir: Path) -> Workload:
    inputs = Inputs(T, seed)
    workdir = Path(workdir) / f"cli-inputs-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in ("simplex2", "perturbed-simplex", "interval01", "intervalC"):
        inputs.get(name)
        text = json.dumps(inputs.dicts[name], indent=2) + "\n"
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
        T.load_polytope(paths[name])  # parse as the CLI will
    truncated = workdir / "truncated.json"
    truncated.write_text(paths["simplex2"].read_text(encoding="utf-8")[:40], encoding="utf-8")
    axis = inputs.transforms["interval01"].axis(0)
    ps_counts = _lazy(lambda: _counts("perturbed-simplex", range(3, 8)))
    s2_count = _lazy(lambda: _counts("simplex2", [1])[1])

    def op(name, argv, verify):
        return Op(f"cli/{name}", lambda: run_cli(argv), verify, argv=argv)

    def v_info(proc):
        r = _cli_json(proc)
        ok = r["polytope"] == inputs.dicts["simplex2"] and r["dim"] == 2 and r["num_facets"] == 3
        ok = ok and r["is_delzant"] and r["is_integral"] and len(r["vertices"]) == 3
        return Outcome(ok, {"vertices": r["vertices"]})

    def v_bound(proc):
        r = _cli_json(proc)
        exact = min(oracles.bly_bound(2, k, n) for k, n in ps_counts().items())
        ok = r["k0"] == K0["perturbed-simplex"] and _bound_rows_ok(r["bounds"], 2, ps_counts())
        ok = ok and F(str(r["recommended"])) == exact
        err = abs(float(F(str(r["recommended"])) - exact))
        return Outcome(ok, {"bounds": r["bounds"]}, abs_err=err)

    def v_lambda1t(proc):
        r = _cli_json(proc)
        values = {"lambda1T": r["lambda1T"], "basis": r["basis_size"], "nodes": r["quad_nodes"]}
        return ritz_outcome(r["lambda1T"], oracles.LAMBDA1["simplex2"], 1e-5, values)

    def v_sweep_uc(proc):
        lams = _cli_csv(proc)
        out = ritz_outcome(lams[0], oracles.LAMBDA1["interval"], SWEEP_TOL, {"rows": lams})
        out.ok = out.ok and len(lams) == 4 and _monotone(lams, decreasing=True)
        return out

    def v_sweep_dilation(proc):
        lams = _cli_csv(proc)
        ok = len(lams) == 4 and _monotone(lams, decreasing=False)
        ok = ok and all(lam >= oracles.LAMBDA1["intervalC"] - SWEEP_TOL for lam in lams)
        return Outcome(ok, {"rows": lams}, note=f"rows={lams} (increasing as s -> 1, >= 2)")

    def v_ke(proc):
        r = _cli_json(proc)
        return Outcome(r["is_ke"] is False, {"lambda_hat": r["lambda_hat"]}, note="uc metric is not KE")

    def v_balance(proc):
        r = _cli_json(proc)
        alpha = r["balance"]["alpha"]
        # the reflection of the interval swaps its two lattice points
        ok = r["n_lattice"] == 2 and r["balance"]["residual"] < 1e-10
        ok = ok and all(abs(a - 0.5) <= 1e-12 for a in alpha)
        return Outcome(ok, {"alpha": alpha}, abs_err=max(abs(a - 0.5) for a in alpha))

    def v_saturate(proc):
        r = _cli_json(proc)
        alpha = r["balance"]["alpha"]
        exact = oracles.bly_bound(2, 1, s2_count())
        ok = r["saturation"]["classification"] == SATURATION["simplex2"]
        ok = ok and F(str(r["bounds"]["recommended"])) == exact
        ok = ok and all(abs(a - 1 / 3) <= 1e-12 for a in alpha)
        return Outcome(ok, {"alpha": alpha, "saturation": r["saturation"]},
                       abs_err=max(abs(a - 1 / 3) for a in alpha))

    def v_malformed(proc):
        ok = proc.returncode == oracles.EXIT_INVALID and proc.stdout == ""
        return Outcome(ok, {"exit": proc.returncode}, note=f"exit {proc.returncode} (expected 2)")

    s2, ps = str(paths["simplex2"]), str(paths["perturbed-simplex"])
    i01, ic = str(paths["interval01"]), str(paths["intervalC"])
    ops = [
        op("info", ["info", s2], v_info),
        op("bound", ["bound", ps], v_bound),
        op("lambda1t", ["lambda1t", s2], v_lambda1t),
        op("sweep-uc", ["sweep-uc", i01, "--axis", str(axis), "--c", "0,1,10,100", "--output", "csv"], v_sweep_uc),
        op("sweep-dilation", ["sweep-dilation", ic, "--s", "2,1.5,1.1,1.01", "--output", "csv"], v_sweep_dilation),
        op("ke-check", ["ke-check", i01, "--potential", f"uc:i={axis},c=5"], v_ke),
        op("balance", ["balance", i01], v_balance),
        op("saturate", ["saturate", s2], v_saturate),
        op("malformed", ["info", str(truncated)], v_malformed),
    ]
    return Workload("cli", seed, ops, ("cli/info",), inputs.transforms)


NAMES = ("ritz", "lattice", "moment", "cli")


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Make the seeded inputs of one workload, parsed by toriceig."""
    import toriceig as T

    if name == "ritz":
        return build_ritz(T, seed)
    if name == "lattice":
        return build_lattice(T, seed)
    if name == "moment":
        return build_moment(T, seed)
    if name == "cli":
        return build_cli(T, seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choices: {NAMES}")
