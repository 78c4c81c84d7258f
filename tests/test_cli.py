"""CLI contract: exit codes, JSON round-trips, CSV schema, determinism."""

import ast
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import toriceig
from oracles import MISTYPED_POLYGONS
from toriceig import LabelledPolytope, example_path
from toriceig.cli import COMMANDS, main
from toriceig.data import EXAMPLES

INTERVAL01 = str(example_path("interval01"))
INTERVALC = str(example_path("intervalC"))
SIMPLEX2 = str(example_path("simplex2"))
THIRD = str(example_path("interval-third"))
SQUARE = str(example_path("square"))
UNIT_INTERVAL = [{"normal": [1], "offset": 0}, {"normal": [-1], "offset": 1}]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env(**extra):
    """os.environ with this checkout's src/ first on PYTHONPATH, plus extra."""
    src = str(Path(toriceig.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


class TestInfo:
    def test_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "info", SIMPLEX2)
        assert code == 0
        report = json.loads(out)
        with open(SIMPLEX2) as fh:
            original = json.load(fh)
        assert report["polytope"] == original
        assert report["is_delzant"] and report["is_integral"]

    def test_all_bundled_round_trip(self, capsys):
        for name in ("interval01", "intervalC", "square", "interval-third",
                     "perturbed-simplex"):
            path = str(example_path(name))
            code, out, _ = run_cli(capsys, "info", path)
            assert code == 0
            with open(path) as fh:
                assert json.loads(out)["polytope"] == json.load(fh)


class TestBound:
    def test_simplex(self, capsys):
        code, out, _ = run_cli(capsys, "bound", SIMPLEX2)
        assert code == 0
        report = json.loads(out)
        assert report["k0"] == 1
        assert report["is_integral"] is True
        assert report["recommended"] == 6
        assert report["integral_bound"]["bound"] == 6

    def test_interval_third(self, capsys):
        code, out, _ = run_cli(capsys, "bound", THIRD)
        assert code == 0
        report = json.loads(out)
        assert report["k0"] == 3
        assert report["bounds"][0]["bound"] == 12

    def test_square_fractions(self, capsys):
        code, out, _ = run_cli(capsys, "bound", SQUARE)
        assert code == 0
        report = json.loads(out)
        assert report["recommended"] == "16/3"
        assert [b["bound"] for b in report["bounds"]] == ["16/3", 9, "64/5", "50/3", "144/7"]

    @pytest.mark.parametrize("data,k0,mistyped", MISTYPED_POLYGONS)
    def test_mistyped_k_refused(self, capsys, tmp_path, data, k0, mistyped):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "bound", str(path))
        assert code == 0
        assert [b["k_used"] for b in json.loads(out)["bounds"]] == [
            k for k in range(k0, k0 + 5) if k not in mistyped
        ]
        code, out, err = run_cli(capsys, "bound", str(path), "--k", str(mistyped[0]))
        assert code == 2 and out == ""
        assert f"k={mistyped[0]}: kP_k does not have the combinatorial type of P" in err
        code, out, _ = run_cli(capsys, "bound", str(path), "--k", str(k0 + 4))
        assert code == 0 and json.loads(out)["single_k"]["k_used"] == k0 + 4

    def test_single_k_searches_k0_once(self, capsys, monkeypatch):
        # one k0 search, whose first scan window holds k0 = 3 and the rows
        # k = 4..7, and one more scan for the single k; nothing is listed
        calls = {"k0_rows": 0, "_scan": 0, "lattice_points": 0}
        for name in calls:
            original = getattr(LabelledPolytope, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(LabelledPolytope, name, counted)
        code, out, _ = run_cli(capsys, "bound", THIRD, "--k", "4")
        assert code == 0 and calls == {"k0_rows": 1, "_scan": 2, "lattice_points": 0}
        assert json.loads(out)["single_k"] == {
            "bound": 16, "is_integer_bound": True, "k_used": 4, "n_k": 1
        }
        code, _, err = run_cli(capsys, "bound", THIRD, "--k", "2")
        assert code == 2 and "k=2 is below k0=3" in err


class TestLambda1t:
    def test_interval(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda1t", INTERVAL01, "--potential", "guillemin",
            "--degree", "4", "--quad-order", "3", "--quad-depth", "3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["lambda1T"] == pytest.approx(4.0, abs=1e-4)
        assert report["config"]["degree"] == 4

    def test_dilation_potential(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda1t", INTERVALC, "--potential", "dilation:s=2", "--degree", "4"
        )
        assert code == 0
        assert json.loads(out)["lambda1T"] > 2.0

    def test_deep_rule_under_address_limit(self):
        # 1,327,104 nodes: a full degree-8 table would hold 45 x 1,327,104
        # entries, past MAX_TABLE; the solve streams it in blocks and fits
        # under a 2 GB address-space limit
        limit = 2_000_000 * 1024
        proc = subprocess.run(
            [sys.executable, "-m", "toriceig.cli", "lambda1t", SQUARE, "--degree", "8",
             "--quad-order", "9", "--quad-depth", "6"],
            capture_output=True, text=True, env=subprocess_env(OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["quad_nodes"] == 1_327_104
        assert abs(report["lambda1T"] - 4.0) <= 1e-10


class TestSweeps:
    def test_dilation_csv_increasing(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-dilation", INTERVALC, "--s", "2,1.5,1.1,1.01", "--output", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,lambda1T,degree,quad_nodes"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 4
        assert values == sorted(values)

    def test_uc_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-uc", INTERVAL01, "--c", "0,10,1000", "--degree", "4"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["lambda1T"] > rows[-1]["lambda1T"]

    def test_csv_deterministic(self, capsys):
        argv = ("sweep-uc", INTERVAL01, "--c", "0,1,10", "--degree", "4", "--output", "csv")
        code, a, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv) == (0, a, "")
        assert a.splitlines()[0] == "param,lambda1T,degree,quad_nodes"

    def test_csv_rejected_elsewhere(self, capsys):
        code, _, _ = run_cli(capsys, "info", SIMPLEX2, "--output", "csv")
        assert code == 2


class TestTextOutput:
    @pytest.mark.parametrize("command", ["info", "bound"])
    def test_lines_flatten_the_json_report(self, capsys, command):
        # one `key = value` line per leaf of the JSON report, the key its
        # dotted path; a value prints as a Python literal or a bare string
        code, out, _ = run_cli(capsys, command, SIMPLEX2)
        assert code == 0
        flat = {}

        def flatten(prefix, value):
            if isinstance(value, dict):
                for key, v in value.items():
                    flatten(f"{prefix}{key}.", v)
            else:
                flat[prefix[:-1]] = value

        flatten("", json.loads(out))
        flat["config.output"] = "text"
        code, out, _ = run_cli(capsys, command, SIMPLEX2, "--output", "text")
        assert code == 0
        lines = [line.split(" = ", 1) for line in out.splitlines()]
        text = {}
        for key, value in lines:
            try:
                text[key] = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                text[key] = value
        assert len(text) == len(lines) and text == flat


class TestKeBalanceSaturate:
    def test_ke_check_guillemin(self, capsys):
        code, out, _ = run_cli(capsys, "ke-check", INTERVAL01)
        assert code == 0
        report = json.loads(out)
        assert report["is_ke"] is True
        assert report["lambda_hat"] == pytest.approx(2.0, abs=1e-8)

    def test_ke_check_perturbed(self, capsys):
        code, out, _ = run_cli(capsys, "ke-check", INTERVAL01, "--potential", "uc:i=0,c=5")
        assert code == 0
        assert json.loads(out)["is_ke"] is False

    def test_balance(self, capsys):
        code, out, _ = run_cli(capsys, "balance", INTERVAL01)
        assert code == 0
        report = json.loads(out)["balance"]
        assert report["residual"] < 1e-10
        assert report["alpha"] == pytest.approx([0.5, 0.5])

    def test_saturate_schema(self, capsys):
        code, out, _ = run_cli(capsys, "saturate", SIMPLEX2)
        assert code == 0
        report = json.loads(out)
        assert set(report) >= {"bounds", "balance", "saturation", "config"}
        assert report["saturation"]["saturated"] is True
        assert report["saturation"]["classification"] == "fubini-study"
        assert report["bounds"]["recommended"] == 6

    @pytest.mark.parametrize("kind", ["guillemin", "uc:i=0,c=2.5", "dilation:s=1.5", "poly"])
    @pytest.mark.parametrize("command", ["lambda1t", "ke-check", "balance", "saturate"])
    def test_every_potential_kind(self, capsys, tmp_path, command, kind):
        if kind == "poly":
            coeffs = tmp_path / "v.json"
            coeffs.write_text(
                '[{"exponents": [2, 0], "coeff": 0.3}, {"exponents": [1, 1], "coeff": 0.1}]'
            )
            kind = f"poly:{coeffs}"
        code, out, err = run_cli(capsys, command, SIMPLEX2, "--potential", kind)
        assert code == 0, err
        assert json.loads(out)["config"]["potential"] == kind

    @pytest.mark.parametrize("name", ["interval01", "intervalC", "simplex2", "square"])
    @pytest.mark.parametrize("command", ["balance", "saturate"])
    def test_dilation_on_embedding(self, capsys, command, name):
        # the potential lives on the embedding's own translated polytope
        polytope = str(example_path(name))
        code, _, err = run_cli(capsys, command, polytope, "--potential", "dilation:s=1.5")
        assert code == 0, err

    def test_balance_converges_undamped(self, capsys):
        # the full multiplicative step converges where a half step needed
        # more than the default 200 iterations
        code, out, _ = run_cli(capsys, "balance", INTERVALC, "--potential", "uc:i=0,c=2.5")
        assert code == 0
        assert json.loads(out)["balance"]["iterations"] < 200


QUAD_DEFAULTS = {"quad_order": 3, "quad_depth": 2}


class TestConfigEcho:
    # every flag a subcommand declares, with its default value
    FLAGS = {
        "info": {},
        "bound": {"k": None, "k_max": 64},
        "lambda1t": {"potential": "guillemin", "degree": 6, **QUAD_DEFAULTS},
        "sweep-uc": {"degree": 6, **QUAD_DEFAULTS, "c": [0.0, 1.0], "axis": 0},
        "sweep-dilation": {"degree": 6, **QUAD_DEFAULTS, "s": [2.0]},
        "ke-check": {"potential": "guillemin", "tol": None, "samples": 40},
        "balance": {"potential": "guillemin", **QUAD_DEFAULTS, "tol": 1e-10, "max_iter": 200},
        "saturate": {
            "potential": "guillemin", **QUAD_DEFAULTS, "tol": None, "max_iter": 200, "k_max": 64
        },
    }
    REQUIRED = {"sweep-uc": ("--c", "0,1"), "sweep-dilation": ("--s", "2")}

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_defaults(self, capsys, command):
        code, out, err = run_cli(capsys, command, INTERVAL01, *self.REQUIRED.get(command, ()))
        assert code == 0, err
        assert json.loads(out)["config"] == {
            "command": command, "polytope": INTERVAL01, "output": "json", **self.FLAGS[command]
        }


def key_paths(value, prefix=""):
    """The dotted key paths of a report; "[]" marks the dicts of a list."""
    if isinstance(value, dict):
        return set().union(*(key_paths(v, f"{prefix}{key}.") for key, v in value.items()))
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return set().union(*(key_paths(v, f"{prefix[:-1]}[].") for v in value))
    return {prefix[:-1]}


BLY = ("k_used", "n_k", "bound", "is_integer_bound")
BOUNDS = (
    "k0", "recommended", *(f"bounds[].{key}" for key in BLY),
    *(f"integral_bound.{key}" for key in BLY),
)
BALANCE = ("alpha", "alpha_over_alpha0", "residual", "iterations")


class TestReportSchema:
    # The key paths of each default JSON report on a bundled example, past
    # its config (TestConfigEcho pins that).  A new result field that reaches
    # a default report fails here until it is listed.
    REPORTS = {
        "info": (("info", SIMPLEX2), [
            "dim", "num_facets", "vertices", "is_delzant", "is_integral",
            "polytope.dim", "polytope.facets[].normal", "polytope.facets[].offset",
        ]),
        "bound": (("bound", SIMPLEX2), ["is_integral", *BOUNDS]),
        "bound-k": (
            ("bound", SIMPLEX2, "--k", "4"),
            ["is_integral", *BOUNDS, *(f"single_k.{key}" for key in BLY)],
        ),
        "lambda1t": (("lambda1t", SIMPLEX2, "--degree", "4"), [
            "degree", "basis_size", "eigenvalues", "lambda1T", "mass_condition",
            "stiffness_condition", "quad_nodes",
        ]),
        "sweep-uc": (("sweep-uc", INTERVAL01, "--c", "0,1", "--degree", "4"), [
            "parameter", "rows[].c", "rows[].lambda1T", "degree", "quad_nodes",
            "trend_violations",
        ]),
        "sweep-dilation": (("sweep-dilation", INTERVALC, "--s", "2,1.5", "--degree", "4"), [
            "parameter", "rows[].s", "rows[].lambda1T", "degree", "quad_nodes",
            "trend_violations",
        ]),
        "ke-check": (("ke-check", SIMPLEX2), [
            "lambda_hat", "xbar", "residual_max", "residual_l2", "is_ke",
        ]),
        "balance": (
            ("balance", SIMPLEX2),
            ["n_lattice", *(f"balance.{key}" for key in BALANCE)],
        ),
        "saturate": (("saturate", SIMPLEX2), [
            *(f"balance.{key}" for key in BALANCE),
            *(f"saturation.{key}" for key in ("r1", "r2", "saturated", "classification", "tol")),
            *(f"bounds.{key}" for key in BOUNDS),
        ]),
    }

    def test_every_command_covered(self):
        assert {argv[0] for argv, _ in self.REPORTS.values()} == set(COMMANDS)

    @pytest.mark.parametrize("name", list(REPORTS))
    def test_key_paths(self, capsys, name):
        argv, paths = self.REPORTS[name]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        report = json.loads(out)
        assert report.pop("config")["command"] == argv[0]
        assert key_paths(report) == set(paths)

    # exact rationals: these reports do not depend on BLAS or the platform
    THIRD_BLY = [
        {"k_used": 3, "n_k": 1, "bound": 12, "is_integer_bound": True},
        {"k_used": 4, "n_k": 1, "bound": 16, "is_integer_bound": True},
        {"k_used": 5, "n_k": 1, "bound": 20, "is_integer_bound": True},
        {"k_used": 6, "n_k": 2, "bound": 18, "is_integer_bound": True},
        {"k_used": 7, "n_k": 2, "bound": 21, "is_integer_bound": True},
    ]
    EXACT = {
        "info": ((), {
            "config": {"command": "info", "output": "json"},
            "dim": 1,
            "num_facets": 2,
            "vertices": [["0"], ["1/3"]],
            "is_delzant": True,
            "is_integral": False,
            "polytope": {
                "dim": 1,
                "facets": [{"normal": [1], "offset": 0}, {"normal": [-1], "offset": "1/3"}],
            },
        }),
        "bound": (("--k", "4"), {
            "config": {"command": "bound", "output": "json", "k": 4, "k_max": 64},
            "is_integral": False,
            "k0": 3,
            "bounds": THIRD_BLY,
            "integral_bound": None,
            "recommended": 12,
            "single_k": THIRD_BLY[1],
        }),
    }

    @pytest.mark.parametrize("command", list(EXACT))
    def test_exact_interval_third(self, capsys, command):
        flags, expected = self.EXACT[command]
        code, out, _ = run_cli(capsys, command, THIRD, *flags)
        assert code == 0
        report = json.loads(out)
        assert report["config"].pop("polytope") == THIRD
        assert report == expected


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "info", "/nonexistent/poly.json")
        assert code == 2
        assert "invalid input" in err

    def test_nonprimitive_normal(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"dim": 1, "facets": [{"normal": [2], "offset": 0}, {"normal": [-1], "offset": 1}]}'
        )
        code, _, err = run_cli(capsys, "info", str(bad))
        assert code == 2
        assert "facet 0" in err

    @pytest.mark.parametrize("command", ["info", "lambda1t"])
    def test_redundant_facet_1d(self, capsys, tmp_path, command):
        # x <= 3 carries no vertex of [0, 1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 1, "facets": [
            {"normal": [1], "offset": 0},
            {"normal": [-1], "offset": 1},
            {"normal": [-1], "offset": 3},
        ]}))
        code, out, err = run_cli(capsys, command, str(bad))
        assert code == 2 and out == ""
        assert "facet 2 is redundant" in err and "Traceback" not in err

    def test_bound_non_delzant(self, capsys, tmp_path):
        orb = tmp_path / "orb.json"
        orb.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "facets": [
                        {"normal": [1, 0], "offset": 0},
                        {"normal": [0, 1], "offset": 0},
                        {"normal": [-1, -2], "offset": 2},
                    ],
                }
            )
        )
        # integral but not Delzant: no bound, with or without --k
        for k in ((), ("--k", "1"), ("--k", "2")):
            code, out, err = run_cli(capsys, "bound", str(orb), *k)
            assert (code, out, err) == (2, "", "invalid input: bounds require a Delzant polytope\n")

    @pytest.mark.parametrize("k", [0, -1])
    def test_bound_k_not_positive(self, capsys, k):
        code, out, err = run_cli(capsys, "bound", SIMPLEX2, "--k", str(k))
        assert (code, out, err) == (2, "", f"invalid input: k={k} is below k0=1\n")

    def test_balance_no_convergence(self, capsys):
        code, _, err = run_cli(
            capsys, "balance", INTERVAL01, "--potential", "uc:i=0,c=5",
            "--tol", "1e-14", "--max-iter", "0",
        )
        assert code == 3
        assert "numerical failure" in err

    def test_balance_non_finite_step(self, capsys, tmp_path, recwarn):
        # x, y >= 0, y <= 3, x + 2y <= 9: the weights underflow part way, and
        # the run stops at that step without a warning or a NaN
        trap = tmp_path / "trap.json"
        normals, offsets = [[1, 0], [0, 1], [0, -1], [-1, -2]], [0, 0, 3, 9]
        trap.write_text(json.dumps(
            {"dim": 2, "facets": [{"normal": n, "offset": c} for n, c in zip(normals, offsets)]}
        ))
        code, out, err = run_cli(
            capsys, "balance", str(trap), "--potential", "uc:i=0,c=10", "--max-iter", "5000"
        )
        assert code == 3 and out == ""
        assert "balance step 338 " in err and "nan" not in err.lower()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["balance", "saturate"])
    def test_negative_max_iter(self, capsys, command):
        code, out, err = run_cli(capsys, command, INTERVAL01, "--max-iter", "-1")
        assert code == 2 and out == ""
        assert "max_iter must be >= 0" in err

    @pytest.mark.parametrize("s", ["2,2,1.5", "2,1.5,1.5"])
    def test_sweep_dilation_repeated_s(self, capsys, s):
        # s must fall strictly; a repeated value printed the same row twice
        code, out, err = run_cli(capsys, "sweep-dilation", SQUARE, "--s", s, "--output", "csv")
        assert code == 2 and out == ""
        assert "strictly decreasing" in err

    def test_quad_depth_over_node_cap(self, capsys):
        # refused from the predicted node count, before any refinement
        code, out, err = run_cli(capsys, "lambda1t", SIMPLEX2, "--quad-depth", "40")
        assert code == 2 and out == ""
        assert "nodes, over" in err

    def test_degree_over_table_cap(self):
        # B = C(202, 2) - 1 = 20,300 basis functions, a 3.07 GiB mass matrix.
        # A 1 GB address-space limit on the child shows that the refusal comes
        # before any large allocation; a degree 4 run fits under it.
        limit = 1_000_000 * 1024

        def run(degree):
            return subprocess.run(
                [sys.executable, "-m", "toriceig.cli", "lambda1t", SIMPLEX2, "--degree", degree],
                capture_output=True, text=True, env=subprocess_env(OPENBLAS_NUM_THREADS="1"),
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
                timeout=120,
            )

        proc = run("200")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "degree 200 needs 20300 basis functions on 432 nodes" in proc.stderr
        assert run("4").returncode == 0

    def test_bound_k_over_lattice_cap(self):
        # simplex2 at k = 100,000 has 5,000,150,001 points, 74.5 GiB as one
        # int64 array, and 100,001 scan columns: under a 1 GB address-space
        # limit they are counted, not listed.  At k = 10**7 the 10**7 + 1
        # columns pass MAX_LATTICE, and the refusal comes before the scan
        # allocates them.
        limit = 1_000_000 * 1024

        def run(k):
            return subprocess.run(
                [sys.executable, "-m", "toriceig.cli", "bound", SIMPLEX2, "--k", k],
                capture_output=True, text=True, env=subprocess_env(OPENBLAS_NUM_THREADS="1"),
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
                timeout=120,
            )

        proc = run("100000")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["single_k"]["n_k"] == 5_000_150_000
        proc = run("10000000")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "k=10000000 needs 10000001 lattice columns" in proc.stderr

    def test_bound_k_past_int64(self, capsys):
        code, out, err = run_cli(capsys, "bound", INTERVAL01, "--k", str(10**19))
        assert code == 2 and out == ""
        assert err == (
            "invalid input: k=10000000000000000000: the lattice scan reaches "
            "10000000000000000001, past the int64 range\n"
        )

    def test_bad_potential_spec(self, capsys):
        code, _, _ = run_cli(capsys, "lambda1t", INTERVAL01, "--potential", "nonsense")
        assert code == 2
        # unknown, repeated and stray keys are refused, not ignored
        for spec in ("uc:i=0,c=2.5,s=3", "uc:i=0,c=2.5,i=1", "uc:c=2.5,i=0,junk"):
            code, out, err = run_cli(capsys, "lambda1t", SIMPLEX2, "--potential", spec)
            assert code == 2 and out == ""
            assert "bad potential spec" in err

    @pytest.mark.parametrize(
        "command,polytope,poly",
        [
            ("info", {"dim": 2, "facets": 5}, None),
            ("lambda1t", {"dim": 2, "facets": 5}, None),
            ("info", {"dim": 1, "facets": [{"normal": 1, "offset": 0}]}, None),
            ("lambda1t", {"dim": 1, "facets": [{"normal": 1, "offset": 0}]}, None),
            ("lambda1t", None, [1, 2]),
            ("info", {"dim": True, "facets": UNIT_INTERVAL}, None),
            ("info", {"dim": 1.9, "facets": UNIT_INTERVAL}, None),
            ("info", {"dim": "1", "facets": UNIT_INTERVAL}, None),
            ("info", {"facets": UNIT_INTERVAL}, None),
            ("info", {"dim": 1, "facets": [{"offset": 0}, UNIT_INTERVAL[1]]}, None),
            ("info", {"dim": 1, "facets": [{"normal": [1], "offset": "1/0"}, UNIT_INTERVAL[1]]}, None),
            ("info", {"dim": 1, "facets": [{"normal": [1], "offset": "abc"}, UNIT_INTERVAL[1]]}, None),
            ("info", {"dim": 1, "facets": [{"normal": [1], "offset": True}, UNIT_INTERVAL[1]]}, None),
            ("info", {"dim": 0, "facets": UNIT_INTERVAL}, None),
            ("info", {"dim": 2, "facets": UNIT_INTERVAL}, None),
        ],
    )
    def test_malformed_json_shapes(self, capsys, tmp_path, command, polytope, poly):
        path = INTERVAL01
        if polytope is not None:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(polytope))
        argv = [command, str(path)]
        if poly is not None:
            coeffs = tmp_path / "v.json"
            coeffs.write_text(json.dumps(poly))
            argv += ["--potential", f"poly:{coeffs}"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "invalid input" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("ke-check", "--potential", "uc:i=0,c=nan"),
            ("ke-check", "--potential", "uc:i=0,c=inf"),
            ("ke-check", "--potential", "dilation:s=inf"),
            ("sweep-uc", "--c", "0,nan"),
        ],
    )
    def test_non_finite_potential_parameters(self, capsys, argv):
        code, out, err = run_cli(capsys, argv[0], SQUARE, *argv[1:])
        assert code == 2 and out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("ke-check", SQUARE, "--tol", "nan"),
            ("balance", SIMPLEX2, "--tol", "nan"),
            ("saturate", SIMPLEX2, "--tol", "inf"),
        ],
    )
    def test_non_finite_tol(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "tol must be finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("balance", SIMPLEX2, "--tol", "-1"),
            ("ke-check", SIMPLEX2, "--tol", "0"),
            ("saturate", SIMPLEX2, "--tol", "-1"),
        ],
    )
    def test_non_positive_tol(self, capsys, argv):
        # balance ran all its iterations into exit 3, ke-check called the KE
        # simplex not KE and saturate called Fubini-Study "none"
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "tol must be > 0" in err

    @pytest.mark.parametrize(
        "entries",
        [
            [{"exponents": [1.5, 0], "coeff": 0.1}],
            [{"exponents": [True, 0], "coeff": 0.1}],
            [{"exponents": [1, 0], "coeff": True}],
            [{"exponents": [1, 0], "coeff": 0.1}, {"exponents": [1, 0], "coeff": 0.2}],
        ],
        ids=["fractional-exponent", "bool-exponent", "bool-coefficient", "repeated-exponents"],
    )
    def test_inexact_poly_file(self, capsys, tmp_path, entries):
        # each was read as some other polynomial (x^1, coefficient 1.0, the
        # last repeat) and ran with exit 0
        coeffs = tmp_path / "v.json"
        coeffs.write_text(json.dumps(entries))
        code, out, err = run_cli(
            capsys, "lambda1t", SIMPLEX2, "--degree", "3", "--potential", f"poly:{coeffs}"
        )
        assert code == 2 and out == ""
        assert "bad polynomial file" in err and "Traceback" not in err

    def test_thin_polytope_ke_check(self, capsys, tmp_path):
        # no Halton point of the box keeps a margin from the facets 1e-9 apart
        thin = tmp_path / "thin.json"
        thin.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "facets": [
                        {"normal": [1, 0], "offset": 0},
                        {"normal": [-1, 0], "offset": 1},
                        {"normal": [0, 1], "offset": 0},
                        {"normal": [0, -1], "offset": "1/1000000000"},
                    ],
                }
            )
        )
        code, _, err = run_cli(capsys, "ke-check", str(thin))
        assert code == 2
        assert "could not place 40 interior points" in err and "Traceback" not in err

    @pytest.mark.parametrize("coeff", ["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("command", ["lambda1t", "ke-check", "balance"])
    def test_non_finite_poly_coefficient(self, capsys, tmp_path, command, coeff):
        # Python's json reads NaN and Infinity; validate's margins would pass them
        coeffs = tmp_path / "v.json"
        coeffs.write_text(f'[{{"exponents": [2], "coeff": {coeff}}}]')
        code, out, err = run_cli(capsys, command, INTERVAL01, "--potential", f"poly:{coeffs}")
        assert code == 2 and out == ""
        assert "coefficients must be finite" in err

    def test_indefinite_poly_potential(self, capsys, tmp_path):
        coeffs = tmp_path / "v.json"
        coeffs.write_text('[{"exponents": [2], "coeff": -10.0}]')
        code, _, err = run_cli(capsys, "lambda1t", INTERVAL01, "--potential", f"poly:{coeffs}")
        assert code == 3
        assert "numerical failure" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("info", SIMPLEX2),
            ("bound", THIRD),
            ("lambda1t", INTERVAL01, "--degree", "4"),
            ("sweep-uc", INTERVAL01, "--c", "0,5", "--degree", "3", "--output", "csv"),
            ("sweep-dilation", INTERVALC, "--s", "2,1.5", "--degree", "3", "--output", "csv"),
            ("ke-check", INTERVAL01),
            ("balance", INTERVAL01),
            ("saturate", INTERVAL01),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestGolden:
    """The `info`, `bound` and `bound --k <k0 + 5>` reports of every bundled
    example, byte for byte, pinned by SHA-256.  They are exact, so they do not
    depend on the BLAS thread count.  The file is copied to the working
    directory so that the echoed path is the bare file name."""

    SHA256 = {
        "interval01": (
            "f2840448cbc0af421de2a679ee320b7d4b107ed794e80749eeb145f4ac79fda1",
            "1f69eab3b21896bc4c3795d611db62765b91bfb3afae508c1f28fe47e5f8104a",
            "c5725a8bcae2521689acd8bb1b148f739ee9db59cd3be9b5e1a933b0fe697ef4",
        ),
        "intervalC": (
            "46487e76bcd1e9360c783b61a1ae245c5d2aeb8824c59f725f6ea58e34672873",
            "d7a00a4ac5a9a4e65160f7c00738ce5cc0bfc1d1c0844d164501ca2a8e035a58",
            "c617de1d97c9a866febdf45545bf1738a2024c26164800dce1b72cbe0e480a88",
        ),
        "simplex2": (
            "6dd4e5519aa7b749e242a0f973b7b7789baa567d1a34c3b5001a002015f06fc4",
            "974dcb2950105334a6edb3fc5550541a1953967e5104b8c6b7a1cc9788fcefc0",
            "a22b906c2e68f11497c3742facc599168aa2507c5c08961adb78940d3acf569e",
        ),
        "square": (
            "c760c6d8865f3a353eb7c174dfab6b02aaedba268fdec5d8c5e224c7e0be0fa9",
            "c8918dce0471fa6e622b6b1f428ab6c7aedb6a81c381fc77a676c68dc0b0d0e8",
            "c682389ad8c4daecdaf28eb0e3a867a7869b2c945fa8efb7385b2ff73ac34179",
        ),
        "interval-third": (
            "a57b329b2a17c291737eb38180898b096c282735f82049bf42510797dae2d841",
            "7daf77bee1f6560cfec804ff02ff2e99d12e46728c245580316b864bb5ee11c8",
            "06639f32a77127a05286371154b5603d079a09e180fdfc6ae37123f797045214",
        ),
        "perturbed-simplex": (
            "970875242936cabb351fd4889f835c4c2aa08abfbf6ded5755be73cb4172b4a9",
            "07ba1ad9644a1e4825f9a5c807aecb01a1cdf55aca9da3e43afe47a5a3740702",
            "9d3b455f5e2f066d85ae43bea6a4941b51de48746f7a2f2245e2c399c0311f7e",
        ),
    }

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_reports(self, capsys, monkeypatch, tmp_path, name):
        path = f"{name}.json"
        (tmp_path / path).write_bytes(example_path(name).read_bytes())
        monkeypatch.chdir(tmp_path)
        outputs = []
        for argv in (("info", path), ("bound", path)):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            outputs.append(out)
        k = json.loads(outputs[1])["k0"] + 5
        code, out, _ = run_cli(capsys, "bound", path, "--k", str(k))
        assert code == 0
        outputs.append(out)
        digests = tuple(hashlib.sha256(out.encode()).hexdigest() for out in outputs)
        assert digests == self.SHA256[name]


class TestBlasThreads:
    @pytest.mark.parametrize(
        "argv",
        [
            ("lambda1t", SIMPLEX2),
            ("lambda1t", SQUARE),
            ("lambda1t", str(example_path("perturbed-simplex"))),
            ("saturate", SIMPLEX2),
        ],
        ids=["lambda1t-simplex2", "lambda1t-square", "lambda1t-perturbed-simplex", "saturate"],
    )
    def test_default_output_independent_of_thread_count(self, argv):
        """The default outputs have the same bits on one and on two BLAS
        threads.  (At degree 8 some eigenvalues do not; see ROADMAP.)"""
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "toriceig.cli", *argv], capture_output=True, text=True,
                env=subprocess_env(OPENBLAS_NUM_THREADS=threads), timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestRuntimeDependencies:
    def test_cli_run_imports_no_scipy(self):
        """numpy is the only numerical dependency at run time."""
        script = (
            "import sys, toriceig, toriceig.cli\n"
            f"assert toriceig.cli.main(['lambda1t', {SIMPLEX2!r}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["lambda1T"] > 0
