"""CLI contract: exit codes, JSON round-trips, CSV schema, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toriceig
from toriceig import LabelledPolytope, example_path
from toriceig.cli import main

INTERVAL01 = str(example_path("interval01"))
INTERVALC = str(example_path("intervalC"))
SIMPLEX2 = str(example_path("simplex2"))
THIRD = str(example_path("interval-third"))
SQUARE = str(example_path("square"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_single_k_searches_k0_once(self, capsys, monkeypatch):
        calls = []
        original = LabelledPolytope.k0_lattice

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LabelledPolytope, "k0_lattice", counted)
        code, out, _ = run_cli(capsys, "bound", THIRD, "--k", "4")
        assert code == 0 and len(calls) == 1
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

    def test_csv_rejected_elsewhere(self, capsys):
        code, _, _ = run_cli(capsys, "info", SIMPLEX2, "--output", "csv")
        assert code == 2


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
        code, _, err = run_cli(capsys, "bound", str(orb))
        assert code == 2
        assert "Delzant" in err

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

    def test_quad_depth_over_node_cap(self, capsys):
        # refused from the predicted node count, before any refinement
        code, out, err = run_cli(capsys, "lambda1t", SIMPLEX2, "--quad-depth", "40")
        assert code == 2 and out == ""
        assert "nodes, over" in err

    def test_bad_potential_spec(self, capsys):
        code, _, _ = run_cli(capsys, "lambda1t", INTERVAL01, "--potential", "nonsense")
        assert code == 2

    @pytest.mark.parametrize(
        "command,polytope,poly",
        [
            ("info", {"dim": 2, "facets": 5}, None),
            ("lambda1t", {"dim": 2, "facets": 5}, None),
            ("info", {"dim": 1, "facets": [{"normal": 1, "offset": 0}]}, None),
            ("lambda1t", {"dim": 1, "facets": [{"normal": 1, "offset": 0}]}, None),
            ("lambda1t", None, [1, 2]),
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


class TestRuntimeDependencies:
    def test_cli_run_imports_no_scipy(self):
        """numpy is the only numerical dependency at run time."""
        script = (
            "import sys, toriceig, toriceig.cli\n"
            f"assert toriceig.cli.main(['lambda1t', {SIMPLEX2!r}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(toriceig.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["lambda1T"] > 0
