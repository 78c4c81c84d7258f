"""Tests of the benchmark itself (about two minutes):

    python3 -m pytest -q perfbench

Every oracle must match at two seeds, the two seeds must do the same work,
a traced pass must give the same numbers as an untraced one, and the
malformed CLI input must exit 2.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402

perfbench.use_checkout_src()

from perfbench import oracles, tracing, workloads  # noqa: E402
from perfbench import run as bench  # noqa: E402

SEEDS = (1, 2)
WORK_COUNTS = ("quadrature.nodes", "polytope.candidates", "spectral.basis_kept")


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """(workload, seed, traced) -> one pass; workloads share nothing."""
    out = {}
    root = tmp_path_factory.mktemp("perfbench")
    for name in workloads.NAMES:
        for seed in SEEDS:
            wl = workloads.build(name, seed, root)
            if seed == SEEDS[0]:
                out[name, seed, False] = bench.run_pass(wl)
            trace_dir = root / f"trace-{name}-{seed}"
            trace_dir.mkdir()
            with tracing.Tracer() as tracer:
                out[name, seed, True] = bench.run_pass(wl, tracer, trace_dir)
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_oracle_matches(passes, name, seed):
    failed = [(op, out.note) for op, _s, out in passes[name, seed, True]["records"] if not out.ok]
    assert failed == []


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seeds_do_identical_work(passes, name):
    counts = [
        {key: tracing.layer_metrics(p["spans"], p["counters"])[key] for key in WORK_COUNTS}
        for p in (passes[name, seed, True] for seed in SEEDS)
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_pass_matches_untraced(passes, name):
    traced = [(op, out.values) for op, _s, out in passes[name, SEEDS[0], True]["records"]]
    plain = passes[name, SEEDS[0], False]["records"]
    assert [op for op, _v in traced] == list(dict.fromkeys(op for op, _s, _out in plain))
    # every repeated untraced call gives the traced call's numbers
    expected = dict(traced)
    assert all(out.values == expected[op] for op, _s, out in plain)


def test_traced_pass_records_every_layer(passes):
    seen = set()
    for p in passes.values():
        if "spans" in p:
            seen.update(span[0] for span in p["spans"])
    expected = {span for *_x, span in tracing.FUNCTIONS + tracing.METHODS}
    assert expected <= seen


def test_malformed_cli_input_exits_2(tmp_path):
    wl = workloads.build("cli", SEEDS[0], tmp_path)
    op = next(op for op in wl.ops if op.name == "cli/malformed")
    proc = op.call()
    assert proc.returncode == oracles.EXIT_INVALID == 2
    assert op.verify(proc).ok


def test_missing_names_mark_layers_absent(monkeypatch):
    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + (("parallel", "gone", "parallel.gone"),))
    monkeypatch.setattr(tracing, "METHODS", tracing.METHODS + (("potential", "Nope", "sample", "x.y"),))
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["parallel.gone", "potential.Nope.sample"]


def test_wrappers_are_removed_after_tracing():
    import toriceig.cli
    import toriceig.spectral

    original = toriceig.spectral.build_quadrature
    with tracing.Tracer():
        # one wrapper at every binding, including names bound by `from ... import`
        assert hasattr(toriceig.cli.lambda1_invariant, "__wrapped__")
        assert toriceig.cli.build_quadrature is toriceig.spectral.build_quadrature
        assert toriceig.spectral.build_quadrature.__wrapped__ is original
    assert toriceig.spectral.build_quadrature is original
    assert not hasattr(toriceig.cli.lambda1_invariant, "__wrapped__")


@pytest.mark.parametrize("name", ["interval01", "intervalC", "simplex2", "square", "perturbed-simplex"])
def test_base_specs_match_bundled_examples(name):
    data = json.loads((perfbench.SRC / "toriceig" / "data" / f"{name}.json").read_text())
    spec = workloads.BASE[name]
    assert data == workloads.polytope_json(spec.normals, spec.offsets)


def test_transforms_preserve_lattice_counts_and_extents():
    spec = workloads.BASE["hirzebruch17"]
    for seed in SEEDS:
        tf = workloads.draw_transform(seed, "hirzebruch17", spec)
        normals, offsets = tf.apply(spec)
        lo = [min(s * b[p] + t for b in spec.box) for s, p, t in zip(tf.signs, tf.perm, tf.shift)]
        hi = [max(s * b[p] + t for b in spec.box) for s, p, t in zip(tf.signs, tf.perm, tf.shift)]
        assert [b - a for a, b in zip(lo, hi)] == [b - a for a, b in zip(*spec.box)]
        for k in (17, 18):
            assert oracles.lattice_count(normals, offsets, (lo, hi), k) == oracles.lattice_count(
                spec.normals, spec.offsets, spec.box, k
            )


def test_tail_leaves_ten_samples_beyond():
    value, pct = bench.tail(list(range(24)))
    assert value == 13 and sum(1 for x in range(24) if x > value) == 10
    assert pct == pytest.approx(100 * 14 / 24)
