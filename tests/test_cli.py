import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qcontain import cli, graph
from qcontain.cli import main
from qcontain.graph import MAX_NODES
from qcontain.qsim import MAX_QUBITS

SRC = str(Path(__file__).resolve().parents[1] / "src")
# the address-space cap of the child only, in KiB: a size check that is
# missing shows as a MemoryError traceback instead of exhausting the machine
CHILD_AS_KIB = 3_000_000


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("nodes 2\n0 1 0.5 0.3\nseeds 0\nlambda 1.0\n")
    return str(path)


class TestGen:
    def test_deterministic_output(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["gen", "--nodes", "5", "--edge-prob", "0.4", "--seeds", "1", "--rng", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_too_many_seeds(self, capsys):
        code, _, err = run(["gen", "--nodes", "5", "--edge-prob", "0.4", "--seeds", "6"], capsys)
        assert code == 2
        assert "n_seeds > n_nodes" in err

    def test_zero_edge_prob(self, tmp_path, capsys):
        out = tmp_path / "empty.txt"
        code, _, _ = run(
            ["gen", "--nodes", "4", "--edge-prob", "0", "--out", str(out)], capsys
        )
        assert code == 0
        assert "lambda" in out.read_text()
        assert len([l for l in out.read_text().splitlines() if l[0].isdigit() and " " in l and l.count(" ") == 3]) == 0

    def test_nodes_over_limit_exits_2(self, capsys):
        nodes = str(MAX_NODES + 1)
        code, out, err = run(["gen", "--nodes", nodes, "--edge-prob", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: n_nodes must be in [1, {MAX_NODES}]\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--p-min", "-1"],
            ["--i-max", "7"],
            ["--p-min", "0.9", "--p-max", "0.1"],
            ["--i-min", "nan"],
        ],
    )
    def test_ranges_out_of_bounds_exit_2(self, flags, capsys):
        code, out, err = run(["gen", "--nodes", "3", "--edge-prob", "0"] + flags, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.endswith("must satisfy 0 <= min <= max <= 1\n")

    def test_lambda_checked_before_drawing(self, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("the generator drew before checking lambda")

        monkeypatch.setattr(graph.np.random, "default_rng", no_draw)
        argv = ["gen", "--nodes", "2500", "--edge-prob", "0.01", "--lam", "2"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert err == "error: lambda out of range: 2.0\n"

    def test_generated_instance_parses(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        run(["gen", "--nodes", "6", "--edge-prob", "0.5", "--out", str(out)], capsys)
        from qcontain.graph import parse_instance

        inst = parse_instance(out.read_text())
        assert inst.graph.node_count == 6


class TestEstimate:
    def test_exact(self, instance_file, capsys):
        code, out, _ = run(["estimate", "--instance", instance_file, "--method", "exact"], capsys)
        assert code == 0
        assert "sigma 1.5" in out

    def test_mc(self, instance_file, capsys):
        code, out, _ = run(
            ["estimate", "--instance", instance_file, "--method", "mc",
             "--trials", "10000", "--rng", "1"],
            capsys,
        )
        assert code == 0
        sigma = float(next(l.split()[1] for l in out.splitlines() if l.startswith("sigma ")))
        assert 1.48 <= sigma <= 1.52

    def test_qae_analytic(self, instance_file, capsys):
        code, out, _ = run(
            ["estimate", "--instance", instance_file, "--method", "qae",
             "--epsilon", "0.05", "--analytic", "--rng", "1"],
            capsys,
        )
        assert code == 0
        sigma = float(next(l.split()[1] for l in out.splitlines() if l.startswith("sigma ")))
        assert abs(sigma - 1.5) <= 0.1

    def test_qae_oversized_without_analytic(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        run(["gen", "--nodes", "8", "--edge-prob", "0.9", "--out", str(big)], capsys)
        code, _, err = run(
            ["estimate", "--instance", str(big), "--method", "qae", "--epsilon", "0.01"],
            capsys,
        )
        assert code == 2
        assert "--analytic" in err

    def test_csv_row(self, instance_file, tmp_path, capsys):
        out = tmp_path / "est.csv"
        run(
            ["estimate", "--instance", instance_file, "--method", "exact", "--out", str(out)],
            capsys,
        )
        lines = out.read_text().splitlines()
        assert lines[1] == "method,work_units,sigma,sigma_normalized,error,rng_seed"
        assert lines[2].startswith("exact,")


class TestContain:
    def test_star_example(self, tmp_path, capsys):
        star = tmp_path / "star.txt"
        star.write_text("nodes 3\n0 1 1.0 0.1\n0 2 0.1 0.1\nseeds 0\nlambda 1.0\n")
        code, out, _ = run(
            ["contain", "--instance", str(star), "--estimator", "exact",
             "--finder", "linear", "--k-max", "1"],
            capsys,
        )
        assert code == 0
        assert "k=1 edge=0->1" in out

    def test_gmf_matches_linear_value(self, tmp_path, capsys):
        star = tmp_path / "star.txt"
        star.write_text("nodes 3\n0 1 1.0 0.1\n0 2 0.1 0.1\nseeds 0\nlambda 1.0\n")
        code, out, _ = run(
            ["contain", "--instance", str(star), "--finder", "gmf", "--rng", "3",
             "--k-max", "1"],
            capsys,
        )
        assert code == 0
        assert "k=1 edge=0->1" in out
        calls = int(next(
            tok.split("=")[1]
            for line in out.splitlines()
            for tok in line.split()
            if tok.startswith("grover_oracle_calls=")
        ))
        assert calls > 0

    def test_qae_oversized_without_analytic(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        run(["gen", "--nodes", "8", "--edge-prob", "0.9", "--out", str(big)], capsys)
        code, _, err = run(
            ["contain", "--instance", str(big), "--estimator", "qae", "--epsilon", "0.01"],
            capsys,
        )
        assert code == 2
        assert "--analytic" in err
        # 48 edge qubits + 1 ancilla + 11 evaluation qubits at epsilon 0.01
        assert "needs 60 qubits" in err

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_top_p_cap_below_one_exits_2(self, tmp_path, capsys, cap):
        star = tmp_path / "star.txt"
        star.write_text("nodes 4\n0 1 0.9 0.1\n0 2 0.5 0.1\n0 3 0.1 0.1\nseeds 0\nlambda 1.0\n")
        code, out, err = run(
            ["contain", "--instance", str(star), "--strategy", "top_p", "--top-p-cap", cap],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: top_p_cap must be >= 1\n"

    def test_k_max_zero(self, instance_file, capsys):
        code, out, _ = run(
            ["contain", "--instance", instance_file, "--k-max", "0"], capsys
        )
        assert code == 0
        assert "removed=0" in out


class TestBenchmarks:
    def test_estimation_csv_schema(self, instance_file, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, _ = run(
            ["bench-estimation", "--instance", instance_file, "--reps", "3",
             "--out", str(out), "--rng", "5"],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "method,work_units,error,rng_seed"
        assert any(l.startswith("mc,") for l in lines)
        assert any(l.startswith("qae,") for l in lines)

    def test_minfind_csv(self, tmp_path, capsys):
        out = tmp_path / "mf.csv"
        code, _, _ = run(
            ["bench-minfind", "--sizes", "1,4", "--reps", "5", "--out", str(out), "--rng", "2"],
            capsys,
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        linear_rows = [r for r in rows if r[0] == "linear"]
        # linear search always reports the true minimum at cost N
        for r in linear_rows:
            assert r[1] == r[2]
            assert r[3] == r[4]
        gmf_n1 = [r for r in rows if r[0] == "gmf" and r[1] == "1"]
        assert all(int(r[2]) == 0 for r in gmf_n1)

    def test_reruns_are_byte_identical(self, instance_file, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench-estimation", "--instance", instance_file, "--reps", "2", "--rng", "9"]
        run(args + ["--out", str(a)], capsys)
        run(args + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


def test_more_names_than_nodes_exits_2(tmp_path, capsys):
    path = tmp_path / "names.txt"
    path.write_text("nodes 2\na b 0.5 0.3\nb c 0.5 0.3\nseeds a\nlambda 1.0\n")
    code, _, err = run(["estimate", "--instance", str(path), "--method", "exact"], capsys)
    assert code == 2
    assert err.startswith("error: line 3:")


def test_missing_instance_file(capsys):
    code, _, err = run(["estimate", "--instance", "/nonexistent", "--method", "exact"], capsys)
    assert code == 1


def test_mixed_names_and_ids_exits_2(tmp_path, capsys):
    path = tmp_path / "mixed.txt"
    path.write_text("nodes 3\na b 1.0 0.1\n0 2 1.0 0.1\nseeds a\nlambda 1.0\n")
    code, _, err = run(["estimate", "--instance", str(path), "--method", "exact"], capsys)
    assert code == 2
    assert err.startswith("error: line 3:")


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_huge_node_count_exits_2(tmp_path, capsys, method):
    path = tmp_path / "huge.txt"
    path.write_text("nodes 100000000000\n0 1 0.5 0.3\nseeds 0\nlambda 1.0\n")
    code, _, err = run(["estimate", "--instance", str(path), "--method", method], capsys)
    assert code == 2
    assert err.startswith("error: line 1: node count 100000000000 exceeds the limit")


def test_exact_over_work_budget_exits_2(tmp_path, capsys):
    dense = tmp_path / "dense.txt"
    run(["gen", "--nodes", "16", "--edge-prob", "0.6", "--out", str(dense)], capsys)
    start = time.perf_counter()
    code, out, err = run(["estimate", "--instance", str(dense), "--method", "exact"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: instance too large for exact oracle")
    assert time.perf_counter() - start < 20  # the budget trips in about a second


@pytest.mark.parametrize(
    "flags, sigma",
    [
        (["--method", "exact"], 6.897),
        (["--method", "qae", "--analytic", "--epsilon", "0.1", "--rng", "1"], 6.828),
    ],
)
def test_exact_and_analytic_past_24_edges(tmp_path, capsys, flags, sigma):
    inst = tmp_path / "e26.txt"
    _, _, gen_err = run(
        ["gen", "--nodes", "8", "--edge-prob", "0.5", "--rng", "0", "--out", str(inst)], capsys
    )
    assert "edges=26" in gen_err
    code, out, _ = run(["estimate", "--instance", str(inst)] + flags, capsys)
    assert code == 0
    assert float(out.splitlines()[1].split()[1]) == pytest.approx(sigma, abs=1e-3)


def run_capped(argv):
    """Run the CLI in a child process whose address space is capped."""

    def cap():
        limit = CHILD_AS_KIB * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    # one BLAS thread keeps the child's reserved address space small on many-core hosts
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "qcontain.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        # m = 34 evaluation qubits: 2^34 outcomes, a 128 GiB distribution
        ["estimate", "--method", "qae", "--analytic", "--epsilon", "1e-9"],
        ["contain", "--estimator", "qae", "--analytic", "--epsilon", "1e-9"],
        ["bench-estimation", "--qae-m", "40", "--reps", "1"],
    ],
    ids=["estimate", "contain", "bench-estimation"],
)
def test_qpe_register_over_cap_exits_2(instance_file, argv):
    proc = run_capped([*argv, "--instance", instance_file])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"must be in [1, {MAX_QUBITS}]" in proc.stderr


def test_bench_estimation_checks_qae_m_before_the_sweep(instance_file, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep started before --qae-m was checked")

    monkeypatch.setattr(cli, "exact_influence", refuse)
    monkeypatch.setattr(cli, "mc_influence", refuse)
    code, _, err = run(
        ["bench-estimation", "--instance", instance_file, "--qae-m", "4,40", "--reps", "1"], capsys
    )
    assert code == 2
    assert err == f"error: evaluation qubits m = 40 must be in [1, {MAX_QUBITS}]\n"


def test_minfind_size_over_cap_exits_2():
    # a list of 4e8 values needs 2.98 GiB before the search starts
    proc = run_capped(["bench-minfind", "--sizes", "4,400000000", "--reps", "1"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
