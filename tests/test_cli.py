import contextlib
import gc
import io
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontain import cli, containment, gmf, graph, qae
from qcontain.cascade import exact_influence
from qcontain.cli import main
from qcontain.graph import MAX_EDGES, MAX_NODES
from qcontain.qsim import MAX_QUBITS

SRC = str(Path(__file__).resolve().parents[1] / "src")
README = Path(__file__).resolve().parents[1] / "README.md"
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

    def test_exact_work_units_are_dp_transitions(self, instance_file, tmp_path, capsys):
        # 0->1 at p = 0.5: the seed's state expands 2 subset transitions, the final one 1
        out = tmp_path / "est.csv"
        code, stdout, _ = run(
            ["estimate", "--instance", instance_file, "--method", "exact", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "work_units 3" in stdout.splitlines()
        assert out.read_text().splitlines()[2].startswith("exact,3,")


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

    @pytest.mark.parametrize("strategy, steps", [("top_p", 8), ("all", 14)])
    def test_top_p_scores_a_constant_eight_arcs(self, tmp_path, capsys, strategy, steps):
        inst = tmp_path / "inst.txt"
        gen = ["gen", "--nodes", "6", "--edge-prob", "0.5", "--rng", "2", "--lam", "0.7"]
        assert run([*gen, "--out", str(inst)], capsys)[0] == 0
        assert len(graph.parse_instance(inst.read_text()).graph.edges) == 14
        code, out, _ = run(
            ["contain", "--instance", str(inst), "--strategy", strategy, "--k-max", "1"], capsys
        )
        assert code == 0
        assert out.splitlines()[-1].endswith(f" linear_steps={steps}")

    @pytest.mark.parametrize(
        "estimator",
        [["mc", "--trials", "200"], ["qae", "--epsilon", "0.2", "--analytic"]],
        ids=["mc", "qae"],
    )
    def test_estimator_and_gmf_finder_share_one_seed_stream(
        self, tmp_path, monkeypatch, capsys, estimator
    ):
        star = tmp_path / "star.txt"
        star.write_text("nodes 4\n0 1 0.9 0.1\n0 2 0.5 0.1\n0 3 0.1 0.1\nseeds 0\nlambda 1.0\n")
        drawn = []

        def record(module, name, caller):
            original = getattr(module, name)

            def recorded(*args, **kwargs):
                seq = kwargs["rng_seed"] if "rng_seed" in kwargs else args[2]
                drawn.append((caller, seq.entropy, seq.spawn_key))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)

        # Monte Carlo seeds become coins here, once per iteration's shared draw
        record(containment, "draw_live", "estimator")
        record(qae, "qae_influence", "estimator")
        record(gmf, "durr_hoyer_min", "finder")
        argv = ["contain", "--instance", str(star), "--estimator", *estimator,
                "--finder", "gmf", "--k-max", "2", "--rng", "3"]
        code, _, _ = run(argv, capsys)
        assert code == 0
        assert {caller for caller, _, _ in drawn} == {"estimator", "finder"}
        seeds = [(entropy, key) for _, entropy, key in drawn]
        assert len(set(seeds)) == len(seeds)

    def test_k_max_zero(self, instance_file, capsys):
        code, out, _ = run(
            ["contain", "--instance", instance_file, "--k-max", "0"], capsys
        )
        assert code == 0
        assert "removed=0" in out

    @pytest.mark.parametrize(
        "flags",
        [["qae", "--epsilon", "5"], ["qae", "--epsilon", "1e-320"], ["mc", "--trials", "-4"]],
        ids=["qae-epsilon-5", "qae-epsilon-1e-320", "mc-trials--4"],
    )
    def test_k_max_zero_rejects_what_k_max_one_rejects(self, instance_file, capsys, flags):
        # k_max 0 still runs the base estimate, so it checks the estimator's flags
        argv = ["contain", "--instance", instance_file, "--estimator", *flags]
        code, _, err = run([*argv, "--k-max", "0"], capsys)
        one_code, _, one_err = run([*argv, "--k-max", "1"], capsys)
        assert code == 2 and err.startswith("error: ")
        assert (code, err) == (one_code, one_err)


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

    @pytest.mark.parametrize("command", ["bench-estimation", "bench-minfind"])
    @pytest.mark.parametrize("reps", ["-1", "0"])
    def test_reps_below_one_exits_2(self, instance_file, tmp_path, capsys, command, reps):
        out = tmp_path / "out.csv"
        argv = [command, "--reps", reps, "--out", str(out)]
        if command == "bench-estimation":
            argv += ["--instance", instance_file]
        code, stdout, err = run(argv, capsys)
        assert code == 2
        assert (stdout, err) == ("", "error: reps must be >= 1\n")
        assert not out.exists()

    def test_reruns_are_byte_identical(self, instance_file, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench-estimation", "--instance", instance_file, "--reps", "2", "--rng", "9"]
        run(args + ["--out", str(a)], capsys)
        run(args + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "command", ["gen", "estimate", "contain", "bench-estimation", "bench-minfind"]
)
def test_negative_rng_exits_2_naming_the_flag(instance_file, tmp_path, capsys, command):
    # the exact estimator never reads the seed, so main must reject it for every command
    argv = {
        "gen": ["gen", "--nodes", "3", "--edge-prob", "0.5"],
        "estimate": ["estimate", "--instance", instance_file, "--method", "exact"],
        "contain": ["contain", "--instance", instance_file, "--estimator", "exact"],
        "bench-estimation": ["bench-estimation", "--instance", instance_file, "--reps", "1"],
        "bench-minfind": ["bench-minfind", "--sizes", "4", "--reps", "1"],
    }[command]
    out = tmp_path / "out.txt"
    code, stdout, err = run(argv + ["--rng", "-1", "--out", str(out)], capsys)
    assert (code, stdout, err) == (2, "", "error: --rng -1 must be >= 0\n")
    assert not out.exists()


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


def run_capped(argv, cap_kib=CHILD_AS_KIB):
    """Run the CLI in a child process whose address space is capped."""

    def cap():
        limit = cap_kib * 1024
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


@pytest.mark.parametrize("epsilon", ["1e-320", "5e-324"])
@pytest.mark.parametrize("mode", [[], ["--analytic"]], ids=["statevector", "analytic"])
@pytest.mark.parametrize(
    "command", [["estimate", "--method", "qae"], ["contain", "--estimator", "qae"]],
    ids=["estimate", "contain"],
)
def test_subnormal_epsilon_exits_2(instance_file, capsys, command, mode, epsilon):
    # pi / epsilon overflows to inf below about 1.75e-308
    argv = [*command, *mode, "--epsilon", epsilon, "--instance", instance_file]
    assert run(argv, capsys) == (
        2, "", f"error: epsilon {float(epsilon)!r} is too small: pi / epsilon overflows a float\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        # m = 24 evaluation qubits: valid, but the readout needs more than 1 GiB
        ["bench-estimation", "--qae-m", "24", "--mc-trials", "100", "--reps", "1"],
        ["estimate", "--method", "qae", "--analytic", "--epsilon", "1e-6"],
    ],
    ids=["bench-estimation", "estimate"],
)
def test_out_of_memory_is_an_error_line(argv, instance_file):
    proc = run_capped([*argv, "--instance", instance_file], cap_kib=1 << 20)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: out of memory: ")


def test_bench_estimation_checks_qae_m_before_the_sweep(instance_file, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep started before --qae-m was checked")

    monkeypatch.setattr(cli, "exact_influence", refuse)
    monkeypatch.setattr(cli, "make_mc_estimator", refuse)
    code, _, err = run(
        ["bench-estimation", "--instance", instance_file, "--qae-m", "4,40", "--reps", "1"], capsys
    )
    assert code == 2
    assert err == f"error: evaluation qubits m = 40 must be in [1, {MAX_QUBITS}]\n"


@pytest.mark.parametrize("grid, bad", [("5,-5", -5), ("0", 0)], ids=["negative", "zero"])
def test_bench_estimation_checks_mc_trials_before_the_sweep(
    instance_file, monkeypatch, capsys, grid, bad
):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep started before --mc-trials was checked")

    monkeypatch.setattr(cli, "exact_influence", refuse)
    monkeypatch.setattr(cli, "make_mc_estimator", refuse)
    code, out, err = run(
        ["bench-estimation", "--instance", instance_file, "--mc-trials", grid, "--reps", "1"], capsys
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --mc-trials value {bad} must be >= 1\n"


def test_bench_estimation_checks_mc_sums_before_the_sweep(tmp_path, monkeypatch, capsys):
    # a grid value whose sum of squares could reach 2^63 on 3 nodes is refused
    # before the first row draws, by the rule draw_live checks
    path = tmp_path / "chain3.txt"
    path.write_text("nodes 3\n0 1 0.5 0.1\n1 2 0.5 0.1\nseeds 0\nlambda 1.0\n")

    def refuse(*args, **kwargs):
        raise AssertionError("a draw ran before --mc-trials was checked")

    monkeypatch.setattr(containment, "draw_live", refuse)
    trials = -(-(1 << 63) // 9)  # the fewest that could overflow on 3 nodes
    argv = ["bench-estimation", "--instance", str(path), "--qae-m", "3", "--reps", "1"]
    with pytest.raises(AssertionError, match="a draw ran"):
        main([*argv, "--mc-trials", f"100,{trials - 1}"])
    code, out, err = run([*argv, "--mc-trials", f"100,{trials}"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {trials} trials of 3 nodes overflow the int64 sums\n"


def test_bench_estimation_runs_the_exact_oracle_once(instance_file, monkeypatch, capsys):
    calls = []

    def counted(inst):
        calls.append(inst)
        return exact_influence(inst)

    monkeypatch.setattr(cli, "exact_influence", counted)
    monkeypatch.setattr(qae, "exact_influence", counted)
    code, _, _ = run(
        ["bench-estimation", "--instance", instance_file, "--qae-m", "3,4", "--reps", "4"], capsys
    )
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "grid", [["--mc-trials", "100,100"], ["--qae-m", "3,5,3"]], ids=["mc-trials", "qae-m"]
)
def test_bench_estimation_rejects_repeated_grid_values(
    instance_file, tmp_path, monkeypatch, capsys, grid
):
    # a row's stream is seeded by its grid value, so a repeat would replay one stream
    def refuse(*args, **kwargs):
        raise AssertionError("sweep started before the grids were checked")

    monkeypatch.setattr(cli, "exact_influence", refuse)
    monkeypatch.setattr(cli, "make_mc_estimator", refuse)
    out = tmp_path / "bench.csv"
    code, stdout, err = run(
        ["bench-estimation", "--instance", instance_file, *grid, "--reps", "1", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert err == f"error: {grid[0]} repeats a value: {grid[1]}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["bench-estimation", "--mc-trials", ""], "--mc-trials value '' is not an integer"),
        (["bench-estimation", "--qae-m", "3,x"], "--qae-m value 'x' is not an integer"),
        (["bench-minfind", "--sizes", "4,2.5"], "--sizes value '2.5' is not an integer"),
    ],
    ids=["mc-trials", "qae-m", "sizes"],
)
def test_grid_names_the_flag_of_a_non_integer(instance_file, tmp_path, capsys, argv, bad):
    if argv[0] == "bench-estimation":
        argv = [*argv, "--instance", instance_file]
    out = tmp_path / "bench.csv"
    code, stdout, err = run([*argv, "--reps", "1", "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {bad}\n"
    assert not out.exists()


def test_bench_minfind_rejects_repeated_sizes(tmp_path, monkeypatch, capsys):
    # a size's stream is seeded by (size, rep), so a repeat would replay its rows
    def refuse(*args, **kwargs):
        raise AssertionError("sweep started before --sizes was checked")

    monkeypatch.setattr(cli, "durr_hoyer_min", refuse)
    out = tmp_path / "mf.csv"
    code, stdout, err = run(
        ["bench-minfind", "--sizes", "4,16,4", "--reps", "1", "--out", str(out)], capsys
    )
    assert code == 2
    assert stdout == ""
    assert err == "error: --sizes repeats a value: 4,16,4\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["gen", "file"])
def test_arc_count_over_limit_exits_2(tmp_path, source):
    # --nodes 10000 --edge-prob 1 asks for about 10^8 arcs, some 30 GB of them
    if source == "gen":
        argv = ["gen", "--nodes", "10000", "--edge-prob", "1", "--out", str(tmp_path / "dense.txt")]
        expected = f"error: more than {MAX_EDGES} edges"
    else:
        arcs = [f"{a} {b} 0.5 0.1\n" for a in range(200) for b in range(200) if a != b]
        path = tmp_path / "over.txt"
        path.write_text("nodes 200\n" + "".join(arcs[: MAX_EDGES + 1]) + "seeds 0\nlambda 1.0\n")
        argv = ["estimate", "--instance", str(path), "--method", "mc", "--trials", "10"]
        expected = f"error: line {MAX_EDGES + 2}: more than {MAX_EDGES} arcs"
    proc = run_capped(argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(expected)
    assert proc.stdout == ""


def test_exact_contain_near_the_work_budget_fits_a_memory_cap(tmp_path, capsys):
    # the 10-node complete digraph: 90 candidates, 242,973 of the 2^19 subset
    # transitions; the logged states and values peak near 13 MiB under tracemalloc
    dense = tmp_path / "k10.txt"
    _, _, gen_err = run(["gen", "--nodes", "10", "--edge-prob", "1", "--out", str(dense)], capsys)
    assert "edges=90" in gen_err
    argv = ["contain", "--instance", str(dense), "--estimator", "exact", "--k-max", "1"]
    proc = run_capped(argv, cap_kib=1 << 20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("k=1 edge=")


def test_exact_contain_over_the_work_budget_exits_2(tmp_path, capsys):
    dense = tmp_path / "dense.txt"
    run(["gen", "--nodes", "16", "--edge-prob", "0.6", "--out", str(dense)], capsys)
    proc = run_capped(["contain", "--instance", str(dense), "--estimator", "exact", "--k-max", "1"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: instance too large for exact oracle")
    assert proc.stderr.count("\n") == 1


def test_minfind_size_over_cap_exits_2():
    # a list of 4e8 values needs 2.98 GiB before the search starts
    proc = run_capped(["bench-minfind", "--sizes", "4,400000000", "--reps", "1"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--method", "exact"],
        ["contain", "--estimator", "exact", "--finder", "gmf"],
    ],
    ids=["estimate", "contain"],
)
def test_main_leaves_no_reference_cycles(instance_file, argv, capsys):
    # a parser built per call left ~340 objects in reference cycles per call
    argv = [*argv, "--instance", instance_file]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage < 20


# instance files of the tests above: valid ones, and two that exit 2
FUZZ_INSTANCES = {
    "edge": "nodes 2\n0 1 0.5 0.3\nseeds 0\nlambda 1.0\n",
    "star": "nodes 4\n0 1 0.9 0.1\n0 2 0.5 0.1\n0 3 0.1 0.1\nseeds 0\nlambda 1.0\n",
    "undirected": "nodes 3\nundirected\n0 1 0.5 0.3\n1 2 0.4 0.2\nseeds 0\nlambda 1.0\n",
    "more-names": "nodes 2\na b 0.5 0.3\nb c 0.5 0.3\nseeds a\nlambda 1.0\n",
    "mixed-names": "nodes 3\na b 1.0 0.1\n0 2 1.0 0.1\nseeds a\nlambda 1.0\n",
}
# flag values as (plain, odd); None omits the flag. A call gives at most one
# flag an odd value, and omits each other optional flag or gives it a plain one.
INTS = (["0", "1", "3"], ["-3", "", "x", "nan", "2.5"])
PROBS = (["0", "0.3", "1"], ["-0.5", "2", "nan", "inf", "-inf", "", "x"])
RNG = (["0", "7"], ["-1", "", "x"])
REPS = (["1", "2"], ["0", "-1", "x"])  # never omitted: the default of 50 reps is slow
INSTANCE = (["edge", "star", "undirected"], [None, "more-names", "mixed-names"])
ESTIMATOR_FLAGS = {
    "--trials": (["1", "200"], ["-3", "0", "", "x", "nan", "2.5"]),
    "--epsilon": (["0.3", "0.5"], ["-0.5", "0", "1", "2", "nan", "inf", "-inf", "", "x", "1e-9",
                              "1e-320"]),
    "--rng": RNG,
    "--instance": INSTANCE,
}
FUZZ_FLAGS = {
    "gen": {
        "--nodes": (["1", "3", "6"], [None, "-1", "0", "x", ""]),
        "--edge-prob": (["0", "0.5", "1"], [None, "nan", "inf", "-inf", "", "x"]),
        "--p-min": (["0", "0.3"], PROBS[1]),
        "--p-max": (["0.5", "1"], PROBS[1]),
        "--i-min": (["0", "0.3"], PROBS[1]),
        "--i-max": (["0.5", "1"], PROBS[1]),
        "--lam": PROBS,
        "--seeds": (["1"], ["-3", "0", "7", "", "x"]),
        "--rng": RNG,
    },
    "estimate": {"--method": (["mc", "exact", "qae"], [None, "x"]), **ESTIMATOR_FLAGS},
    "contain": {
        "--estimator": (["mc", "exact", "qae"], ["x"]),
        "--finder": (["linear", "gmf"], ["x"]),
        "--strategy": (["all", "frontier", "top_p"], ["x"]),
        "--k-max": INTS,
        **ESTIMATOR_FLAGS,
    },
    "bench-estimation": {
        "--mc-trials": (["10,20", "1"], ["0", "-1", "", "x", "5,nan"]),
        "--qae-m": (["3", "3,5"], ["0", "-1", "40", "", "x"]),
        "--reps": REPS,
        "--rng": RNG,
        "--instance": INSTANCE,
    },
    "bench-minfind": {
        "--sizes": (["4,16", "1"], ["0", "-3", "", "x", "20000000"]),
        "--reps": REPS,
        "--rng": RNG,
    },
}
REQUIRED = {"--nodes", "--edge-prob", "--method", "--instance", "--reps"}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_INSTANCES.items():
        (path / name).write_text(text)
    return path


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_fuzzed_flags_exit_0_or_2(fuzz_dir, data):
    command = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[command]
    odd = data.draw(st.none() | st.sampled_from(list(flags)), label="odd flag")
    argv = [command]
    for flag, (plain, strange) in flags.items():
        omit = [] if flag in REQUIRED else [None]
        value = data.draw(st.sampled_from(strange if flag == odd else [*omit, *plain]), label=flag)
        if value is not None:
            argv += [flag, str(fuzz_dir / value) if flag == "--instance" else value]
    if command in ("estimate", "contain") and data.draw(st.booleans(), label="--analytic"):
        argv.append("--analytic")
    if data.draw(st.booleans(), label="--out"):
        argv += ["--out", str(fuzz_dir / "out.txt")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert code in (0, 2), argv


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    # every `qcontain ...` line of README's CLI block, in order: gen writes the
    # inst.txt the later lines read
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qcontain ")]
    assert examples and examples[0][0] == "gen"
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert main(argv) == 0, argv
