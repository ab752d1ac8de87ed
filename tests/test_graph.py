import ast
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontain import graph
from qcontain.graph import (
    MAX_NODES,
    Edge,
    Graph,
    ParseError,
    ProblemInstance,
    generate_random_instance,
    parse_instance,
    serialize_instance,
)


class TestParse:
    def test_minimal_instance(self):
        inst = parse_instance("nodes 2\n0 1 0.5 0.3\nseeds 0\nlambda 1.0\n")
        assert inst.graph.node_count == 2
        assert inst.graph.edges == (Edge(0, 1, 0.5, 0.3),)
        assert inst.seeds == {0}
        assert inst.lam == 1.0

    def test_probability_out_of_range(self):
        with pytest.raises(ParseError, match="probability out of range"):
            parse_instance("nodes 2\n0 1 1.5 0.3\nseeds 0\nlambda 1.0\n")

    @pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
    @pytest.mark.parametrize(
        "arc, message",
        [
            pytest.param("0 1 1.5 0.3", "probability out of range: 1.5", id="p-above-1"),
            pytest.param("0 1 nan 0.3", "probability out of range: nan", id="p-nan"),
            pytest.param("0 1 0.5 1.5", "importance out of range: 1.5", id="i-above-1"),
            pytest.param("1 1 0.5 0.3", "self-loop at node 1", id="self-loop"),
        ],
    )
    def test_bad_arc_names_its_line_with_edges_message(self, arc, message, undirected):
        header = "nodes 3\nundirected\n" if undirected else "nodes 3\n"
        lineno = 4 if undirected else 3
        with pytest.raises(ParseError) as info:
            parse_instance(f"{header}0 2 0.5 0.3\n{arc}\nseeds 0\nlambda 1.0\n")
        assert info.value.lineno == lineno
        assert str(info.value) == f"line {lineno}: {message}"

    @pytest.mark.parametrize("lam", ["2.0", "nan"])
    def test_lambda_out_of_range_names_its_line(self, lam):
        with pytest.raises(ParseError, match="lambda out of range") as info:
            parse_instance(f"nodes 2\n0 1 0.5 0.3\nseeds 0\nlambda {lam}\n")
        assert info.value.lineno == 4

    @pytest.mark.parametrize("extra", ["nodes 2", "lambda 0.25"])
    def test_repeated_header_names_its_line(self, extra):
        # a second 'nodes' or 'lambda' line once replaced the first silently
        text = f"nodes 5\n0 1 0.5 0.3\nseeds 0\nlambda 1\n{extra}\n"
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert str(info.value) == f"line 5: repeated '{extra.split()[0]}' line"

    @pytest.mark.parametrize("line", ["undirected false", "undirected 0", "undirected yes no"])
    def test_undirected_with_a_value_names_its_line(self, line):
        # 'undirected false' once built two arcs per edge
        text = f"nodes 3\n{line}\n0 1 0.5 0.3\n1 2 0.5 0.3\nseeds 0\nlambda 1\n"
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert str(info.value) == "line 2: expected 'undirected' with no value"

    def test_repeated_seed_lines_add_up(self):
        inst = parse_instance("nodes 3\n0 1 0.5 0.3\nseeds 0\nseeds 2\nlambda 1.0\n")
        assert inst.seeds == {0, 2}

    def test_duplicate_edge(self):
        text = "nodes 2\n0 1 0.5 0.3\n0 1 0.2 0.1\nseeds 0\nlambda 1.0\n"
        with pytest.raises(ParseError, match="duplicate edge"):
            parse_instance(text)

    def test_error_names_line_number(self):
        text = "nodes 2\n0 1 0.5 0.3\n0 1 0.2 0.1\nseeds 0\nlambda 1.0\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_instance(text)

    def test_unknown_node(self):
        with pytest.raises(ParseError, match="unknown node"):
            parse_instance("nodes 2\n0 5 0.5 0.3\nseeds 0\nlambda 1.0\n")

    def test_empty_seed_set(self):
        with pytest.raises(ParseError):
            parse_instance("nodes 2\n0 1 0.5 0.3\nlambda 1.0\n")

    def test_comments_and_blank_lines(self):
        text = "# header\nnodes 2\n\n0 1 0.5 0.3  # an edge\nseeds 0\nlambda 0.5\n"
        inst = parse_instance(text)
        assert len(inst.graph.edges) == 1
        assert inst.lam == 0.5

    def test_named_nodes(self):
        text = "nodes 2\nalice bob 0.5 0.3\nseeds alice\nlambda 1.0\n"
        inst = parse_instance(text)
        assert len(inst.graph.edges) == 1
        assert len(inst.seeds) == 1

    def test_more_names_than_nodes(self):
        text = "nodes 2\na b 0.5 0.3\nb c 0.5 0.3\nseeds a\nlambda 1.0\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_instance(text)

    def test_mixed_names_and_ids(self):
        text = "nodes 3\na b 1.0 0.1\n0 2 1.0 0.1\nseeds a\nlambda 1.0\n"
        with pytest.raises(ParseError, match="line 3: node '0' mixes integer ids"):
            parse_instance(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("nodes 1_0\n", "line 1: bad node count '1_0'", id="nodes-underscore"),
            pytest.param("nodes ١٠\n", "line 1: bad node count '١٠'", id="nodes-arabic-digits"),
            pytest.param("nodes 2\n0 1 0_5 0.1\n", "line 2: malformed line '0 1 0_5 0.1'", id="p-underscore"),
            pytest.param("nodes 2\n0 1 0.5 ٠.1\n", "line 2: malformed line '0 1 0.5 ٠.1'", id="i-arabic-digit"),
            pytest.param("nodes 2\nlambda 0_5e-1\n", "line 2: bad lambda '0_5e-1'", id="lambda-underscore"),
            pytest.param(
                "nodes 2\n0 ١ 0.5 0.1\nseeds 0\nlambda 1\n",
                "line 2: node '١' mixes integer ids with symbolic names; use one or the other",
                id="node-arabic-digit",
            ),
            pytest.param(
                "nodes 3\n0 1 0.5 0.1\n1 2_0 0.5 0.1\nseeds 0\nlambda 1\n",
                "line 3: node '2_0' mixes integer ids with symbolic names; use one or the other",
                id="node-underscore",
            ),
        ],
    )
    def test_numbers_are_ascii_without_underscores(self, text, message):
        # int() and float() also read other scripts' digits and '_' separators
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert str(info.value) == message

    def test_signs_and_leading_zeros_parse_as_ints(self):
        inst = parse_instance("nodes +3\n+0 01 0.5 0.1\n1 02 0.5 0.1\nseeds 0\nlambda 1\n")
        assert inst.graph.node_count == 3
        assert [(e.src, e.dst) for e in inst.graph.edges] == [(0, 1), (1, 2)]
        with pytest.raises(ParseError, match="line 2: unknown node -1"):
            parse_instance("nodes 2\n0 -1 0.5 0.1\nseeds 0\nlambda 1\n")

    def test_a_name_may_hold_an_underscore_or_other_digits(self):
        inst = parse_instance("nodes 3\nhost_1 ١ 0.5 0.1\n١ 1_0 0.5 0.1\nseeds host_1\nlambda 1\n")
        assert [(e.src, e.dst) for e in inst.graph.edges] == [(0, 1), (1, 2)]

    def test_node_count_limit(self):
        text = "# big\nnodes {}\n0 1 0.5 0.3\nseeds 0\nlambda 1.0\n"
        assert parse_instance(text.format(MAX_NODES)).graph.node_count == MAX_NODES
        with pytest.raises(ParseError, match="line 2: node count .* exceeds the limit"):
            parse_instance(text.format(MAX_NODES + 1))

    @pytest.mark.parametrize("undirected", [False, True])
    def test_arc_count_limit(self, monkeypatch, undirected):
        monkeypatch.setattr(graph, "MAX_EDGES", 6)
        head = "nodes 5\n" + ("undirected\n" if undirected else "")
        pairs = [f"{a} {b} 0.5 0.1\n" for a in range(5) for b in range(a + 1, 5)]
        lines = 3 if undirected else 6
        text = head + "".join(pairs[:lines]) + "seeds 0\nlambda 1.0\n"
        assert len(parse_instance(text).graph.edges) == 6
        over = head + "".join(pairs[: lines + 1]) + "seeds 0\nlambda 1.0\n"
        past = head.count("\n") + lines + 1
        with pytest.raises(ParseError, match=f"line {past}: more than 6 arcs"):
            parse_instance(over)

    def test_undirected_expands_to_two_arcs(self):
        text = "nodes 2\nundirected\n0 1 0.5 0.3\nseeds 0\nlambda 1.0\n"
        inst = parse_instance(text)
        g = inst.graph
        assert len(g.edges) == 2
        assert g.partner == (1, 0)
        assert g.edges[1] == Edge(1, 0, 0.5, 0.3)


class TestRemoveEdges:
    def test_remove_nothing(self, chain3):
        assert chain3.without_edges(()).graph == chain3.graph

    def test_instance_without_nothing_is_itself(self, chain3):
        assert chain3.without_edges(()) is chain3

    def test_remove_only_edge(self):
        inst = ProblemInstance(Graph(2, [Edge(0, 1, 0.5, 0.3)]), {0}, 1.0)
        out = inst.without_edges([0]).graph
        assert out.node_count == 2
        assert out.edges == ()

    def test_remove_from_triangle(self):
        g = Graph(3, [Edge(0, 1, 0.5, 0.1), Edge(1, 2, 0.5, 0.1), Edge(0, 2, 0.5, 0.1)])
        out = ProblemInstance(g, {0}, 1.0).without_edges([1]).graph
        assert [(e.src, e.dst) for e in out.edges] == [(0, 1), (0, 2)]

    def test_invalid_index(self, chain3):
        with pytest.raises(ValueError):
            chain3.without_edges([7])

    def test_original_unmodified(self, chain3):
        chain3.without_edges([0])
        assert len(chain3.graph.edges) == 2

    def test_undirected_removes_both_arcs(self):
        inst = parse_instance("nodes 3\nundirected\n0 1 0.5 0.3\n1 2 0.4 0.2\nseeds 0\nlambda 1.0\n")
        out = inst.without_edges([0]).graph
        assert [(e.src, e.dst) for e in out.edges] == [(1, 2), (2, 1)]


class TestGenerate:
    def test_single_node(self):
        inst = generate_random_instance(
            1, 0.5, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=3
        )
        assert inst.graph.node_count == 1
        assert inst.graph.edges == ()
        assert inst.seeds == {0}

    def test_zero_edge_prob(self):
        inst = generate_random_instance(
            6, 0.0, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=2, lam=1.0, rng_seed=11
        )
        assert inst.graph.edges == ()

    def test_deterministic(self):
        a = generate_random_instance(
            8, 0.3, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=2, lam=0.5, rng_seed=42
        )
        b = generate_random_instance(
            8, 0.3, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=2, lam=0.5, rng_seed=42
        )
        assert serialize_instance(a) == serialize_instance(b)
        assert a == b

    def test_arc_count_limit(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_EDGES", 12)
        assert len(generate_random_instance(
            4, 1.0, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=0
        ).graph.edges) == 12
        with pytest.raises(ValueError, match="more than 12 edges"):
            generate_random_instance(
                5, 1.0, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=0
            )

    def test_too_many_seeds(self):
        with pytest.raises(ValueError, match="n_seeds > n_nodes"):
            generate_random_instance(
                5, 0.3, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=6, lam=1.0, rng_seed=0
            )


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Edge(1, 1, 0.5, 0.5)


def test_instance_rejects_bad_lambda(chain3):
    with pytest.raises(ValueError):
        ProblemInstance(chain3.graph, chain3.seeds, 1.5)


@given(
    n_nodes=st.integers(1, 8),
    edge_prob=st.floats(0.0, 1.0),
    rng_seed=st.integers(0, 2**32 - 1),
    undirected=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_serialize_parse_round_trip(n_nodes, edge_prob, rng_seed, undirected):
    inst = generate_random_instance(
        n_nodes, edge_prob, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=0.25,
        rng_seed=rng_seed
    )
    if undirected:
        # each pair as its two arcs in the order the parser builds them
        pairs = [e for e in inst.graph.edges if e.src < e.dst]
        edges = [arc for e in pairs for arc in (e, Edge(e.dst, e.src, e.p, e.i))]
        inst = ProblemInstance(Graph(n_nodes, edges, undirected=True), inst.seeds, inst.lam)
    assert parse_instance(serialize_instance(inst)) == inst


KEYWORDS = ("nodes", "undirected", "seeds", "lambda")


@given(
    n_nodes=st.integers(1, 8),
    edge_prob=st.floats(0.0, 1.0),
    rng_seed=st.integers(0, 2**32 - 1),
    undirected=st.booleans(),
    names=st.lists(
        st.from_regex(r"[A-Za-z][A-Za-z0-9_.-]{0,7}", fullmatch=True).filter(
            lambda name: name not in KEYWORDS
        ),
        min_size=8, max_size=8, unique=True,
    ),
)
@settings(max_examples=50, deadline=None)
def test_symbolic_names_parse_like_integer_ids(n_nodes, edge_prob, rng_seed, undirected, names):
    inst = generate_random_instance(
        n_nodes, edge_prob, p_range=(0.0, 1.0), i_range=(0.0, 1.0),
        n_seeds=2 if n_nodes > 1 else 1, lam=0.25, rng_seed=rng_seed
    )
    text = serialize_instance(inst)
    if undirected:
        text = text.replace("\n", "\nundirected\n", 1)
        text = "\n".join(
            line for line in text.splitlines()
            if len(line.split()) != 4 or int(line.split()[0]) < int(line.split()[1])
        ) + "\n"
    by_ints = parse_instance(text)
    # the parser numbers names in order of first use: edge lines, then seeds
    order: list[int] = []
    lines = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "seeds" or len(tokens) == 4:
            ids = tokens[1:] if tokens[0] == "seeds" else tokens[:2]
            for t in ids:
                if int(t) not in order:
                    order.append(int(t))
            named = [names[order.index(int(t))] for t in ids]
            tokens = ["seeds", *named] if tokens[0] == "seeds" else [*named, *tokens[2:]]
        lines.append(" ".join(tokens))
    by_names = parse_instance("\n".join(lines) + "\n")
    new_id = {v: k for k, v in enumerate(order)}
    g = by_ints.graph
    edges = [Edge(new_id[e.src], new_id[e.dst], e.p, e.i) for e in g.edges]
    assert by_names.graph == Graph(g.node_count, edges, undirected=g.undirected)
    assert by_names.seeds == frozenset(new_id[s] for s in by_ints.seeds)
    assert by_names.lam == by_ints.lam


INSTANCE_TOKENS = [
    "#", "# note", "0", "1", "2", "3", "-1", "0.5", "1.0", "-0.5", "1e308", "1e400",
    "-1e400", "99999999999999999999", "nan", "NaN", "inf", "-inf", "a", "b", "x_1", "0x1", "1_0",
]
# a line starts with a keyword or a token; lines of the right shape let the
# soup get past the header checks to node resolution and the range checks
SOUP_LINE = st.one_of(
    st.sampled_from([
        "nodes 3", "seeds 0", "seeds a", "lambda 0.5", "lambda 2", "lambda nan", "lambda a",
        "0 1 0.5 0.5", "a b 0.5 0.5",
    ]),
    st.builds(
        lambda head, rest: " ".join([head, *rest]),
        st.one_of(st.sampled_from(KEYWORDS), st.sampled_from(INSTANCE_TOKENS)),
        st.lists(st.sampled_from([*KEYWORDS, *INSTANCE_TOKENS]), max_size=4),
    ),
)


@given(
    header=st.sets(st.sampled_from(["nodes 3", "seeds 0", "lambda 0.5"])),
    lines=st.lists(SOUP_LINE, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_token_soup_parses_or_raises_parse_error(header, lines):
    try:
        inst = parse_instance("\n".join([*sorted(header), *lines]))
    except ParseError:
        return
    assert isinstance(inst, ProblemInstance)


@given(rng_seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_removal_composes(rng_seed, data):
    inst = generate_random_instance(
        6, 0.5, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=rng_seed
    )
    n_edges = len(inst.graph.edges)
    if n_edges == 0:
        return
    first = data.draw(st.sets(st.integers(0, n_edges - 1)))
    second = data.draw(st.sets(st.integers(0, n_edges - 1)))
    combined = inst.without_edges(first | second)
    step = inst.without_edges(first)
    remap = [
        k
        for k, e in enumerate(step.graph.edges)
        if any(inst.graph.edges[j] == e for j in second)
    ]
    assert step.without_edges(remap) == combined


SRC = str(Path(__file__).resolve().parents[1] / "src")
MODULES = ["graph", "cascade", "containment", "qae", "gmf", "qsim", "cli"]


def import_in_fresh_interpreter(module: str) -> subprocess.CompletedProcess:
    """Import ``qcontain.<module>`` alone and print the qcontain modules it loaded."""
    code = (
        f"import sys, qcontain.{module}; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'qcontain')))"
    )
    return subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    proc = import_in_fresh_interpreter(module)
    assert proc.returncode == 0, proc.stderr
    assert f"qcontain.{module}" in proc.stdout.split()


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name inside a string
    annotation counts as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    quoted = [
        ast.parse(n.value, mode="eval")
        for ann in annotations if ann is not None
        for n in ast.walk(ann) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]
    used = {n.id for t in [tree, *quoted] for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_guard_sees_string_annotations():
    source = "from a import B, C, D\nimport e.f\ndef g(x: 'B') -> 'list[C]':\n    pass\n"
    assert unused_imports(source) == ["D", "e"]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(Path(SRC, "qcontain").glob("*.py"))
    assert {path.stem for path in paths} >= set(MODULES)
    unused = {path.name: unused_imports(path.read_text()) for path in paths}
    assert {name: names for name, names in unused.items() if names} == {}


def test_graph_import_loads_no_other_module():
    proc = import_in_fresh_interpreter("graph")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["qcontain", "qcontain.graph"]
