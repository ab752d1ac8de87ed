import pytest

from qcontain.containment import RunAccounting, make_mc_estimator
from qcontain.graph import Edge, Graph, ProblemInstance


def mc_estimate(instance, trials, seed):
    """The MC estimator's estimate of the intact ``instance``, on the one draw ``seed`` gives."""
    return make_mc_estimator(trials, iter([seed]))(instance, [()], RunAccounting())[0]


@pytest.fixture
def single_edge():
    """0->1 with p=0.5: sigma = 1.5 exactly."""
    return ProblemInstance(Graph(2, [Edge(0, 1, 0.5, 0.3)]), frozenset({0}), 1.0)


@pytest.fixture
def chain3():
    """0->1->2 with p=0.5 each: sigma = 1 + 0.5 + 0.25 = 1.75."""
    edges = [Edge(0, 1, 0.5, 0.1), Edge(1, 2, 0.5, 0.1)]
    return ProblemInstance(Graph(3, edges), frozenset({0}), 1.0)


@pytest.fixture
def star():
    """S={0}, 0->1 (p=1, i=0.1) and 0->2 (p=0.1, i=0.1); lambda=1."""
    edges = [Edge(0, 1, 1.0, 0.1), Edge(0, 2, 0.1, 0.1)]
    return ProblemInstance(Graph(3, edges), frozenset({0}), 1.0)
