"""Self-tests of the independent SINR oracle (``tests/oracle.py``).

Closed-form two-link instances pin its SINR arithmetic by hand, and an
AST check keeps it independent of the library code it is the reference
for.  The same check keeps the kernel reference (``tests/reference.py``)
off the kernels it checks.
"""

import ast
import math
from pathlib import Path

import pytest

import oracle
from repro.core.instance import Direction, Instance
from repro.geometry.explicit import ExplicitMetric
from repro.geometry.line import LineMetric
from repro.geometry.tree import TreeMetric

#: Modules the oracle must not import: the code under test.
FORBIDDEN = (
    "repro.core.context",
    "repro.core.kernels",
    "repro.core.gains",
    "repro.core.interference",
    "repro.core.feasibility",
    "repro.analysis",
    "repro.scheduling",
)

#: Modules the kernel test reference (``tests/reference.py``) must not
#: import: the kernels it checks and everything built on them.
REFERENCE_FORBIDDEN = (
    "repro.core.kernels",
    "repro.analysis",
    "repro.scheduling",
)


def _two_links(direction, noise=0.0):
    """Links 0->1 and 4->5 on the line, alpha = 2, powers (1, 2)."""
    metric = LineMetric([0.0, 1.0, 4.0, 5.0])
    instance = Instance(
        metric, [0, 2], [1, 3], direction=direction, alpha=2.0, beta=1.0,
        noise=noise,
    )
    return instance, [1.0, 2.0]


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-15, abs_tol=0.0)


class TestClosedForm:
    def test_directed_two_links(self):
        instance, powers = _two_links(Direction.DIRECTED)
        sinr = oracle.SINROracle(instance, powers)
        # signals p_i / d(u_i, v_i)^2 = 1/1 and 2/1
        assert sinr.signals == [1.0, 2.0]
        # gain of link 1 at receiver v_0 = 1: 2 / (4 - 1)^2
        assert _close(sinr.gain(0, 1), 2.0 / 9.0)
        # gain of link 0 at receiver v_1 = 5: 1 / (5 - 0)^2
        assert _close(sinr.gain(1, 0), 1.0 / 25.0)
        margins = sinr.margins([0, 1])
        assert _close(margins[0], 4.5)
        assert _close(margins[1], 50.0)
        assert sinr.feasible([0, 0])

    def test_bidirectional_two_links(self):
        instance, powers = _two_links(Direction.BIDIRECTIONAL)
        sinr = oracle.SINROracle(instance, powers)
        # At u_0 = 0 link 1's nearer endpoint is 4: 2/16; at v_0 = 1 it
        # is 4 again: 2/9.  The worse endpoint is v_0.
        assert _close(sinr.gain(0, 1), 2.0 / 9.0)
        # At u_1 = 4 link 0's nearer endpoint is 1: 1/9; at v_1 = 5:
        # 1/16.  The worse endpoint is u_1.
        assert _close(sinr.gain(1, 0), 1.0 / 9.0)
        margins = sinr.margins([0, 1])
        assert _close(margins[0], 4.5)
        assert _close(margins[1], 18.0)

    def test_noise_enters_the_denominator(self):
        instance, powers = _two_links(Direction.DIRECTED, noise=0.25)
        sinr = oracle.SINROracle(instance, powers)
        assert _close(sinr.margin(0, [0, 1]), 1.0 / (2.0 / 9.0 + 0.25))
        assert _close(sinr.margin(0, [0]), 4.0)
        assert _close(sinr.budget(0), 0.75)

    def test_lone_request_without_noise_has_infinite_margin(self):
        instance, powers = _two_links(Direction.BIDIRECTIONAL)
        assert oracle.SINROracle(instance, powers).margin(1, [1]) == math.inf

    @pytest.mark.parametrize(
        "direction", [Direction.DIRECTED, Direction.BIDIRECTIONAL]
    )
    def test_shared_node_is_infinite_gain(self, direction):
        metric = LineMetric([0.0, 1.0, 2.0])
        instance = Instance(metric, [0, 1], [1, 2], direction=direction, alpha=2.0)
        sinr = oracle.SINROracle(instance, [1.0, 1.0])
        # Request 1 sends from node 1, where request 0 receives.
        assert sinr.gain(0, 1) == math.inf
        assert sinr.margin(0, [0, 1]) == 0.0
        assert not sinr.feasible([0, 0])
        assert not sinr.feasible_subset([0, 1])
        assert sinr.feasible([0, 1])
        colors = oracle.first_fit(instance, [1.0, 1.0]).value
        assert colors[0] != colors[1]


class TestMetrics:
    def test_tree_paths_sum_edge_weights(self):
        tree = TreeMetric(4, [(0, 1, 1.5), (1, 2, 2.0), (1, 3, 0.25)])
        instance = Instance(tree, [0, 2], [3, 3], alpha=1.0)
        sinr = oracle.SINROracle(instance, [1.0, 1.0])
        # d(0, 3) = 1.75, d(2, 3) = 2.25
        assert _close(sinr.signals[0], 1.0 / 1.75)
        assert _close(sinr.signals[1], 1.0 / 2.25)

    def test_other_metrics_raise(self):
        metric = ExplicitMetric([[0.0, 1.0], [1.0, 0.0]])
        instance = Instance(metric, [0], [1])
        with pytest.raises(TypeError, match="ExplicitMetric"):
            oracle.SINROracle(instance, [1.0])


class TestAmbiguity:
    def test_mirror_tie_is_ambiguous(self):
        """Mirror-image links have tied margins: which one the peel
        drops is too close to call."""
        metric = LineMetric([0.0, 1.0, 3.0, 4.0])
        instance = Instance(
            metric, [0, 2], [1, 3], direction=Direction.BIDIRECTIONAL
        )
        replay = oracle.peel(instance, [1.0, 1.0], beta=10.0)
        assert replay.ambiguous
        assert len(replay.value) == 1

    def test_clear_decisions_are_not_ambiguous(self):
        instance, powers = _two_links(Direction.BIDIRECTIONAL)
        assert oracle.first_fit(instance, powers) == oracle.Replay((0, 0), False)
        assert oracle.peel(instance, powers) == oracle.Replay((0, 1), False)

    def test_near(self):
        assert oracle.near(1.0, 1.0 + 1e-10)
        assert not oracle.near(1.0, 1.0 + 1e-8)
        assert not oracle.near(0.0, 0.0)
        assert not oracle.near(math.inf, math.inf)


def _imports(module_file):
    """Every module name (and ``module.name``) *module_file* imports."""
    tree = ast.parse((Path(__file__).parent / module_file).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module)
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    return imported


def test_oracle_imports_nothing_under_test():
    imported = _imports("oracle.py")
    assert "repro" not in imported
    for name in imported:
        assert not name.startswith(FORBIDDEN), f"oracle imports {name}"


def test_reference_imports_no_kernel():
    """``tests/reference.py`` reads only context margins and backend
    columns: it must not route through the kernels it is the reference
    for, nor through the layers built on them."""
    imported = _imports("reference.py")
    assert "repro" not in imported
    for name in imported:
        assert not name.startswith(REFERENCE_FORBIDDEN), (
            f"reference imports {name}"
        )
