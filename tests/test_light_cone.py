"""Only neighbouring communication: a light cone on a line.

A round sends v vectors to the neighbours (v = 2 for gradient tracking,
else 1), so after t rounds a change to node 0's data can have reached no
node more than v t hops away.  The q-form keeps to less: x1 = x - u is
local, and gradient tracking's second vector is D dx, the exchange of
the previous round's dx, so a round's new information moves one hop and
x^t depends on no data more than t - 1 hops away, for every method.
Values are compared with np.array_equal: a sum of exact zero
contributions may flip the sign of a zero, and nothing else.  A dense or
squared exchange operator, or a second exchange of the fresh dx1, breaks
this.
"""

import numpy as np
import pytest

from newtrack import algorithms as alg
from newtrack.harness import METHODS, AlgorithmSpec, TopologySpec, build_network
from newtrack.objectives import (LogisticFamily, QuadraticFamily,
                                 generate_logistic_data,
                                 generate_quadratic_set)

N = 8
ROUNDS = 5
SPECS = [AlgorithmSpec("nt", 1.0, 2.0), AlgorithmSpec("gt", 0.1),
         AlgorithmSpec("extra", 0.1), AlgorithmSpec("dlm", 0.1, 1.0)]


def quadratic_pair():
    fam = generate_quadratic_set(N, 3, seed=4)
    a, b = fam.a.copy(), fam.b.copy()
    a[0] *= 1.5
    b[0] += 1.0
    return fam, QuadraticFamily(a, b)


def logistic_pair(m, p):
    fam = generate_logistic_data(N, m, p, reg=1e-2, seed=4)
    features, labels = fam.features.copy(), fam.labels.copy()
    features[0] += np.random.default_rng(5).standard_normal((m, p))
    labels[0] *= -1.0
    return fam, LogisticFamily(features, labels, fam.reg)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("pair", [quadratic_pair, lambda: logistic_pair(12, 4),
                                  lambda: logistic_pair(3, 6)],
                         ids=["quadratic", "logistic-m>=p", "logistic-m<p"])
def test_a_change_at_node_0_spreads_one_hop_a_round(pair, spec):
    base, changed = pair()
    net = build_network(TopologySpec(kind="line", n=N))
    step = getattr(alg, f"{spec.name}_step")
    state, other = (METHODS[spec.name].init(fam, net, spec) for fam in (base, changed))
    for t in range(1, ROUNDS + 1):
        state, other = step(state, base), step(other, changed)
        for node in range(t, N):  # node hops from node 0 on the line
            assert np.array_equal(state.x[node], other.x[node]), (t, node)
        if t == 2:  # not vacuous: the change has left node 0
            assert not np.array_equal(state.x[1], other.x[1])
