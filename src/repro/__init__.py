"""repro — reproduction of "FMore: An Incentive Scheme of Multi-dimensional
Auction for Federated Learning in MEC" (Zeng et al., ICDCS 2020).

Subpackages
-----------
``repro.core``
    The paper's contribution: the K-winner multi-dimensional procurement
    auction, Nash-equilibrium bidding strategies, psi-FMore, aggregator
    guidance and mechanism properties.
``repro.fl``
    Federated-learning substrate: a from-scratch numpy neural-network
    library, synthetic datasets standing in for MNIST/Fashion-MNIST/
    CIFAR-10/HPNews, non-IID partitioners, FedAvg and client-selection
    strategies (RandFL / FixedFL / FMore / psi-FMore).
``repro.mec``
    Mobile-edge-computing substrate: dynamic multi-dimensional resources,
    edge-node bidding agents, network/compute timing, and the simulated
    32-node cluster used for the "real-world" experiments.
``repro.api``
    The declarative surface: frozen, JSON-round-trippable
    :class:`~repro.api.Scenario` specs with the named presets, and the
    registry-driven :class:`~repro.api.FMoreEngine` façade (multi-seed
    runs, solver caching, batched bid collection).
``repro.sim``
    Named seed streams and the ASCII report tables that regenerate every
    figure of the paper's evaluation.
``repro.analysis``
    Equilibrium analytics (profit vs N/K, payment/score sweeps) and
    convergence summaries (rounds-to-accuracy, speedups).
"""

__version__ = "1.0.0"

from . import analysis, api, core, fl, mec, sim
from .api import FMoreEngine, RunResult, Scenario

__all__ = [
    "analysis",
    "api",
    "core",
    "fl",
    "mec",
    "sim",
    "Scenario",
    "FMoreEngine",
    "RunResult",
    "__version__",
]
