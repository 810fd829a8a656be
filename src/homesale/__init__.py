"""Sale-timing optimization and price-evolution simulation for illiquid assets.

Closed-form expected payoffs for a seller facing Poisson offer flow with
withdrawals, numerical optimization of the waiting time, conditional
payoffs under stochastic demand and rates, a multi-owner market
simulator, and independent Monte Carlo oracles validating every closed
form.
"""

from .closed_form import (MarketParams, asymptotic_listed_payoff, auxiliary_payoff,
                          expected_utility, listed_payoff, listed_payoff_exact,
                          thinned_payoff, withdrawal_fraction)
from .market_sim import (EvolutionConfig, EvolutionLog, expected_price_curve,
                         run_evolution)
from .owt import OwtResult, SweepAxis, SweepSpec, optimal_waiting_time, sweep_owt
from .path_payoff import (ExponentialWithdrawals, PathContext, UniformOffers,
                          conditional_payoff, expected_payoff)
from .stochastic import (CirParams, DemandParams, RatePath, sample_nhpp,
                         simulate_cir, substream)

__version__ = "0.1.0"

__all__ = [
    "MarketParams", "withdrawal_fraction", "auxiliary_payoff",
    "thinned_payoff", "listed_payoff", "listed_payoff_exact",
    "asymptotic_listed_payoff", "expected_utility",
    "OwtResult", "SweepAxis", "SweepSpec", "optimal_waiting_time", "sweep_owt",
    "CirParams", "RatePath", "DemandParams", "simulate_cir",
    "sample_nhpp", "substream",
    "PathContext", "UniformOffers", "ExponentialWithdrawals",
    "conditional_payoff", "expected_payoff",
    "EvolutionConfig", "EvolutionLog", "run_evolution", "expected_price_curve",
    "__version__",
]
