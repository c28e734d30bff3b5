"""Distributed-memory SMC^2 for calibrating state-space models.

An outer sequential Monte Carlo sampler explores the parameter space while
an inner bootstrap particle filter supplies unbiased likelihood estimates
for each parameter sample.  The outer layer runs on P message-passing
workers with an O(log2 N) systematic resampler, so estimates are invariant
to the worker count.
"""

from .comms import Communicator, GlobalSlice, spawn_group
from .pf import PFConfig, run_pf
from .pmcmc import PMCMCResult, run_pmcmc
from .smc2 import SMC2Config, SMC2Result, run_smc2
from .ssm import (
    Dataset,
    LinearGaussianModel,
    SIRConfig,
    SIRModel,
    kalman_loglik,
    read_dataset,
    simulate,
    simulate_sir,
    write_dataset,
)

__all__ = [
    "Communicator",
    "Dataset",
    "GlobalSlice",
    "LinearGaussianModel",
    "PFConfig",
    "PMCMCResult",
    "SIRConfig",
    "SIRModel",
    "SMC2Config",
    "SMC2Result",
    "kalman_loglik",
    "read_dataset",
    "run_pf",
    "run_pmcmc",
    "run_smc2",
    "simulate",
    "simulate_sir",
    "spawn_group",
    "write_dataset",
]
