"""Tests of the benchmark itself: its exact answers, checks and tracing.

Run with `python -m pytest perfbench` from the repository root.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

import run
import tracing
import workloads
from smc2 import PFConfig, SIRModel
from smc2 import comms, pf, pmcmc, rng
from smc2 import smc2 as outer


def _small_inputs(name: str, seed: int = 3) -> workloads.Inputs:
    """The workload's own inputs, shrunk so a call takes well under a second."""
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(seed)
    if name == "sir-pmcmc":
        return dataclasses.replace(inputs, config=PFConfig(n_particles=40))
    config = dataclasses.replace(inputs.config, n_samples=32, n_iterations=4,
                                 pf_config=PFConfig(n_particles=40))
    return dataclasses.replace(inputs, config=config)


@pytest.fixture(params=["inprocess", "mpi-like"])
def backend(request, monkeypatch):
    monkeypatch.setenv("SMC2_BACKEND", request.param)
    return request.param


# ---------------------------------------------------------------------------
# The Gaussian target's exact answers.


@pytest.mark.parametrize("seed", [1, 2, 17])
def test_gauss_closed_forms_match_quadrature(seed):
    target = workloads.WORKLOADS["gauss-lkernel-p2"].setup(seed).target
    mean = target.posterior_mean()
    sd = 1.0 / math.sqrt(1.0 + workloads.GAUSS_OBS / workloads.GAUSS_OBS_VAR)
    axes = [np.linspace(m - 12 * sd, m + 12 * sd, 1201) for m in mean]
    t0, t1 = np.meshgrid(*axes, indexing="ij")
    thetas = np.stack([t0.ravel(), t1.ravel()], axis=1)
    ys = target.ys
    # Prior times likelihood, written out from the densities term by term.
    log_joint = -0.5 * np.sum(thetas ** 2, axis=1) - math.log(2 * math.pi)
    for y in ys:
        sq = np.sum((y - thetas) ** 2, axis=1)
        log_joint += -sq / (2 * target.obs_var) - math.log(2 * math.pi * target.obs_var)
    shift = log_joint.max()
    dens = np.exp(log_joint - shift).reshape(t0.shape)
    # A Riemann sum is accurate far below the asserted tolerance for an
    # integrand that vanishes this fast at the edges of the box.
    cell = (axes[0][1] - axes[0][0]) * (axes[1][1] - axes[1][0])
    mass = dens.sum() * cell
    quad_log_z = shift + math.log(mass)
    quad_mean = [float((dens * t).sum() * cell / mass) for t in (t0, t1)]
    assert abs(target.log_evidence() - quad_log_z) < 1e-8
    np.testing.assert_allclose(mean, quad_mean, rtol=0, atol=1e-9)
    theta = np.array([0.3, -0.7])
    direct = sum(-np.sum((y - theta) ** 2) / (2 * target.obs_var)
                 - math.log(2 * math.pi * target.obs_var) for y in ys)
    assert abs(target.loglik(theta) - direct) < 1e-10


# ---------------------------------------------------------------------------
# Each check rejects a perturbed output.


def _replace_iteration(result, k, **changes):
    its = list(result.iterations)
    its[k] = dataclasses.replace(its[k], **changes)
    return dataclasses.replace(result, iterations=tuple(its))


def _with_result(op, result):
    ranks = [dataclasses.replace(r, result=result) for r in op.ranks]
    return dataclasses.replace(op, ranks=ranks)


@pytest.mark.parametrize("name", ["sir-smc2-p2", "gauss-lkernel-p2"])
def test_smc2_checks_reject_perturbed_outputs(name):
    wl = workloads.WORKLOADS[name]
    inputs = _small_inputs(name)
    if name == "gauss-lkernel-p2":
        # full size: the exact-answer tolerances are set for it
        inputs = wl.setup(3)
    op = wl.call(inputs, workloads.root_seed(3, 0), trace=False)
    assert wl.check_op(inputs, op) == []
    res = op.result
    n = inputs.config.n_samples
    coeffs = res.recycling_coefficients
    bad = [
        _replace_iteration(res, 1, ess=0.5),
        _replace_iteration(res, 1, ess=n * 1.01),
        dataclasses.replace(res, recycling_coefficients=np.r_[coeffs[:-1], -1e-3]),
        dataclasses.replace(res, recycling_coefficients=coeffs * (1 + 1e-9)),
        dataclasses.replace(res, recycled_estimate=np.array([np.nan, 0.0])),
    ]
    if name == "gauss-lkernel-p2":
        shift = np.array([workloads.GAUSS_MEAN_TOL * 1.5, 0.0])
        bad += [
            dataclasses.replace(res, recycled_estimate=res.recycled_estimate + shift),
            _replace_iteration(res, 2, logz_increment=res.iterations[2].logz_increment
                               + 2 * workloads.GAUSS_LOGZ_TOL),
        ]
    for result in bad:
        assert wl.check_op(inputs, _with_result(op, result)), result


def test_sir_gate_rejects_perturbed_estimates():
    wl = workloads.WORKLOADS["sir-smc2-p2"]
    inputs = _small_inputs("sir-smc2-p2")
    op = wl.call(inputs, 5, trace=False)

    def run_with(estimate):
        res = dataclasses.replace(op.result, recycled_estimate=np.asarray(estimate))
        return wl.check_run(inputs, [_with_result(op, res)])

    assert run_with(workloads.TRUTH) == []
    assert run_with([0.85 + 0.08, 0.2 - 0.04]) == []  # mse 4e-3
    for estimate in ([0.85 + 0.11, 0.2], [0.85, 0.2 - 0.06], [0.85 - 0.1, 0.2 - 0.05]):
        assert run_with(estimate), estimate
    assert workloads.sir_gate_problems([0.85 - 0.09, 0.2 + 0.03]) == []
    assert workloads.sir_gate_problems([0.85 - 0.1, 0.2 + 0.0499])  # mse 5.2e-3


def test_pmcmc_checks_reject_perturbed_chains():
    wl = workloads.WORKLOADS["sir-pmcmc"]
    inputs = _small_inputs("sir-pmcmc")
    op = wl.call(inputs, 7, trace=False)
    assert wl.check_op(inputs, op) == []
    chain = op.result.chain
    last = chain.draws.shape[0] - 1
    for field, index, value in (("draws", (last, 0), 1.01), ("draws", (last, 1), -0.01),
                                ("log_targets", last, -np.inf),
                                ("log_targets", last, np.nan)):
        arr = getattr(chain, field).copy()
        arr[index] = value
        bad_chain = dataclasses.replace(chain, **{field: arr})
        bad = dataclasses.replace(op.result, chain=bad_chain)
        assert wl.check_op(inputs, _with_result(op, bad)), (field, value)


# ---------------------------------------------------------------------------
# Tracing changes nothing and leaves nothing behind.


WRAPPED = [
    (outer, ["run_pf", "propose", "fit_gaussian_joint", "lkernel_log_density",
             "_gaussian_log_density_chol", "systematic_choice", "parallel_redistribute",
             *tracing.WEIGHT_STATS]),
    (pmcmc, ["run_pf"]),
    (pf, ["pf_step", "multinomial_resample"]),
    (rng, ["stream"]),
    (comms, ["pack_payload", "unpack_payload"]),
    (comms.Communicator, list(tracing.COLLECTIVES)),
    (SIRModel, ["sample_transition", "observation_log_density", "log_prior"]),
    (workloads.GaussTarget, ["log_prior"]),
]


def _snapshot():
    return {(id(owner), attr): getattr(owner, attr) if not isinstance(owner, type)
            else owner.__dict__[attr] for owner, attrs in WRAPPED for attr in attrs}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_agree_bitwise(name, backend):
    wl = workloads.WORKLOADS[name]
    inputs = _small_inputs(name)
    before = _snapshot()
    with tracing.Tracer() as counter:
        workloads.install_eval_counter(counter)
        plain = wl.call(inputs, 11, trace=False)
        with tracing.Tracer() as layers:
            tracing.install_layers(layers, type(inputs.model))
            assert _snapshot() != before
            traced = wl.call(inputs, 11, trace=True)
    assert _snapshot() == before
    assert workloads.fingerprint(plain) == workloads.fingerprint(traced)
    assert plain.evals == traced.evals > 0
    values = run.layer_values(traced)
    if name == "sir-pmcmc":
        assert values["pf.calls"] == traced.evals and values["pmcmc.self_s"] > 0
    else:
        assert values["comms.rounds"] == plain.rounds > 0
        assert values["comms.messages"] > 0 and values["rng.streams"] > 0
        assert values["smc2.rank_busy_max_s"] >= values["smc2.rank_busy_mean_s"] > 0
    if name == "sir-smc2-p2":
        assert values["pf.calls"] == traced.evals
        assert values["pf.particle_steps"] > 0 and values["ssm.transition_s"] > 0


def test_wrappers_restored_after_a_failing_call():
    inputs = _small_inputs("gauss-lkernel-p2")
    before = _snapshot()
    broken = dataclasses.replace(inputs, loglik_fn=lambda theta, rng: 1 / 0)
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as layers:
            tracing.install_layers(layers, type(inputs.model))
            workloads.WORKLOADS["gauss-lkernel-p2"].call(broken, 1, trace=True)
    assert _snapshot() == before
    assert tracing.current() is None


def test_traced_run_prints_every_layer_metric_and_restores():
    before = _snapshot()
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "gauss-lkernel-p2", "--seed", "4",
                         "--seconds", "0", "--trace", "1"])
    assert code == 0
    assert _snapshot() == before
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert set(result["metrics"]) == set(run.LAYER_UNITS)
    with open(run.HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["per_layer"]} == set(run.LAYER_UNITS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for m in spec["per_layer"]:
        assert m["unit"] == run.LAYER_UNITS[m["name"]]
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
