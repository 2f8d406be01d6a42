"""The operations of each workload, made from the workload seed.

Plain data only: the measuring process turns a spec into a call into the
package, and the checking process reads the same spec to compute its
reference, so neither imports the other's dependencies.

A workload is an endless sequence of cycles. A run executes whole cycles
only, so every run attempts the same mix of operations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

__all__ = ["WORKLOADS", "campaign_seed", "campaign_spec", "cli_argv"]

_MASK64 = (1 << 64) - 1


def campaign_seed(seed: int, index: int) -> int:
    """SplitMix64 of (seed, index): a 64-bit seed per operation."""
    z = (seed * 0x9E3779B97F4A7C15 + index + 1) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sim" (run_campaign) or "cli" (cli.main)
    cycle: Callable[[int, int], list]  # (seed, cycle index) -> op specs
    warmup: list  # untimed specs run once before the first operation
    n_subjects: int = 0  # trial size of the single-trial probes; 0: none


# --- simulator workloads: specs are SimConfig keyword arguments ---

ALPHA = 0.05
SIGMA = 1.0
RHO = 0.5
ANCHOR_N = 126  # 80% unadjusted power at tau = 0.5, sigma = 1
ANCHOR_TAU = 0.5
LARGE_N = 8 * ANCHOR_N
LARGE_N_TAU = ANCHOR_TAU / math.sqrt(8.0)  # same noncentrality as the anchor
REPS = 4096  # one chunk of the simulator: its largest working set


def campaign_spec(n: int, tau: float, adjust: bool, reps: int, seed: int) -> dict:
    return dict(n_subjects=n, tau=tau, sigma=SIGMA, rho=RHO, alpha=ALPHA,
                n_reps=reps, seed=seed, test_kind="student_t", adjust=adjust)


def _sim_cycle(n: int, pattern: tuple) -> Callable[[int, int], list]:
    """Campaigns at (tau, adjust) pairs; each gets its own derived seed."""
    def cycle(seed: int, k: int) -> list:
        return [campaign_spec(n, tau, adjust, REPS, campaign_seed(seed, k * len(pattern) + j))
                for j, (tau, adjust) in enumerate(pattern)]
    return cycle


def _sim_warmup(n: int) -> list:
    return [campaign_spec(n, ANCHOR_TAU, adjust, 8, 0) for adjust in (True, False)]


# adjusted/unadjusted pairs at the design effect, then one pair at tau = 0
_ANCHOR_PATTERN = ((ANCHOR_TAU, True), (ANCHOR_TAU, False),
                   (ANCHOR_TAU, True), (ANCHOR_TAU, False),
                   (0.0, True), (0.0, False))
_LARGE_N_PATTERN = ((LARGE_N_TAU, True), (LARGE_N_TAU, False))


# --- closed-form CLI workload: specs are (command, args, format) ---

_ALPHAS = (0.01, 0.025, 0.05, 0.1)
_POWERS = (0.7, 0.8, 0.9)
_TAUS = (0.25, 0.5, -0.4, 1.0)
_SIGMAS = (0.5, 1.0, 2.0)
_NS = (24.0, 64.0, 126.0, 250.0, 1000.0)
_RS = (0.0, 0.3, -0.5, 0.5, 0.7, 0.9)
CURVE_POWER = 0.8
CURVE_R_MAX = 0.99
CURVE_STEP = 0.001  # 991 rows


def _cli_cycle(seed: int, k: int) -> list:
    """One scalar command of each kind, on inputs drawn from a fixed grid
    of valid values, and one curve; output format alternates."""
    rng = random.Random(campaign_seed(seed, k))
    alpha, power = rng.choice(_ALPHAS), rng.choice(_POWERS)
    specs = [
        ("power", dict(alpha=alpha, tau=rng.choice(_TAUS), sigma=rng.choice(_SIGMAS),
                       n=rng.choice(_NS), r=rng.choice(_RS), exact=True)),
        ("sample-size", dict(alpha=alpha, power=power, tau=rng.choice(_TAUS),
                             sigma=rng.choice(_SIGMAS), round_even=True)),
        ("ratio", dict(alpha=alpha, power=power, r=rng.choice(_RS))),
        ("expand", dict(alpha=alpha, power=power)),
        # the paper's design, so every curve costs the same whatever the seed
        ("curve", dict(alpha=ALPHA, power=CURVE_POWER, r_max=CURVE_R_MAX, step=CURVE_STEP)),
    ]
    first = k * len(specs)
    return [dict(command=c, args=a, format=("json", "csv")[(first + j) % 2])
            for j, (c, a) in enumerate(specs)]


def _cli_warmup() -> list:
    specs = _cli_cycle(0, 0)
    specs[-1]["args"] = dict(specs[-1]["args"], r_max=0.5, step=0.1)
    return specs


def cli_argv(spec: dict) -> list:
    """The command line of a CLI spec: flags in order, booleans as switches."""
    argv = [spec["command"]]
    for key, value in spec["args"].items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv += [flag, repr(value)]
    return argv + ["--format", spec["format"]]


WORKLOADS = {
    w.name: w for w in (
        Workload("sim-anchor", "sim", _sim_cycle(ANCHOR_N, _ANCHOR_PATTERN),
                 _sim_warmup(ANCHOR_N), ANCHOR_N),
        Workload("sim-large-n", "sim", _sim_cycle(LARGE_N, _LARGE_N_PATTERN),
                 _sim_warmup(LARGE_N), LARGE_N),
        Workload("analytic-cli", "cli", _cli_cycle, _cli_warmup()),
    )
}
