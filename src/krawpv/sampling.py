"""Seeded random rational sampling for exact identity testing.

Identities between rational expressions are certified Schwartz-Zippel style:
evaluate both sides at random rational points and require exact equality.
Numerators and denominators are drawn from [-99, 99]; a draw is rejected and
redrawn whenever any guarded denominator vanishes, and rejections are counted.

``run_case`` is the one loop that runs a sampled identity check:

* a point is redrawn, and one resample counted, when ``check`` raises a
  division error (a denominator vanished at the point); ``draw`` itself may
  also reject and redraw inside ``Sampler.draw``;
* a case FAILs when ``check`` returns a failure message for any completed
  sample; messages are numbered ``sample k:`` by that sample;
* a case whose points run out FAILs with "sampling exhausted after k
  samples" instead of aborting the suite: either ``Sampler.draw`` gives up,
  or more than ``MAX_RESAMPLES_PER_POINT`` attempts per requested sample
  were spent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

COORD_BOUND = 99
MAX_RESAMPLES_PER_POINT = 1000


class SamplingExhausted(RuntimeError):
    """Could not find a nonsingular sample within the resample budget."""


def rand_fraction(rng: random.Random, bound: int = COORD_BOUND) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


@dataclass
class Sampler:
    """Draws bindings name -> Fraction, rejecting singular configurations."""

    rng: random.Random
    resamples: int = 0

    def draw(
        self,
        names: Sequence[str],
        reject: Optional[Callable[[Dict[str, Fraction]], bool]] = None,
        fixed: Optional[Dict[str, Fraction]] = None,
    ) -> Dict[str, Fraction]:
        """One binding for `names`; `reject` returns True to force a redraw."""
        for _ in range(MAX_RESAMPLES_PER_POINT):
            env = {nm: rand_fraction(self.rng) for nm in names}
            if fixed:
                env.update(fixed)
            if reject is not None and reject(env):
                self.resamples += 1
                continue
            return env
        raise SamplingExhausted(f"no admissible sample for {list(names)}")


@dataclass
class CaseResult:
    """One verification case inside a suite."""

    id: str
    status: str  # PASS | FAIL | SKIP
    residual: str = "0"
    samples: int = 0
    resamples: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def run_case(
    case_id: str,
    sampler: Sampler,
    samples: int,
    draw: Callable[[], Dict[str, Fraction]],
    check: Callable[[Dict[str, Fraction]], List[str]],
) -> CaseResult:
    """Run ``check`` on ``samples`` nonsingular points from ``draw``.

    ``check`` returns the failure messages for one point (empty on success)
    and may add derived values to the point it is given.
    """
    if samples <= 0:
        raise ValueError(f"{case_id}: samples must be positive, got {samples}")
    case = CaseResult(case_id, "PASS")
    done = 0
    attempts = 0
    try:
        while done < samples:
            if attempts > MAX_RESAMPLES_PER_POINT * samples:
                raise SamplingExhausted(case_id)
            attempts += 1
            env = draw()
            try:
                failures = check(env)
            except ZeroDivisionError:
                sampler.resamples += 1
                continue
            done += 1
            if failures:
                case.status = "FAIL"
                case.residual = "nonzero"
                case.failures.extend(f"sample {done}: {msg}" for msg in failures)
    except SamplingExhausted:
        case.status = "FAIL"
        case.failures.append(f"sampling exhausted after {done} samples")
    case.samples = done
    case.resamples = sampler.resamples
    return case
