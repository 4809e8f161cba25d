"""Output oracle: decides whether one child's report is correct.

Every report must exit 0 and say `"passed": true`.  Verdict commands with a
known answer must report it (SAT or UNSAT).  `correlate` reports are held
to the physics: in the exact regime (no noise, unit efficiency) every
equality rate, product-pass rate and conclusive fraction is exactly 1.0; in
a noisy regime the equality rate must fall within a binomial band around
(1-p)^2 + p^2 and the conclusive fraction within one around efficiency^2.
`Digests` checks that a command run again with the same argv prints the
same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math

from workloads import Command

# Band half-width in standard deviations.  A 6-sigma two-sided miss has
# probability ~2e-9, so over the thousands of band checks that many runs
# make, a correct program does not fail one by chance.
BAND_SIGMAS = 6.0
MODES = ("alone", "in_context")


def binomial_band(expected: float, trials: int) -> float:
    """Allowed |rate - expected| for a rate measured over `trials` draws."""
    return BAND_SIGMAS * math.sqrt(expected * (1.0 - expected) / trials) + 1.0 / trials


def check(command: Command, exit_code: int, stdout: str) -> list[str]:
    """Problems with one report; an empty list means it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as err:
        return [f"report is not JSON: {err}"]
    problems = []
    if report.get("passed") is not True:
        failing = [c.get("name") for c in report.get("checks", []) if not c.get("passed")]
        problems.append(f"passed is {report.get('passed')!r}; failing checks {failing}")
    expected_result = command.expect.get("result")
    if expected_result and report.get("result") != expected_result:
        problems.append(f"result {report.get('result')!r}, expected {expected_result}")
    if command.kind == "correlate":
        problems += _check_correlate(command.expect, report)
    return problems


def _check_correlate(expect: dict, report: dict) -> list[str]:
    shots = expect["shots"]
    p = expect["noise"]
    eff = expect["efficiency"]
    exact = p == 0.0 and eff == 1.0
    problems = []
    for mode in MODES:
        rate = report.get(f"{mode}_equality_rate")
        conclusive = report.get(f"{mode}_conclusive_fraction")
        products = report.get(f"{mode}_product_pass_rates")
        if not isinstance(conclusive, (int, float)) or not isinstance(products, dict):
            problems.append(f"{mode}: statistics missing")
            continue
        if exact:
            if rate != 1.0 or conclusive != 1.0:
                problems.append(f"{mode}: exact regime gave equality {rate}, conclusive {conclusive}")
            if not products or any(v != 1.0 for v in products.values()):
                problems.append(f"{mode}: exact regime product pass rates {products}")
            continue
        want_conclusive = eff * eff
        if abs(conclusive - want_conclusive) > binomial_band(want_conclusive, shots):
            problems.append(f"{mode}: conclusive fraction {conclusive} outside band of {want_conclusive:.4f}")
        comparable = round(conclusive * shots)
        if comparable == 0:
            continue
        want_equal = (1.0 - p) ** 2 + p**2
        if not isinstance(rate, (int, float)) or abs(rate - want_equal) > binomial_band(
            want_equal, comparable
        ):
            problems.append(f"{mode}: equality rate {rate} outside band of {want_equal:.4f}")
    return problems


class Digests:
    """Remembers each command's report digest and flags a differing repeat."""

    def __init__(self):
        self._seen: dict[str, str] = {}

    def check(self, command: Command, stdout: str) -> list[str]:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        first = self._seen.setdefault(command.key, digest)
        if first != digest:
            return [f"report digest {digest[:12]} differs from earlier {first[:12]}"]
        return []
