"""Output checks.  Each attempted root, mode or CLI call gets one status:

* "ok";
* "known:<defect>" for a failure that a named, documented defect explains,
  counted in `failed` and `failed_frac` but not against `correct`;
* "fail:<reason>" for anything else, which makes the run incorrect.
"""

from __future__ import annotations

import math
from collections import Counter

# ExactWeak carries the occupation-pole term with the opposite sign from the
# contour quadrature, so its damping is about 3x the value the oracle confirms
# (README, first numerical note; ROADMAP item 5).  dominant_root hands that
# value out for every thermal gas.
WEAK_DAMPING = "exactweak_thermal_damping_3x"
KNOWN_DEFECTS = {
    WEAK_DAMPING: "ExactWeak (and dominant_root on a thermal gas) returns about 3x the "
                  "ExactQuadrature damping, and a frequency off by up to 1e-2, wherever the "
                  "reference |eta| > 1e-6 omega; those roots fail their check against ExactQuadrature",
}

DAMPED = 1e-6                 # |eta| / omega above which eta is checked
ETA_RTOL = 0.15               # criterion 06's bound on eta
OMEGA_RTOL_WEAK = 1e-6        # ExactWeak vs ExactQuadrature frequency
OMEGA_RTOL_DEGENERATE = 1e-9  # ExactDegenerate vs ExactQuadrature (4e-11 seen)
ORACLE_OMEGA_RTOL = 0.02      # criterion 06
ORACLE_ETA_MIN = 0.01         # eta checked against the oracle when |eta| > 1% omega
SIGN_DEADBAND = 1e-6          # the CLI's: |eta| below this share of omega has no sign


class Tally:
    """Statuses of the checked items of one run.  An item is one position
    of one input cycle; a run that wraps round its cycles checks the
    repeats too, and an item keeps the first failure any pass gave it, so
    `attempted` counts distinct inputs and does not grow with speed."""

    def __init__(self):
        self.eta_ratios: list[float] = []
        self._status: dict[tuple[int, int], str] = {}
        self._cycle = 0
        self._position = 0

    def start_cycle(self, index: int) -> None:
        self._cycle, self._position = index, 0

    def add(self, status: str) -> None:
        key = (self._cycle, self._position)
        self._position += 1
        if self._status.get(key, "ok") == "ok":
            self._status[key] = status

    @property
    def statuses(self) -> Counter:
        return Counter(self._status.values())

    @property
    def attempted(self) -> int:
        return len(self._status)

    @property
    def failed(self) -> int:
        return self.attempted - self.statuses["ok"]

    @property
    def correct(self) -> bool:
        return not any(status.startswith("fail:") for status in self._status.values())

    def failed_frac(self) -> float:
        """Laplace's rule-of-succession estimate (failed + 1) / (attempted + 2):
        the share of failures, kept above zero on a run where nothing fails so
        that a relative bound on it means something."""
        return (self.failed + 1) / (self.attempted + 2)

    def known(self) -> dict:
        return {status[6:]: n for status, n in sorted(self.statuses.items()) if status.startswith("known:")}

    def unexpected(self) -> dict:
        return {status[5:]: n for status, n in sorted(self.statuses.items()) if status.startswith("fail:")}


def exact_root(res, abs_tol: float) -> str | None:
    """Every exact root is converged with residual_norm < abs_tol."""
    if not res.converged:
        return "nonconverged"
    if not res.residual_norm < abs_tol:
        return "residual_above_tol"
    return None


def against_reference(omega: float, eta: float, ref_omega: float, ref_eta: float,
                      omega_rtol: float) -> str | None:
    if not abs(omega - ref_omega) <= omega_rtol * ref_omega:
        return "omega_vs_reference"
    if abs(ref_eta) > DAMPED * ref_omega and not abs(eta - ref_eta) <= ETA_RTOL * abs(ref_eta):
        return "eta_vs_reference"
    return None


def weak_status(res, ref, abs_tol: float, tally: Tally) -> str:
    """An ExactWeak root (from sweep or dominant_root) against the
    ExactQuadrature root at the same k."""
    reason = exact_root(res, abs_tol)
    if reason is not None:
        return "fail:" + reason
    if ref is None:
        return "fail:no_reference_root"
    reason = against_reference(res.rate.omega, res.rate.eta, ref.rate.omega, ref.rate.eta, OMEGA_RTOL_WEAK)
    if reason is None:
        return "ok"
    if abs(ref.rate.eta) > DAMPED * ref.rate.omega:
        # the wrong-signed pole term pulls omega as well as eta once the
        # root is damped: 2e-10 at y = 0.3 up to 1e-2 at y = 0.45
        tally.eta_ratios.append(res.rate.eta / ref.rate.eta)
        return "known:" + WEAK_DAMPING
    return "fail:" + reason


def _sign(eta: float, omega: float) -> int:
    if abs(eta) < SIGN_DEADBAND * omega:
        return 0
    return 1 if eta > 0 else -1


def oracle_mode(row: dict) -> str:
    """A compare.csv row against criterion 06's bounds."""
    omega, eta = row["omega_solver"], row["eta_solver"]
    omega_o, eta_o = row["omega_oracle"], row["eta_oracle"]
    if not all(math.isfinite(v) for v in (omega, eta, omega_o, eta_o)):
        return "fail:oracle_refused_mode"
    if not abs(omega_o - omega) <= ORACLE_OMEGA_RTOL * omega:
        return "fail:oracle_omega"
    signs = (_sign(eta, omega), _sign(eta_o, omega_o))
    if 0 not in signs and signs[0] != signs[1]:
        return "fail:oracle_eta_sign"
    if abs(eta) > ORACLE_ETA_MIN * omega and not abs(eta_o - eta) <= ETA_RTOL * abs(eta):
        return "fail:oracle_eta"
    return "ok"
