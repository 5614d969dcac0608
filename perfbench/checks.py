"""Output checks. Each returns None when the job's output is right, else why not.

The checks re-derive what they can independently of the program: panel
outputs against committed sha256 digests, the large grid against the toy law
evaluated here, its contour against the analytic boundary
``omega*(N) = (1 + alpha_gen) * c_fed(N)``, and expected-mode ledgers against
committed reference values.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import (BIG_N_STEPS, BIG_OMEGA_STEPS, C_MIN, GAMMA, N_MAX, N_MIN,
                       OMEGA_MAX, OMEGA_MIN, Job, file_sha256, reference_key)

LEDGER_TOL = 1e-12
#: a value written at 9 significant digits is within half a unit of the 9th
CSV_RTOL, CSV_ATOL = 5e-9 * (1 + 1e-6), 1e-15


def compare_ledgers(got, want, tol: float = LEDGER_TOL, where: str = "ledger") -> str | None:
    """Structural equality, with floats within ``tol``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where}: keys differ"
        for key in want:
            why = compare_ledgers(got[key], want[key], tol, f"{where}.{key}")
            if why:
                return why
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            why = compare_ledgers(g, w, tol, f"{where}[{i}]")
            if why:
                return why
        return None
    if isinstance(want, float) and isinstance(got, (int, float)):
        if abs(got - want) > tol:
            return f"{where}: {got!r} differs from reference {want!r}"
        return None
    if got != want:
        return f"{where}: {got!r} != reference {want!r}"
    return None


def _check_simulate(job: Job, golden: dict) -> str | None:
    with open(job.outputs["ledger"]) as fh:
        ledger = json.load(fh)
    if not job.spec["mode"].startswith("sampled"):
        reference = golden["ledgers"].get(reference_key(job.spec))
        if reference is not None:
            return compare_ledgers(ledger, reference)
    return None


def _check_panel(job: Job, golden: dict) -> str | None:
    want = golden["panels"][job.spec["panel"]]
    for role, path in job.outputs.items():
        got = file_sha256(path)
        if got != want[role]:
            return f"{role} sha256 {got[:12]} != golden {want[role][:12]}"
    return None


def big_grid_axes():
    omega = np.geomspace(OMEGA_MIN, OMEGA_MAX, BIG_OMEGA_STEPS)
    n = np.linspace(N_MIN, N_MAX, BIG_N_STEPS)
    return omega, n


def c_fed(n):
    return C_MIN + (1.0 - C_MIN) / n**GAMMA


def check_big_contour(job: Job) -> str | None:
    """Every contour point within one log-omega cell of the analytic boundary."""
    with open(job.outputs["contours"]) as fh:
        polylines = json.load(fh)["polylines"]
    if not polylines:
        return "no fed-gen contour on the large grid"
    omega, _ = big_grid_axes()
    log_step = math.log(omega[1] / omega[0])
    worst = 0.0
    for line in polylines:
        for w, n in line:
            target = (1.0 + job.spec["alpha_gen"]) * float(c_fed(n))
            worst = max(worst, abs(math.log(w) - math.log(target)) / log_step)
    if worst > 1.0 + 1e-6:
        return f"contour point {worst:.3f} cells from omega*(N)"
    return None


def check_big_csv(job: Job, read_grid_csv) -> str | None:
    """The grid CSV reads back to the toy law's values at 9 significant digits."""
    grid = read_grid_csv(job.outputs["csv"])
    omega, n = big_grid_axes()
    w = omega[None, :]
    first = np.minimum(c_fed(n)[:, None] / w, 1.0 / (1.0 + job.spec["alpha_fed"]))
    second = np.minimum(1.0 / w, 1.0 / (1.0 + job.spec["alpha_gen"]))
    first, second = np.broadcast_arrays(first, second)
    for label, got, want in (("omega", grid.omega, omega), ("n", grid.axis2, n),
                             ("eta_first", grid.eta_first, first),
                             ("eta_second", grid.eta_second, second),
                             ("delta_eta", grid.delta, first - second)):
        if got.shape != want.shape:
            return f"{label}: shape {got.shape} != {want.shape}"
        bad = np.abs(got - want) > CSV_RTOL * np.abs(want) + CSV_ATOL
        if bad.any():
            k = int(np.argmax(bad))
            return f"{label}: {got.flat[k]!r} is not {want.flat[k]!r} at 9 digits"
    return None


def _check_verify(job: Job) -> str | None:
    with open(job.outputs["report"]) as fh:
        report = json.load(fh)
    if not report["all_passed"]:
        return "verify report has failed checks"
    return None


def check_job(job: Job, rc, golden: dict) -> str | None:
    """Cheap per-execution check of one job's exit code and outputs."""
    if rc != 0:
        return f"exit code {rc!r}, expected 0"
    if job.command == "simulate":
        return _check_simulate(job, golden)
    if job.command == "verify":
        return _check_verify(job)
    if "panel" in job.spec:
        return _check_panel(job, golden)
    if job.name == "contour-big":
        return check_big_contour(job)
    return None


def sampled_accuracy(cum_sampled: float, se: float, cum_expected: float) -> str | None:
    """Sampled cumulative info within 4 standard errors (+1e-12) of the exact value."""
    gap = abs(cum_sampled - cum_expected)
    if gap > 4.0 * se + 1e-12:
        return f"sampled {cum_sampled!r} is {gap:.3e} from expected {cum_expected!r} (se {se:.3e})"
    return None
