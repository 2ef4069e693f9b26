"""Correctness checks applied to every benchmark operation, and the
fault-injection self-test that proves each check can fail.

Checks work on plain "facts" read from an operation's output, so the same
rules apply to a library result (``MotResult``) and to a CLI artifact, and
the self-test can corrupt one fact at a time.  The duality-gap check is
enforced here because the library's own ``gap_tol`` is not read by the
solver.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from motbound import cli, fixtures, hedge, mot, payoff

GAP_RTOL = 1e-7        # |value - hedge price| <= GAP_RTOL * (1 + |value|)
RESIDUAL_TOL = 1e-9    # marginal and martingale residuals of the coupling
VERIFY_TOL = 1e-8      # hedge violation on the verification grid
ORDER_RTOL = 1e-7      # lower <= upper + ORDER_RTOL * (1 + |upper|)
ARTIFACT_RTOL = 1e-9   # artifacts print 12 significant digits
SMOOTH_ANCHOR = (1.0 / 3.0, 5e-3)   # smooth_pair(101) straddle lower: target, abs tolerance
COUNTEREXAMPLE_RTOL = 0.10


@dataclass
class Checked:
    """Outcome of one operation: wrong answers (``failures``), errors the
    program reported instead of an answer (``errors``: an exception, a
    non-zero exit, an error row), a fingerprint that must repeat when the
    operation repeats, and the artifact bytes a CLI operation wrote."""

    failures: list[str]
    fingerprint: str = ""
    artifact_bytes: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures or self.errors)


def bound_failures(value: float, hedge_price: float, verify_ok: bool,
                   marginal_residual: float, martingale_residual: float) -> list[str]:
    out = []
    if not verify_ok:
        out.append("hedge does not verify")
    gap = abs(value - hedge_price)
    if not gap <= GAP_RTOL * (1.0 + abs(value)):
        out.append(f"duality gap {gap:.3e}: value {value!r} vs hedge price {hedge_price!r}")
    if not marginal_residual <= RESIDUAL_TOL:
        out.append(f"marginal residual {marginal_residual:.3e}")
    if not martingale_residual <= RESIDUAL_TOL:
        out.append(f"martingale residual {martingale_residual:.3e}")
    return out


def order_failures(lower: float, upper: float) -> list[str]:
    if lower <= upper + ORDER_RTOL * (1.0 + abs(upper)):
        return []
    return [f"lower {lower!r} > upper {upper!r}"]


def anchor_failures(what: str, value: float, target: float, tol: float) -> list[str]:
    if abs(value - target) <= tol:
        return []
    return [f"{what} {value!r} misses closed form {target!r} by more than {tol:g}"]


def envelope_failures(certificate: float, lower: float | None) -> list[str]:
    if lower is None:
        return ["no lower bound of the same system to compare the certificate with"]
    if certificate <= lower + ARTIFACT_RTOL * (1.0 + abs(lower)):
        return []
    return [f"envelope certificate {certificate!r} above the lower bound {lower!r}"]


def counterexample_value(n_blocks: int) -> float:
    """-(sum of block lengths squared)/8, blocks cut at the partial sums of
    1/i^2 inside [0, 2]; written out here so the anchor does not come from
    the library under test."""
    edges = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, n_blocks + 1) ** 2), [2.0]])
    return float(-(np.diff(edges) ** 2).sum() / 8.0)


def coupling_residuals(coupling, system) -> tuple[float, float]:
    """Max |marginal mass - weight| and max |conditional mean increment|
    of a coupling, computed from its cells and masses alone."""
    idx = np.asarray(coupling.indices)
    mass = np.asarray(coupling.masses, dtype=float)
    shape = tuple(len(mu.points) for mu in system.marginals)
    marginal = 0.0
    for i, mu in enumerate(system.marginals):
        got = np.bincount(idx[:, i], weights=mass, minlength=shape[i])
        marginal = max(marginal, float(np.abs(got - mu.weights).max()))
    martingale = 0.0
    for j in range(len(shape) - 1):
        hist = np.ravel_multi_index(tuple(idx[:, : j + 1].T), shape[: j + 1])
        step = np.asarray(coupling.grids[j + 1])[idx[:, j + 1]] - np.asarray(coupling.grids[j])[idx[:, j]]
        drift = np.bincount(hist, weights=mass * step)
        martingale = max(martingale, float(np.abs(drift).max()) if drift.size else 0.0)
    return marginal, martingale


def result_facts(res, system) -> dict:
    marginal, martingale = coupling_residuals(res.coupling, system)
    return {"value": float(res.value), "hedge_price": hedge.price(res.hedge, system),
            "verify_ok": bool(res.report.valid),
            "marginal_residual": marginal, "martingale_residual": martingale}


def artifact_facts(entry: dict) -> dict:
    """The same facts read from one ``bounds`` result entry of the CLI."""
    diag, ver = entry["diagnostics"], entry["verification"]
    return {"value": entry["value"], "hedge_price": entry["hedge_price"],
            "verify_ok": ver["max_violation"] <= VERIFY_TOL and ver["wing_ok"] is not False,
            "marginal_residual": diag["max_marginal_residual"],
            "martingale_residual": diag["max_martingale_residual"]}


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliRun:
    """One in-process CLI call with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


def check_cli(run: CliRun, artifact: Path, judge) -> Checked:
    """Exit code, then ``judge(artifact_text)`` on the artifact, which
    returns (wrong answers, errors the artifact records).  The artifact is
    removed afterwards so a later failing call cannot pass on stale bytes."""
    if run.code != 0:
        error = f"exit code {run.code}: {run.stderr.strip()}"
        return Checked([], error, errors=[error])
    try:
        data = artifact.read_bytes()
    except OSError as exc:
        return Checked([f"artifact missing: {exc}"])
    artifact.unlink()
    digest = hashlib.sha256(data + b"\0" + run.stdout.encode()).hexdigest()
    try:
        failures, errors = judge(data.decode())
    except (KeyError, TypeError, ValueError) as exc:
        failures, errors = [f"artifact unreadable: {type(exc).__name__}: {exc}"], []
    return Checked(failures, digest, len(data), errors)


@dataclass
class OpRecord:
    name: str
    latency: float
    checked: Checked
    ref: float = float("nan")   # seconds of a unit of reference work near the operation (run.py)

    @property
    def cost(self) -> float:
        """Latency in units of the reference work (see run.py)."""
        return self.latency / self.ref


def execute(op, ctx: dict, pause=contextlib.nullcontext) -> OpRecord:
    """Run one operation (timed) and check it (untimed, inside ``pause``).
    An exception is a failed operation, never a crash of the benchmark."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # the operation failed; record it and go on
        latency = time.perf_counter() - t0
        error = f"raised {type(exc).__name__}: {exc}"
        return OpRecord(op.name, latency, Checked([], error, errors=[error]))
    latency = time.perf_counter() - t0
    with pause():
        checked = op.check(out, ctx)
    return OpRecord(op.name, latency, checked)


def determinism(passes: list[list[OpRecord]]) -> list[str]:
    """Each operation's fingerprint (pivots, verified cells, value, artifact
    SHA-256, or the error it raised) must repeat in every pass; a mismatch
    fails that operation.  Returns one line per mismatch."""
    lines = []
    for p, records in enumerate(passes[1:], start=2):
        for first, rec in zip(passes[0], records):
            if rec.checked.fingerprint != first.checked.fingerprint:
                rec.checked.failures.append(
                    f"pass {p} fingerprint {rec.checked.fingerprint!r} differs from pass 1 "
                    f"{first.checked.fingerprint!r}")
                lines.append(f"{rec.name}: {rec.checked.failures[-1]}")
    return lines


def selftest(workdir: Path) -> list[str]:
    """Corrupt one fact or outcome at a time; return the injections that no
    check caught (empty when every check can fail)."""
    good = {"value": 1.0, "hedge_price": 1.0, "verify_ok": True,
            "marginal_residual": 0.0, "martingale_residual": 0.0}
    cases = {
        "sane facts pass": not bound_failures(**good),
        "hedge invalid": bound_failures(**{**good, "verify_ok": False}),
        "duality gap": bound_failures(**{**good, "hedge_price": 1.0 + 1e-5}),
        "marginal residual": bound_failures(**{**good, "marginal_residual": 1e-7}),
        "martingale residual": bound_failures(**{**good, "martingale_residual": 1e-7}),
        "lower above upper": order_failures(0.5, 0.4),
        "smooth anchor": anchor_failures("lower", 0.34, *SMOOTH_ANCHOR),
        "counterexample anchor": anchor_failures(
            "value", 1.2 * counterexample_value(5), counterexample_value(5),
            COUNTEREXAMPLE_RTOL * abs(counterexample_value(5))),
        "envelope above lower": envelope_failures(0.2, 0.1),
        "envelope without lower": envelope_failures(0.0, None),
    }

    system = fixtures.instance_a_marginals()
    res = mot.bound(mot.MotProblem(system, payoff.forward_start_straddle(), "lower"))
    cases["real result passes"] = not bound_failures(**result_facts(res, system))
    scaled = replace(res.coupling, masses=res.coupling.masses * 1.001)
    cases["real coupling off its marginals"] = coupling_residuals(scaled, system)[0] > RESIDUAL_TOL
    skewed = replace(res.coupling, masses=res.coupling.masses + 1e-6 * np.arange(res.coupling.masses.size))
    cases["real coupling not a martingale"] = coupling_residuals(skewed, system)[1] > RESIDUAL_TOL

    def boom():
        raise RuntimeError("injected")
    cases["operation raises"] = execute(SimpleNamespace(name="raises", run=boom), {}).checked.errors
    drift = [[OpRecord("op", 0.0, Checked([], "pivots=10"))], [OpRecord("op", 0.0, Checked([], "pivots=11"))]]
    cases["fingerprint changes between passes"] = determinism(drift)
    missing = workdir / "selftest-missing.json"
    bad = run_cli(["bounds", "--marginals", str(missing), "--payoff", "straddle", "--out", str(missing)])
    cases["CLI exits non-zero"] = check_cli(bad, missing, lambda text: ([], [])).errors
    artifact = workdir / "selftest-artifact.json"
    artifact.write_text("{}")
    cases["CLI artifact unreadable"] = check_cli(
        CliRun(0, "", ""), artifact, lambda text: json.loads(text)["results"]).failures
    return [name for name, caught in cases.items() if not caught]
