"""Output checks of every benchmark op, against closed forms and the
properties the method must have, never against stored output.

Each check takes the op, its exit code or return value and the work
directory, and returns a list of problems (empty when the output is
right).  CSVs are parsed here with plain `float()`, independently of the
package's own reader.
"""

import json
import math

import numpy as np

import sphereflow as sf
from sphereflow.fieldio import read_field_csv

from workloads import README_PATCH, WIDE_PATCH

# Interior max error of the manufactured solve times (n - 1)^2; about
# 1.3e-3 is measured at n = 65 and 129, so 2e-3 leaves room while a loss
# of second order (error ~ h) would exceed it by n = 65.
MMS_ERROR_CONST = 2e-3
# scenario_io: |program - closed form| / h^2 bounds.  The measured
# constants hold flat from n = 65 to 513 (source 0.0267, L^2 0.0034,
# eps_rho 0.0013, eps_L 0.0034); these allow about 2x.
SOURCE_CONST = 0.05
L2_CONST = 0.007
MARGIN_CONST = 0.007


def closed_form(theta):
    """(f, source, L^2, rho) of f = 2 + 0.1 cos(theta), gamma = 2, B = 4."""
    s, c = np.sin(theta), np.cos(theta)
    z = 2 + 0.1 * c
    qsq = 0.01 * s * s
    rho = 3.0 - 0.5 * z * z - 0.5 * qsq     # rho = c^2 for gamma = 2
    drho = 0.1 * z * s - 0.01 * s * c
    source = -0.1 * (drho * s + 2.0 * rho * c) + 2.0 * rho * z
    return z, source, qsq / rho, rho


def parse_field_csv(path, n):
    """(theta, phi, value) n x n arrays from a `theta,phi,value` CSV."""
    with open(path) as fh:
        header = fh.readline().strip()
        rows = [line.split(",") for line in fh if line.strip()]
    if header != "theta,phi,value" or len(rows) != n * n:
        raise ValueError(f"{path}: header {header!r}, {len(rows)} rows")
    cols = np.array([[float(x) for x in row] for row in rows])
    return tuple(cols[:, k].reshape(n, n) for k in range(3))


def parse_indexed_csv(path, n):
    """(last-column strings, theta values) of an `i,j,theta,phi,<x>` CSV."""
    with open(path) as fh:
        fh.readline()
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if len(rows) != n * n:
        raise ValueError(f"{path}: {len(rows)} rows, expected {n * n}")
    return [row[4] for row in rows], np.array([float(r[2]) for r in rows])


def _report(work, op):
    return json.loads((work / op["out"] / "report.json").read_text())


def _interior(n):
    m = np.zeros((n, n), dtype=bool)
    m[1:-1, 1:-1] = True
    return m


def _grid(patch, n):
    return sf.SphericalGrid(*patch, n, n)


def _h2(patch, n):
    return ((patch[1] - patch[0]) / (n - 1)) ** 2


def _max_dev(a, b, region=None):
    dev = np.abs(np.asarray(a) - b)
    return float((dev if region is None else dev[region]).max())


def check_readme(op, rc, work):
    n, tol = op["check"]["n"], op["check"]["newton_tol"]
    rep = _report(work, op)
    problems = []
    if rc != 0 or not rep.get("converged"):
        return [f"exit {rc}, converged {rep.get('converged')}"]
    theta, _, vals = parse_field_csv(work / op["out"] / "solution.csv", n)
    gas = sf.GasModel(gamma=2.0, rho0=1.0, bernoulli=4.0)
    field = sf.ScalarField(_grid(README_PATCH, n), vals)
    res = _max_dev(sf.flow_residual(gas, field).values, 0.0, _interior(n))
    if not res <= tol:
        problems.append(f"recomputed interior residual {res:.3e} > {tol}")
    datum = 1.6 + 0.1 * np.cos(theta)
    edge = ~_interior(n)
    if not np.array_equal(vals[edge], datum[edge]):
        problems.append("boundary nodes differ from the datum")
    if not rep["certificate"]["pass"]:
        problems.append("ellipticity certificate failed")
    return problems


def check_mms(op, rc, work):
    n = op["check"]["n"]
    if rc != 0:
        return [f"exit {rc}"]
    theta, _, vals = parse_field_csv(work / op["out"] / "solution.csv", n)
    scaled = _max_dev(vals, closed_form(theta)[0], _interior(n)) * (n - 1) ** 2
    if not scaled <= MMS_ERROR_CONST:
        return [f"error x (n-1)^2 = {scaled:.3e} > {MMS_ERROR_CONST}"]
    return []


def check_converged(op, rc, work):
    rep = _report(work, op)
    if rc != 0 or not rep.get("converged"):
        return [f"exit {rc}, converged {rep.get('converged')}"]
    return []


def check_compare(op, rc, work):
    rep = _report(work, op)
    problems = []
    if rc != 0:
        problems.append(f"exit {rc}")
    if rep["verdict"] != "Pass":
        problems.append(f"verdict {rep['verdict']}")
    if rep["dichotomy"] != "Strict":
        problems.append(f"dichotomy {rep['dichotomy']}")
    n, fields = op["check"]["n"], op["check"]["fields"]
    f_minus = parse_field_csv(work / fields["minus"], n)[2]
    f_plus = parse_field_csv(work / fields["plus"], n)[2]
    if not np.all(f_minus[_interior(n)] <= f_plus[_interior(n)]):
        problems.append("f- > f+ at an interior node")
    return problems


def check_hopf(op, rc, work):
    rep = _report(work, op)
    derivs = [h["derivative"] for h in rep["hopf"]]
    if rc != 0 or len(derivs) != 4 or not all(d > 0.0 for d in derivs):
        return [f"exit {rc}, Hopf derivatives {derivs}"]
    return []


def check_segment(op, value, work):
    return [] if value.all_pass else [f"{len(value.violations)} violations"]


def check_certificate(op, value, work):
    return [] if value.passed else ["certificate failed"]


def check_manufacture(op, rc, work):
    n = op["check"]["n"]
    if rc != 0:
        return [f"exit {rc}"]
    out = work / op["out"]
    theta, _, exact = parse_field_csv(out / "exact.csv", n)
    f, source, _, _ = closed_form(theta)
    problems = []
    if not np.array_equal(exact, f):
        problems.append("exact.csv differs from 2 + 0.1 cos(theta)")
    if not np.array_equal(parse_field_csv(out / "boundary.csv", n)[2], exact):
        problems.append("boundary.csv differs from exact.csv")
    read_back = read_field_csv(out / "exact.csv", _grid(WIDE_PATCH, n)).values
    if not np.array_equal(read_back, exact):
        problems.append("exact.csv does not read back bit for bit")
    src = parse_field_csv(out / "source.csv", n)[2]
    dev = _max_dev(src, source, _interior(n)) / _h2(WIDE_PATCH, n)
    if not dev <= SOURCE_CONST:
        problems.append(f"source error / h^2 = {dev:.3g} > {SOURCE_CONST}")
    return problems


def check_classify(op, rc, work):
    n = op["check"]["n"]
    if rc != 0:
        return [f"exit {rc}"]
    out = work / op["out"]
    letters, theta = parse_indexed_csv(out / "type_map.csv", n)
    problems = []
    if set(letters) != {"E"}:
        problems.append(f"type letters {sorted(set(letters))}, expected E")
    l2_text, _ = parse_indexed_csv(out / "l2.csv", n)
    l2 = np.array([float(x) for x in l2_text])
    dev = _max_dev(l2, closed_form(theta)[2]) / _h2(WIDE_PATCH, n)
    if not dev <= L2_CONST:
        problems.append(f"L^2 error / h^2 = {dev:.3g} > {L2_CONST}")
    with open(out / "l2.pgm") as fh:
        if fh.readline().strip() != "P2":
            problems.append("l2.pgm is not an ASCII PGM")
    if _report(work, op)["counts"].get("E") != n * n:
        problems.append("report counts disagree with n^2 elliptic nodes")
    return problems


def check_certify(op, rc, work):
    n = op["check"]["n"]
    rep = _report(work, op)
    if rc != 0 or not rep["pass"]:
        return [f"exit {rc}, pass {rep.get('pass')}"]
    theta = _grid(WIDE_PATCH, n).theta_mesh
    _, _, l2, rho = closed_form(theta)
    h2 = _h2(WIDE_PATCH, n)
    problems = []
    for name, want in (("eps_rho", float(rho.min())),
                       ("eps_L", 1.0 - float(l2.max()))):
        dev = abs(rep[name] - want) / h2
        if not (math.isfinite(dev) and dev <= MARGIN_CONST):
            problems.append(f"{name} {rep[name]!r} vs closed form {want!r}")
    return problems


CHECKS = {
    "readme": check_readme,
    "mms": check_mms,
    "converged": check_converged,
    "compare": check_compare,
    "hopf": check_hopf,
    "segment": check_segment,
    "certificate": check_certificate,
    "manufacture": check_manufacture,
    "classify": check_classify,
    "certify": check_certify,
}
