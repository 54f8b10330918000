"""Closed-form oracles for kernel derivatives, shared by the test modules."""

import math

import numpy as np

from opkernel.errors import UnsupportedJet
from opkernel.kernel import OperatorKernel, kernel_deriv_eval
from opkernel.profiles import JET_ORDER_CAP, MultiIndex, validate_multi_index


def deriv_diag_identity_check(kernel: OperatorKernel, alpha: MultiIndex, beta: MultiIndex) -> float:
    """Max entrywise |difference| between the derivative kernel on the
    diagonal and the closed-form moment expression.

    For gaussian atoms, p_w(x,y) = f(sqrt(w)(x-y)) with f(d) = exp(-||d||^2),
    so d^alpha_1 d^beta_2 K(x,x) = (-1)^|beta| (d^gamma f)(0) sum_j w_j^(|gamma|/2) G_j,
    with (d^gamma f)(0) = prod_i [gamma_i even: (-1)^(g/2) g!/(g/2)!, else 0].

    For omega(msrc) atoms, p_w(x,y) = f(w(x-y)) with f(d) = Omega_msrc(||d||),
    and (d^gamma f)(0) is read off the even power series of Omega: nonzero
    only for gamma = 2*kappa, where it equals
    (-1/4)^|kappa| / (kappa! (msrc/2)_|kappa|) * prod_i (2 kappa_i)!.

    Both closed forms are independent of the jet engine.
    """
    if not kernel.is_radial or kernel.profile.kind not in ("gaussian", "omega"):
        raise UnsupportedJet("diagonal identity check needs a gaussian or omega kernel")
    alpha = validate_multi_index(alpha, kernel.m)
    beta = validate_multi_index(beta, kernel.m)
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    n = sum(gamma)
    if n > JET_ORDER_CAP:
        raise UnsupportedJet(f"derivative order {n} exceeds cap {JET_ORDER_CAP}")

    if any(g % 2 for g in gamma):
        f0 = 0.0
    elif kernel.profile.kind == "gaussian":
        f0 = 1.0
        for g in gamma:
            half = g // 2
            f0 *= (-1.0) ** half * math.factorial(g) / math.factorial(half)
    else:
        kappa = [g // 2 for g in gamma]
        k = sum(kappa)
        f0 = (-0.25) ** k / math.prod(kernel.profile.m_source / 2 + i for i in range(k))
        for ki in kappa:
            f0 *= math.factorial(2 * ki) / math.factorial(ki)

    power = n // 2 if kernel.profile.kind == "gaussian" else n
    moment = np.zeros((kernel.ell, kernel.ell), dtype=complex)
    if f0 != 0.0:
        for omega, g in zip(kernel.measure.omegas.tolist(), kernel.measure.gs):
            moment += omega ** power * g
    expected = (-1.0) ** sum(beta) * f0 * moment

    x0 = np.zeros(kernel.m)
    actual = kernel_deriv_eval(kernel, alpha, beta, x0, x0)
    return float(np.max(np.abs(actual - expected)))
