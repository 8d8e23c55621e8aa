"""Exact TE10n resonance of a cavity loaded by a slab, by transverse resonance.

A slab that fills the cavity height and spans its full width (layers
along z) or its full length (layers along x) keeps the problem
separable: E_y = sin(pi x / a) f(z), or sin(n pi z / l) u(x).  With a
diagonal permeability diag(mu_xx, mu_zz) and a permittivity eps_s in the
slab, each layer has a closed-form solution, and continuity of E_y and
of the tangential H (f' / mu_xx across a z face, u' / mu_zz across an
x face) at the slab's faces gives one transcendental equation in k0:

    full width,  odd n:   beta0 cot(beta0 z1) =  (beta1 / mu_xx) tan(beta1 w / 2)
    full width,  even n:  beta0 cot(beta0 z1) = -(beta1 / mu_xx) cot(beta1 w / 2)
    full length, any n:   beta0 cot(beta0 x1) =  (beta1 / mu_zz) tan(beta1 w / 2)

with beta0^2 = k0^2 eps_r - kc^2 in the host, beta1^2 = mu_t (k0^2 eps_s -
kc^2 / mu_c) in the slab, kc the wavenumber along the axis the slab
spans (pi/a, or n pi/l), mu_t the component across the faces' normal
and mu_c the other one, and z1 = l/2 - w/2 (x1 = a/2 - w/2) the host's
depth on either side.  Each equation is written without poles and even
in beta0 and in beta1, through sin(beta d) / beta, so that it is analytic
in k0 across either region's cutoff (beta^2 = 0, where cmath.sqrt's
branch cut would flip its sign), and solved by Newton's method in complex
k0, with a continuation in the slab's values from the host's (mu = 1,
eps_s = eps_r) so that it stays on the TE10n branch.  The host is
non-magnetic (mu_rs = 1).  Pure cmath: no mesh, no numpy, and nothing of
the package's field model.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Slab:
    """A full-height slab of width w centred in an a x l cavity, lengths in meters.

    spans="x" is the full-width slab (w along z); spans="z" the full-length one (w along x).
    """

    a: float
    l: float
    eps_r: float
    n: int
    width: float
    spans: str

    def mismatch(self, k0: complex, mu_xx: complex, mu_zz: complex, eps_s: complex) -> complex:
        """The continuity condition at the slab's face, zero at a resonance."""
        if self.spans == "x":
            kc, mu_t, mu_c, depth, even = math.pi / self.a, mu_xx, mu_zz, self.l, self.n % 2 == 0
        else:
            kc, mu_t, mu_c, depth, even = self.n * math.pi / self.l, mu_zz, mu_xx, self.a, False
        beta0 = cmath.sqrt(k0 * k0 * self.eps_r - kc * kc)
        beta1 = cmath.sqrt(mu_t * (k0 * k0 * eps_s - kc * kc / mu_c))
        host_depth = (depth - self.width) / 2
        h_cos, h_sin = cmath.cos(beta0 * host_depth), sin_over(beta0, host_depth)
        s_cos, s_sin = cmath.cos(beta1 * self.width / 2), sin_over(beta1, self.width / 2)
        if even:  # E_y odd about the slab's centre; divided by beta0 beta1
            return mu_t * h_cos * s_sin + h_sin * s_cos
        return mu_t * h_cos * s_cos - beta1 * beta1 * h_sin * s_sin  # divided by beta0

    def k0(self, k_start: complex, mu_xx: complex = 1, mu_zz: complex = 1,
           eps_s: complex | None = None, steps: int = 1) -> complex:
        """Free-space wavenumber of the resonance nearest k_start, solved empty
        first and then carried to the slab's values in `steps` equal steps."""
        eps_s = self.eps_r if eps_s is None else eps_s
        k = k_start
        for j in range(steps + 1):
            t = j / steps
            values = (1 + t * (mu_xx - 1), 1 + t * (mu_zz - 1), self.eps_r + t * (eps_s - self.eps_r))
            k = newton(lambda k0: self.mismatch(k0, *values), k)
        return k


def sin_over(beta: complex, length: float) -> complex:
    """sin(beta length) / beta, even in beta; length at beta = 0."""
    return cmath.sin(beta * length) / beta if beta else complex(length)


def newton(f, k: complex, max_iterations: int = 60) -> complex:
    """A root of analytic f near k, with a central-difference derivative."""
    for _ in range(max_iterations):
        dk = 1e-7 * abs(k)
        step = f(k) / ((f(k + dk) - f(k - dk)) / (2 * dk))
        k -= step
        if abs(step) <= 4 * 2.0**-52 * abs(k):
            return k
    raise ArithmeticError(f"Newton did not converge near k0 = {k}")
