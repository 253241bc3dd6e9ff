"""The route table: each object eiskern computes, its argument kinds and its routes.

ROUTES maps an object to ("argument:kind ...", {route name: Route}) in eval --help order;
`eval` runs the first route without --route (a None key is a default with no --route
name), and verify's route-agreement records read both sides here.  Each route of an
object with several is one side of a gating agreement record (epsilon's default runs two
that are).  A route takes its object's argument kinds and labels its value with its
table key, so it has one name in --route, the table, eval's output and the report.  An
engine set names the engines (richardson, alternating, quadrature, power_series) and
kernels (psi, cot, eta, bernoulli, polylog, zeta) a route runs itself, a kernel in place
of what runs inside it (eta(2n+1) is an alternating sum, and psi reflects through cot:
for Re z < 0 the two psi terms of eisenstein_polygamma cancel exactly, so at |Im z| >= 1/2
that route reads only the derivatives of cot, as the closed route does, and verify
compares the epsilon routes on the strip 0 < Re z < 1).
Evaluators look their library function up when they run, so a caller that rebinds a
module attribute sees it.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

from . import conj_bernoulli as cb
from . import eisenstein as eis
from . import hilbert_eisenstein as he
from . import numkern as nk
from . import omega as om
from .errors import ConfigError, DomainError, Evaluation


class Route(NamedTuple):
    run: Callable
    engines: frozenset


def _r(run: Callable, engines: str) -> Route:
    return Route(run, frozenset(engines.split()))


def _wrap(value, route: str) -> Evaluation:
    v = complex(value)
    return Evaluation(v, 8e-16 * max(1.0, abs(v)), 0, route)


def _order_only(order: int, what: str, run: Callable) -> Callable:
    def only(r, z) -> Evaluation:  # a route that computes one order r only
        if r != order:
            raise ConfigError(f"this route computes {what} only; use r = {order}")
        return run(z)
    return only


def _zeta(s: float) -> Evaluation:
    return _wrap(nk.riemann_zeta(s), "bernoulli" if nk.zeta_closed_index(s) else "via-eta")


def _bernoulli(n: int) -> float:
    """B_n; DomainError where numkern.log_bernoulli shows it is no double (from n = 260),
    before the exact Fraction is built."""
    if n >= 2 and n % 2 == 0 and nk.log_bernoulli(n) >= nk.LOG_MAX:
        raise DomainError(f"bernoulli({n}): B_{n} is not a double")
    return float(nk.bernoulli_number(n))


ROUTES = {
    "conjecture": ("j:int z:real", {
        None: _r(lambda j, z: cb.conjecture_double_sum(j, z), "bernoulli eta polylog")}),
    "bernoulli": ("n:int", {"recurrence": _r(_bernoulli, "bernoulli")}),
    "bpoly": ("n:int x:real", {"recurrence": _r(lambda n, x: nk.bernoulli_poly(n, x), "bernoulli")}),
    "bstar": ("alpha:real", {"zeta": _r(lambda a: cb.ramanujan_bstar(a), "zeta")}),
    "conj_half": ("m:int", {"eta": _r(lambda m: cb.conj_bernoulli_half(m, "eta"), "eta"),
                            "zeta": _r(lambda m: cb.conj_bernoulli_half(m, "zeta"), "polylog")}),
    "conj_periodic": ("n:int x:real", {
        "fourier": _r(lambda n, x: cb.conj_bernoulli_periodic(n, x), "polylog")}),
    "epsilon": ("r:int z:complex", {
        None: _r(lambda r, z: eis.eisenstein_eval(r, z), "cot psi"),
        "direct": _r(lambda r, z: eis.eisenstein_direct(r, z), "richardson"),
        "closed": _r(lambda r, z: eis.eisenstein_closed(r, z), "cot"),
        "polygamma": _r(lambda r, z: eis.eisenstein_polygamma(r, z), "psi"),
        "integral": _r(lambda r, z: eis.eisenstein_integral(r, z), "quadrature")}),
    "eta": ("s:real", {"alternating": _r(lambda s: nk.dirichlet_eta(s), "alternating")}),
    "fractional": ("alpha:real x:real", {
        "fourier": _r(lambda a, x: cb.fractional_bernoulli(a, x), "polylog")}),
    "genfun": ("z:complex", {"closed": _r(lambda z: cb.conj_bernoulli_genfun(z), "psi cot"),
                             "series": _r(lambda z: cb.conj_genfun_series(z), "power_series eta")}),
    "he": ("r:int z:complex", {
        "closed": _r(lambda r, z: he.he_closed(r, z), "psi"),
        "direct": _r(lambda r, z: he.he_direct(r, z), "alternating"),
        "taylor": _r(_order_only(1, "h_1", lambda z: he.he_taylor(z)), "power_series eta"),
        "real": _r(lambda r, z: he.he_real(r, z), "psi"),
        "eisenstein": _r(lambda r, z: he.he_via_eisenstein(r, z), "cot richardson psi")}),
    "mathieu": ("r:real x:real", {None: _r(lambda r, x: he.mathieu(r, x, False), "richardson")}),
    "mathieu_alternating": ("r:real x:real", {
        "alternating": _r(lambda r, x: he.mathieu(r, x, True), "alternating"),
        "integral": _r(_order_only(2, "S~_2", lambda x: he.mathieu_E(x)), "quadrature eta")}),
    "moment": ("k:int", {"closed": _r(lambda k: om.omega_moment(k, "closed"), "eta"),
                         "quadrature": _r(lambda k: om.omega_moment(k, "quadrature"), "quadrature"),
                         "series": _r(lambda k: om.omega_moment(k, "series"),
                                      "power_series bernoulli")}),
    "omega": ("z:complex", {
        "quadrature": _r(lambda z: om.omega_quadrature(z), "quadrature"),
        "digamma": _r(lambda z: Evaluation(*om._omega_digamma(nk.as_complex(z)), 0, "digamma"),
                      "psi"),
        "partial-fraction": _r(lambda z: om.omega_partial_fraction(z), "alternating"),
        "taylor-moments": _r(lambda z: om.omega_taylor(z, "moments"), "power_series bernoulli"),
        "taylor-eta": _r(lambda z: om.omega_taylor(z, "eta"), "power_series eta"),
        "pv-fold": _r(lambda z: om.omega_pv_hilbert(z), "quadrature")}),
    "polygamma": ("r:int z:complex", {"polygamma": _r(lambda r, z: nk.polygamma(r, z), "psi")}),
    "psi": ("z:complex", {"digamma": _r(lambda z: nk.digamma(z), "psi")}),
    "zeta": ("s:real", {None: _r(_zeta, "bernoulli eta")}),
    "zeta_odd_conj": ("m:int", {"conjugate": _r(lambda m: cb.zeta_odd_via_conj(m), "eta")}),
}
