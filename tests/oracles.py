"""Independent numerical oracles used by the test suite.

These deliberately avoid the package's spectral machinery: lengths come
from polygonal chord sums, bundle integrals from a dense product grid,
derivatives from central finite differences or exact per-entry monomial
arithmetic, monomial values from a long-double polar form, basis norms and latitude norms from closed forms, and delta
pairings from a plain quadrature sum, so they can certify the closed-form /
spectral paths and the level-moment kernel.  Pullback forms are Gram matrices
of the derivative rows orthogonalized against u_k, and the su(2) actions on
u_k are exact index shifts of its coefficients.  The lift phase is integrated
by RK4 on the interpolated connection rate, and the half-density
derivative by finite differences of geodesically displaced loops.  The
trigonometric interpolant is summed densely over its modes, and the
enclosed area is a flux of the area form.  The exceptions are the
all-circuit transport, RK4 on a tube field that reuses the package's foot
Newton iteration but none of the closed form of `leaf.flow_state`, and the
per-state finite-difference oracle, which differences the kernel's snapped
projections of the states that `bpu.fd_d_bpu` pairs in one pass.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from bpu_lab import bpu
from bpu_lab.fourier import TrigInterpolator, _powers, spectral_derivative, trapezoid
from bpu_lab.geometry import (
    LagrangianLoop,
    _foot_newton,
    foot_parameters,
    fs_distance,
    normal_frame,
    project_tangent,
)
from bpu_lab.hardy import BUNDLE_VOLUME, monomial_values
from bpu_lab.leaf import HAMILTONIAN_SCALE, LeafTangent, flow_state, hamiltonian_normal_components


def trig_dense(samples, phi, orders: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """d^p/dphi^p of the trigonometric interpolant of periodic `samples` (axis
    0 the node axis) at angles phi, for each p in `orders`, by the dense sum
    over the centered spectrum.  The Nyquist mode is cos(N/2*phi); one table
    of e^{i m phi}, m = 0..N/2, built by products, serves every order, and
    the negative modes are its conjugate."""
    samples = np.asarray(samples)
    n, shape = samples.shape[0], samples.shape[1:]
    coeffs = np.fft.fft(samples, axis=0).reshape(n, -1) / n
    # Coefficients of e^{+i m phi} and of e^{-i m phi}, m = 0..N/2; the
    # constant and the Nyquist term go half to each.
    m = np.arange(n // 2 + 1)
    shared = np.where((m == 0) | (2 * m == n), 0.5, 1.0)[:, None]
    pos, neg = shared * coeffs[m], shared * coeffs[-m % n]
    phi = np.ravel(np.asarray(phi, dtype=np.float64))
    basis = _powers(np.cos(phi) + 1j * np.sin(phi), n // 2)[0].T
    im = 1j * m[:, None]
    coef = np.hstack([c for p in orders for c in (pos * im ** p, np.conj(neg * (-im) ** p))])
    vals = (basis @ coef).reshape(phi.size, len(orders), 2, -1)
    vals = vals[:, :, 0] + np.conj(vals[:, :, 1])
    if np.isrealobj(samples):
        vals = vals.real
    return tuple(vals[:, i].reshape(phi.shape + shape) for i in range(len(orders)))


def signed_area(loop: LagrangianLoop) -> float:
    """Signed area enclosed by the loop, by flux of the area form.

    Uses the potential A = -c d(arg z1 - arg z0) / (2*pi) with c = |z0|^2,
    whose exterior derivative is the area-1 form; the loop must avoid both
    coordinate poles.  For a latitude circle the result is its area
    coordinate c, and exp(2*pi*i*signed_area) is the connection holonomy.
    """
    z0, z1 = loop.points[:, 0], loop.points[:, 1]
    assert min(np.abs(z0).min(), np.abs(z1).min()) >= 1e-8, "loop passes a coordinate pole"
    raw = spectral_derivative(loop.points)
    dpsi = np.imag(raw[:, 0] / z0) - np.imag(raw[:, 1] / z1)
    return float(-trapezoid(np.abs(z0) ** 2 * dpsi) / (2.0 * np.pi))


def point_at(loop: LagrangianLoop, phi) -> np.ndarray:
    """Loop points at off-node parameters: the trigonometric interpolant of
    the node points, normalized back onto the sphere."""
    p = TrigInterpolator(loop.points)(phi)
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


def polygonal_length(point_fn, m: int = 20000) -> float:
    """Arc length of a closed curve by chordal geodesic distances."""
    phi = 2.0 * np.pi * np.arange(m) / m
    pts = point_fn(phi)
    nxt = np.roll(pts, -1, axis=0)
    return float(fs_distance(pts, nxt).sum())


def bundle_grid(n_c: int = 256, n_psi: int = 256, n_theta: int = 64):
    """Product quadrature grid over the unit 3-sphere.

    Points x = e^{i theta} (sqrt(c) e^{i psi}, sqrt(1-c)) with measure
    BUNDLE_VOLUME * (dc dpsi / 2pi) * (dtheta / 2pi); c uses Gauss-Legendre
    nodes, the angles use periodic trapezoid nodes.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n_c)
    c = 0.5 * (nodes + 1.0)
    wc = 0.5 * wts
    psi = 2.0 * np.pi * np.arange(n_psi) / n_psi
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return c, wc, psi, theta


def bundle_integral_abs2(sec_basis, coefficients, n_c: int = 256, n_psi: int = 256,
                         n_theta: int = 64) -> float:
    """Integral of |sum_a v_a s_a|^2 over the bundle on the product grid."""
    c, wc, psi, theta = bundle_grid(n_c, n_psi, n_theta)
    total = 0.0
    cc, pp = np.meshgrid(c, psi, indexing="ij")
    base = np.stack([np.sqrt(cc) * np.exp(1j * pp), np.sqrt(1.0 - cc)], axis=-1)
    flat = base.reshape(-1, 2)
    w2 = (wc[:, None] * np.full(len(psi), 1.0 / len(psi))[None, :]).reshape(-1)
    for th in theta:
        vals = monomial_values(sec_basis, np.exp(1j * th) * flat) @ np.asarray(coefficients)
        total += float(np.sum(w2 * np.abs(vals) ** 2)) / len(theta)
    return BUNDLE_VOLUME * total


def bundle_gram(sec_basis, n_c: int = 256, n_psi: int = 256) -> np.ndarray:
    """Gram matrix of the monomial basis on the product grid (fiber dropped:
    all elements share the same equivariance weight)."""
    c, wc, psi, _ = bundle_grid(n_c, n_psi, 1)
    cc, pp = np.meshgrid(c, psi, indexing="ij")
    base = np.stack([np.sqrt(cc) * np.exp(1j * pp), np.sqrt(1.0 - cc)], axis=-1)
    flat = base.reshape(-1, 2)
    w2 = (wc[:, None] * np.full(len(psi), 1.0 / len(psi))[None, :]).reshape(-1)
    vals = monomial_values(sec_basis, flat)
    return BUNDLE_VOLUME * (np.conj(vals.T) * w2) @ vals


def exp_map(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Geodesic exponential: v is a horizontal representative at z.

    The geodesic is the projected horizontal great circle; arc length is the
    area-1 metric norm of v.
    """
    amp = np.linalg.norm(v, axis=-1)          # C^2 magnitude = sqrt(pi) * |v|_g
    small = amp < 1e-300
    safe = np.where(small, 1.0, amp)
    vhat = v / safe[..., None]
    out = np.cos(amp)[..., None] * z + np.sin(amp)[..., None] * vhat
    return np.where(small[..., None], z, out)


def log_map(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Inverse of the geodesic exponential up to the fiber phase of w: a
    horizontal tangent at z whose C^2 length is the angle between the classes."""
    ov = np.sum(np.conj(z) * w, axis=-1)
    phase = np.where(np.abs(ov) < 1e-300, 1.0, ov / np.abs(ov))
    rho = np.clip(np.abs(ov), 0.0, 1.0)
    u = w / phase[..., None] - rho[..., None] * z
    un = np.linalg.norm(u, axis=-1)
    scale = np.where(un < 1e-300, 0.0, np.arccos(rho) / np.where(un < 1e-300, 1.0, un))
    return scale[..., None] * u


def great_circle_fd(fn, x: np.ndarray, w: np.ndarray, h: float = 1e-4) -> complex:
    """Central difference of fn along the unit-speed great circle through x."""
    wn = w / np.linalg.norm(w)
    plus = np.cos(h) * x + np.sin(h) * wn
    minus = np.cos(h) * x - np.sin(h) * wn
    return (fn(plus) - fn(minus)) / (2.0 * h) * np.linalg.norm(w)


def basis_norms_sq(k: int) -> np.ndarray:
    """Closed-form squared norms BUNDLE_VOLUME * a! (k-a)! / (k+1)!, a = 0..k."""
    f = [1, *itertools.accumulate(range(1, k + 2), operator.mul)]
    return np.array([BUNDLE_VOLUME * (f[a] * f[k - a] / f[k + 1]) for a in range(k + 1)])


def inner(sec_basis, u, v) -> complex:
    """L2 pairing of two coefficient arrays of the level of `sec_basis`,
    conjugate-linear in the first slot."""
    return complex(np.sum(np.conj(u) * v * basis_norms_sq(sec_basis.k)))


def zk_orthogonalize(u, du) -> np.ndarray:
    """The coefficient rows du less their components along the state u in the
    level's pairing with the closed-form basis norms: one Gram-Schmidt step."""
    w = np.conj(u.coefficients) * basis_norms_sq(u.k)
    du = np.asarray(du, dtype=np.complex128)
    return du - np.multiply.outer(du @ w / (w @ u.coefficients).real, u.coefficients)


def pullback_form(u, du) -> np.ndarray:
    """<Z_i, Z_j> / <u, u> for the parts Z of the rows du orthogonal to u, made
    Hermitian: the orthogonalize-then-Gram reference for `bpu.fs_pullback`."""
    z, norms = zk_orthogonalize(u, du), basis_norms_sq(u.k)
    gram = (np.conj(z) * norms) @ z.T / np.sum(np.abs(u.coefficients) ** 2 * norms)
    return 0.5 * (gram + gram.conj().T)


def su2_rows(u) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of up.u and dn.u for the su(2) actions up = z0 d/dz1 and
    dn = z1 d/dz0 on the level-k state u with coefficients c:
    (up.u)_a = (k-a+1) c_(a-1) and (dn.u)_a = (a+1) c_(a+1)."""
    c, a = u.coefficients, np.arange(u.k + 1)
    up, dn = np.zeros_like(c), np.zeros_like(c)
    up[1:] = (u.k + 1 - a[1:]) * c[:-1]
    dn[:-1] = (a[:-1] + 1) * c[1:]
    return up, dn


def lift_weights(lift, hw) -> np.ndarray:
    """Trapezoid weights S_lambda * speed * (2 pi / N) at the r * N lift nodes."""
    return np.tile(hw.s_lambda * lift.base.speed, lift.winding) * (2.0 * np.pi / lift.base.n)


def delta_pair(lift, hw, section_values):
    """Pairing of the half-weighted delta of the lift with a test section.

    `section_values` maps bundle points (M, 2) to complex values, (M,) for
    one section or (M, n) for n of them; the pairing is the
    periodic-trapezoid quadrature of S_lambda * values over the r-fold
    cover with its length density, a scalar or an (n,) vector.
    """
    return lift_weights(lift, hw) @ np.asarray(section_values(lift.points), dtype=np.complex128)


def latitude_norm_sq(lift, hw, c: float, k: int) -> float:
    """Exact squared norm of the level-k projection of a latitude at area c.

    On the latitude |z0|^2 = c with a constant half-weight the projection is
    the single monomial a = c*k, and

        norm_sq = P^2 c^a (1-c)^(k-a) (k+1)! / (BUNDLE_VOLUME a! (k-a)!),

    with P = sum of the lift weights, evaluated in the log domain with lgamma.
    """
    a = round(c * k)
    total = float(np.sum(lift_weights(lift, hw)))
    log_val = (2.0 * math.log(total) + a * math.log(c) + (k - a) * math.log1p(-c)
               + math.lgamma(k + 2) - math.log(BUNDLE_VOLUME)
               - math.lgamma(a + 1) - math.lgamma(k - a + 1))
    return math.exp(log_val)


def rotated(loop: LagrangianLoop, g: np.ndarray) -> LagrangianLoop:
    """The loop's points turned by g in SU(2), on the same nodes and phi.  The
    Hardy space, the FS metric and the contact form are U(2)-invariant, so
    half-weight and tangent samples carry over, u_k turns by Sym^k(g), and the
    norms, the pulled-back forms and |u_k(g x)| are the loop's."""
    return LagrangianLoop(loop.points @ g.T)


def monomial_derivative_oracle(points, vectors, k: int) -> np.ndarray:
    """Derivatives of the level-k monomials along per-point C^2 vectors, shape (M, k+1).

    Column a is w0 a z0^(a-1) z1^(k-a) + w1 (k-a) z0^a z1^(k-a-1), with the
    powers built by repeated Python complex multiplication and the terms with
    a zero factor (a) or (k-a) left out, so poles need no special case.
    """
    out = np.zeros((len(points), k + 1), dtype=np.complex128)
    for m, ((z0, z1), (w0, w1)) in enumerate(zip(points, vectors)):
        p0, p1 = [1 + 0j], [1 + 0j]
        for _ in range(k):
            p0.append(p0[-1] * complex(z0))
            p1.append(p1[-1] * complex(z1))
        for a in range(k + 1):
            val = 0j
            if a > 0:
                val += complex(w0) * a * p0[a - 1] * p1[k - a]
            if a < k:
                val += complex(w1) * (k - a) * p0[a] * p1[k - a - 1]
            out[m, a] = val
    return out


def polar_monomials(pts: np.ndarray, k: int):
    """Real and imaginary parts of z0^a z1^(k-a), shape (M, k+1), in long-double polar form."""
    x, y = pts.real.astype(np.longdouble), pts.imag.astype(np.longdouble)
    mod, arg = np.sqrt(x * x + y * y), np.arctan2(y, x)
    a = np.arange(k + 1, dtype=np.longdouble)
    mag = mod[:, [0]] ** a * mod[:, [1]] ** (k - a)
    phase = arg[:, [0]] * a + arg[:, [1]] * (k - a)
    return mag * np.cos(phase), mag * np.sin(phase)


def hamiltonian_field(loop: LagrangianLoop, f: np.ndarray):
    """Tube vector field of the extension of f, on copies of one circuit of nodes.

    Returns a function mapping (M, 2) representatives, point i near the
    normal geodesic through node i mod N, to the horizontal representatives
    of upsilon_f = -(1/2pi) J grad(f o beta) there and the extension values
    f(beta(m)).  Each call runs the foot Newton iteration from those nodes, on
    one interpolant of the columns [L, f]; its last iterate's values give the
    foot gradient (the implicit derivative of the stationarity of
    |<L(phi), m>|^2), f and f'.
    """
    interp = TrigInterpolator(np.column_stack([loop.points, np.asarray(f, dtype=np.float64)]))

    def field(points: np.ndarray):
        seeds = np.arange(len(points)) % loop.n
        _, (v, v1, _), u, u1, curv = _foot_newton(interp, points, seeds)
        gvec = -(2.0 / curv)[:, None] * (u1[:, None] * v[:, :2] + u[:, None] * v1[:, :2])
        grad_phi = np.pi * project_tangent(points, gvec)
        upsilon = -HAMILTONIAN_SCALE * v1[:, 2:].real * (1j * grad_phi)
        return upsilon, v[:, 2].real

    return field


def flow_all_circuits(lift, hw, w, t: float, max_step: float = 2e-3):
    """Transport of (lift, half-weight) with every one of the r*N lift nodes integrated.

    RK4 steps of at most `max_step` on the tube field, each stage a foot Newton
    run, applied circuit by circuit because the field takes one circuit's
    nodes.  The moved nodes' feet, found by `geometry.foot_parameters` from
    the nodes of largest overlap, must be the nodes within 1e-12; the
    half-weight is lambda + t*ell pulled back through them with unit foot
    derivative.  Returns the transported lift points (r*N, 2) and S_lambda
    samples (N,).
    """
    loop, n = lift.base, lift.base.n
    field = hamiltonian_field(loop, w.f)

    def velocity(x):
        out = []
        for q in range(lift.winding):
            upsilon, fval = field(x[q * n:(q + 1) * n])
            out.append(upsilon - 1j * fval[:, None] * x[q * n:(q + 1) * n])
        return np.concatenate(out)

    steps = max(1, math.ceil(abs(t) / max_step))
    h = t / steps
    x = lift.points.copy()
    for _ in range(steps):
        k1 = velocity(x)
        k2 = velocity(x + 0.5 * h * k1)
        k3 = velocity(x + 0.5 * h * k2)
        k4 = velocity(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x /= np.linalg.norm(x, axis=1, keepdims=True)

    new_loop = LagrangianLoop(x[:n] * np.conj(lift.phases)[:, None])
    delta = np.angle(np.exp(1j * (foot_parameters(loop, new_loop.points) - loop.phi)))
    assert np.abs(delta).max() <= 1e-12, "a moved node left the normal geodesic of its node"
    eta = TrigInterpolator(hw.s_lambda + t * w.s_ell)
    speed = TrigInterpolator(loop.speed)
    s_new = eta(loop.phi + delta) * np.sqrt(speed(loop.phi + delta) / new_loop.speed)
    return x, s_new


def fd_d_bpu_per_state(lift, hw, tangents, ks):
    """`bpu.fd_d_bpu` state by state: each of the four transported states of
    a leg, the (0, ell) leg's too, which `bpu.fd_d_bpu` differences in closed
    form, is projected at every level by a kernel pass of its own, with the
    coefficients snapped as `bpu_map` snaps them; at each level the central
    differences at FD_STEP and FD_STEP/2 are Richardson-combined into d_f and
    d_ell, and row i is d_f + k d_ell."""
    loop, zero = lift.base, np.zeros(lift.base.n)
    steps = (bpu.FD_STEP, 0.5 * bpu.FD_STEP)
    times = [t for h in steps for t in (h, -h)]
    out = [np.zeros((len(tangents), k + 1), dtype=np.complex128) for k in ks]
    for i, w in enumerate(tangents):
        for leg, rescaled in ((LeafTangent(loop, w.f, zero), False),
                              (LeafTangent(loop, zero, w.s_ell), True)):
            if not (np.any(leg.f) or np.any(leg.s_ell)):
                continue
            moved = [[u.coefficients for u, _ in bpu._frame_moments(*state, (), ks)]
                     for state in flow_state(lift, hw, leg, times)]
            for n, (k, rows) in enumerate(zip(ks, out)):
                d1, d2 = ((plus[n] - minus[n]) / (2.0 * h)
                          for h, plus, minus in zip(steps, moved[::2], moved[1::2]))
                rows[i] += (float(k) if rescaled else 1.0) * ((4.0 * d2 - d1) / 3.0)
    return out


def phase_path_rk4(loop) -> np.ndarray:
    """Lift phase chi at the N + 1 nodes of one circuit by RK4 on chi' = -m,
    m = Im<L, dL/dphi> interpolated off the nodes, one step per node and one
    per half node, Richardson-combined."""
    rate = TrigInterpolator(np.imag(np.sum(np.conj(loop.points) * spectral_derivative(loop.points),
                                           axis=-1)))

    def integrate(steps: int) -> np.ndarray:
        h = 2.0 * np.pi / steps
        phi0 = h * np.arange(steps)
        increments = (h / 6.0) * -(rate(phi0) + 4.0 * rate(phi0 + 0.5 * h) + rate(phi0 + h))
        return np.concatenate([[0.0], np.cumsum(increments)])

    return (16.0 * integrate(2 * loop.n)[::2] - integrate(loop.n)) / 15.0


def gamma_fd(loop, f, step: float = 1e-3) -> np.ndarray:
    """t-derivative of sqrt(speed_t / speed) for the loop moved along the
    geodesics of t * (Hamiltonian normal velocity of f): central differences
    at t = step/2 and step/4, Richardson-combined."""
    a = hamiltonian_normal_components(loop, f)
    nf = normal_frame(loop)

    def g_at(t: float) -> np.ndarray:
        return np.sqrt(LagrangianLoop(exp_map(loop.points, (t * a)[:, None] * nf)).speed / loop.speed)

    central = [(g_at(h) - g_at(-h)) / (2.0 * h) for h in (0.5 * step, 0.25 * step)]
    return (4.0 * central[1] - central[0]) / 3.0
