"""A deliberately naive implementation of the whole pipeline, the oracle
for changes that move rounding.

Dense P1 matrices assembled by a loop over the cells; the convolution
quadrature (CQ) march as its direct history sum with a dense solve at
every step; the sensitivity as the derivative of that march, marched for
every V_h unit direction at once, which gives the dense sensitivity
operator d -> W^N(d); the misfit gradient as that operator's transpose
applied to M r, and the adjoint states as the transposed march; and a
copy of the projected conjugate-gradient loop of ``fracinv.inverse`` on
those pieces.  It reads only a mesh's arrays from fracinv and is written
for clarity, not speed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

MAX_BACKTRACKS = 20  # halvings of a step that does not decrease the objective

# per cell of dimension 1 and 2: barycentric coordinates of the quadrature
# points of the data integrals, and their weights as fractions of the measure
_GAUSS = (0.5 + 0.5 / math.sqrt(3.0), 0.5 - 0.5 / math.sqrt(3.0))
QUADRATURE = {1: (np.array([_GAUSS, _GAUSS[::-1]]), np.array([0.5, 0.5])),
              2: (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
                  np.full(3, 1.0 / 3.0))}


def cq_weights(alpha, N):
    """The coefficients b_0..b_N of (1 - z)**alpha, b_j = b_{j-1} (j - 1 - alpha) / j,
    each exact in rational arithmetic and rounded once."""
    a, b, out = Fraction(alpha), Fraction(1), [1.0]
    for j in range(1, N + 1):
        b *= (j - 1 - a) / j
        out.append(float(b))
    return np.array(out)


def _cell(corners):
    """Measure and basis gradients (one row per vertex) of a simplex."""
    dim = corners.shape[1]
    P = np.hstack([np.ones((dim + 1, 1)), corners])  # row i: (1, x_i)
    # phi_i = sum_k C[k, i] (1, x)_k, since P @ C is the identity
    C = np.linalg.inv(P)
    return abs(np.linalg.det(P)) / math.factorial(dim), C[1:].T


def _evaluate(f, point):
    return float(f) if np.isscalar(f) else float(f(*point))


class Reference:
    """Dense P1 matrices of one mesh: X_h (interior vertices) blocks of the
    mass matrix M and of the stiffness K(q), the V_h mass matrix and
    unit-coefficient stiffness, and dK[v] = K(phi_v) on X_h."""

    def __init__(self, mesh):
        nv, dim = mesh.n_vertices, mesh.dim
        self.mesh, self.free = mesh, np.flatnonzero(~mesh.boundary)
        M, K1, dK = np.zeros((nv, nv)), np.zeros((nv, nv)), np.zeros((nv, nv, nv))
        self.cells = []
        for cell in mesh.cells:
            measure, grads = _cell(mesh.vertices[cell])
            self.cells.append((cell, measure))
            k = dim + 1
            block = np.ix_(cell, cell)
            # int phi_i phi_j = |c| (1 + delta_ij) / ((dim + 1) (dim + 2))
            M[block] += measure * (np.ones((k, k)) + np.eye(k)) / (k * (k + 1))
            stiff = measure * grads @ grads.T
            K1[block] += stiff
            for v in cell:  # int phi_v = |c| / (dim + 1) on this cell
                dK[v][block] += stiff / k
        inner = np.ix_(self.free, self.free)
        self.M, self.MV, self.K1 = M[inner], M, K1
        self.dK = dK[:, self.free][:, :, self.free]

    def stiffness(self, q):
        """X_h stiffness of the P1 coefficient with nodal values q."""
        return np.tensordot(q, self.dK, axes=1)

    def load(self, f):
        """X_h dual vector (f, phi_i) by the quadrature of QUADRATURE."""
        lam, weights = QUADRATURE[self.mesh.dim]
        out = np.zeros(self.mesh.n_vertices)
        for cell, measure in self.cells:
            corners = self.mesh.vertices[cell]
            for point, w in zip(lam, weights):
                out[cell] += measure * w * _evaluate(f, point @ corners) * point
        return out[self.free]

    def forward(self, q, u0, f, alpha, T, N):
        """States U^0..U^N: U^0 = P_h u0 and, for n >= 1,
        tau**-alpha M sum_{j=0..n} b_j (U^{n-j} - U^0) + K(q) U^n = F."""
        b, scale = cq_weights(alpha, N), (T / N) ** -alpha
        A, F = scale * self.M + self.stiffness(q), self.load(f)
        U = np.zeros((N + 1, len(self.free)))
        U[0] = np.linalg.solve(self.M, self.load(u0))
        for n in range(1, N + 1):
            hist = sum(b[j] * (U[n - j] - U[0]) for j in range(1, n + 1))
            U[n] = np.linalg.solve(A, F + scale * self.M @ (U[0] - hist))
        return U

    def sensitivity_operator(self, q, U, alpha, T):
        """W^0..W^N, each an (X_h, V_h) matrix whose column v is the
        derivative of the march U along phi_v:
        tau**-alpha M sum_{j=0..n} b_j W^{n-j} + K(q) W^n = -K(phi_v) U^n."""
        N = len(U) - 1
        b, scale = cq_weights(alpha, N), (T / N) ** -alpha
        A = scale * self.M + self.stiffness(q)
        W = np.zeros((N + 1, len(self.free), self.mesh.n_vertices))
        for n in range(1, N + 1):
            hist = sum(b[j] * W[n - j] for j in range(1, n + 1))
            load = -np.einsum("vij,j->iv", self.dK, U[n])
            W[n] = np.linalg.solve(A, load - scale * self.M @ hist)
        return W

    def adjoint(self, q, r, alpha, T, N):
        """V^0..V^N (V^0 = 0) of the transposed sensitivity march:
        A V^N = M r and A V^n = -tau**-alpha M sum_{j=1..N-n} b_j V^{n+j}."""
        b, scale = cq_weights(alpha, N), (T / N) ** -alpha
        A = scale * self.M + self.stiffness(q)
        V = np.zeros((N + 1, len(self.free)))
        V[N] = np.linalg.solve(A, self.M @ r)
        for n in range(N - 1, 0, -1):
            hist = sum(b[j] * V[n + j] for j in range(1, N - n + 1))
            V[n] = np.linalg.solve(A, -scale * self.M @ hist)
        return V

    def paired_gradient(self, U, V):
        """The misfit gradient from the adjoint states: -sum_n V^n . K(phi_v) U^n."""
        return -sum(np.einsum("vij,i,j->v", self.dK, V[n], U[n]) for n in range(1, len(U)))


def run_inversion(ref, alpha, T, N, u0, f, z, gamma, c0, c1, q_init, max_iters,
                  noise_level, discrepancy_factor):
    """fracinv.inverse.run_inversion, with a known noise level, on the
    dense pieces; returns the (q, J, step) of each accepted iteration."""

    def evaluate(q):
        U = ref.forward(q, u0, f, alpha, T, N)
        r = U[-1] - z
        misfit = 0.5 * r @ ref.M @ r
        return U, misfit + 0.5 * gamma * q @ ref.K1 @ q, misfit, r

    q = np.clip(q_init, c0, c1)
    U, J, misfit, r = evaluate(q)
    riesz = ref.MV + ref.K1
    history, g_prev, d_prev = [], None, None
    for _ in range(max_iters):
        if math.sqrt(2.0 * misfit) <= discrepancy_factor * noise_level:
            break
        S = ref.sensitivity_operator(q, U, alpha, T)[-1]
        g = np.linalg.solve(riesz, -(S.T @ ref.M @ r + gamma * ref.K1 @ q))
        d = g  # Fletcher-Reeves, restarted when beta would exceed one
        if g_prev is not None and g_prev @ ref.MV @ g_prev != 0.0:
            beta = (g @ ref.MV @ g) / (g_prev @ ref.MV @ g_prev)
            if beta <= 1.0:
                d = beta * d_prev + g
        accepted = None
        for direction in (d, g) if d is not g else (d,):
            w = S @ direction
            rw, ww = r @ ref.M @ w, w @ ref.M @ w
            kd = ref.K1 @ direction
            denom = ww + gamma * direction @ kd
            if not math.isfinite(denom) or denom <= 0.0:
                continue
            s = -(rw + gamma * q @ kd) / denom
            rr = r @ ref.M @ r
            target = ((1.0 - 1e-8) * discrepancy_factor * noise_level) ** 2
            if s > 0.0 and ww > 0.0 and rr > target and rr + 2 * s * rw + s * s * ww < target:
                disc = rw * rw - ww * (rr - target)
                if disc >= 0.0 and 0.0 < (-rw - math.sqrt(disc)) / ww < s:
                    s = (-rw - math.sqrt(disc)) / ww
            for _ in range(MAX_BACKTRACKS + 1):
                q_try = np.clip(q + s * direction, c0, c1)
                trial = evaluate(q_try)
                if trial[1] <= J:
                    accepted = q_try, trial, direction, s
                    break
                s *= 0.5
            if accepted is not None:
                break
        if accepted is None:
            break
        q_new, (U, J, misfit, r), d_used, s_used = accepted
        history.append((q_new, J, s_used))
        if np.array_equal(q_new, q):
            break
        q, g_prev, d_prev = q_new, g, d_used
    return history
