"""Weyl operators, projective holonomy, locality tests, torus spin chain.

Loop letters map to fixed gauge elements: u -> [Z], v -> [X^-1], capital
letters to the inverse classes; words compose left to right as matrix
products. This is one consistent convention for absorbing root-of-unity
branch jumps as gauge transformations; any other consistent assignment
differs by coboundaries only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadWord, NonFinite, NotCentral, OutOfRange, ShapeMismatch
from .tensor_core import DEFAULT_RANK_TOL, SMALLEST_NORMAL, PureState, _cross_tests, _frozen, make_state, unit_max_modulus

WEYL_MAX_DIM = 64
HOLONOMY_MAX_P = 8  # the loop holonomy acts in dimension p^2 <= WEYL_MAX_DIM
PROJ_TOL = 1e-9


@dataclass(frozen=True)
class WeylSystem:
    """Clock and shift pair in dimension m with its primitive root of unity; x_inv = X^(m-1)."""

    zeta: complex
    x_op: np.ndarray
    z_op: np.ndarray
    x_inv: np.ndarray


def weyl_ops(m: int) -> WeylSystem:
    """Shift X|r> = |r+1> and clock Z|r> = zeta^r |r>, zeta = exp(2 pi i / m)."""
    if not 2 <= m <= WEYL_MAX_DIM:
        raise OutOfRange(f"Weyl dimension must satisfy 2 <= m <= {WEYL_MAX_DIM}, got {m}")
    zeta = cmath.exp(2j * cmath.pi / m)
    x = np.zeros((m, m), dtype=complex)
    for r in range(m):
        x[(r + 1) % m, r] = 1.0
    z = np.diag([zeta**r for r in range(m)])
    return WeylSystem(zeta, _frozen(x), _frozen(z), _frozen(np.linalg.matrix_power(x, m - 1)))


def det_normalize(g: np.ndarray) -> np.ndarray:
    """Scale an invertible matrix to determinant 1.

    The scaling root is the one with argument in [0, 2 pi / n), n the
    matrix size, so the normalization is deterministic.  Singularity is
    decided on g divided by its max modulus.  When g's own determinant is
    not a finite normal double, that scaled matrix is normalized instead:
    a positive scale changes neither the result nor the phase of 1/det.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    unit = unit_max_modulus(g)
    unit_det = complex(np.linalg.det(unit))
    if abs(unit_det) < 1e-12:
        raise ShapeMismatch("matrix is numerically singular, cannot normalize")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing det or det modulus is replaced below
        det = np.linalg.det(g)
        normal = SMALLEST_NORMAL <= np.abs(det) < math.inf  # Python's abs of a complex raises where the modulus overflows
    g, det = (g, complex(det)) if normal else (unit, unit_det)
    target = 1.0 / det
    theta = cmath.phase(target) % (2 * cmath.pi)
    scale = abs(target) ** (1.0 / n) * cmath.exp(1j * theta / n)
    return g * scale


def _scalar_value(mat: np.ndarray) -> complex | None:
    """s = trace/n if mat is finite and within PROJ_TOL * max(1, |s|) of s I entrywise, else None."""
    if not np.isfinite(mat).all():
        return None
    n = mat.shape[0]
    scalar = complex(np.trace(mat)) / n
    return None if np.max(np.abs(mat - scalar * np.eye(n))) > PROJ_TOL * max(1.0, abs(scalar)) else scalar


def proj_equal(g: np.ndarray, h: np.ndarray) -> bool:
    """Projective equality of finite operators: scale both to max modulus 1, divide each by its entry at g's largest, compare."""
    ga, ha = np.asarray(g, dtype=complex), np.asarray(h, dtype=complex)
    if ga.shape != ha.shape:
        return False
    try:
        ga, ha = unit_max_modulus(ga), unit_max_modulus(ha)
    except NonFinite:
        return False
    pos = np.unravel_index(np.argmax(np.abs(ga)), ga.shape)
    if abs(ha[pos]) < PROJ_TOL * np.abs(ha).max():
        return False
    return bool(np.max(np.abs(ga / ga[pos] - ha / ha[pos])) < PROJ_TOL)


def loop_holonomy(p: int, loop_word: str) -> np.ndarray:
    """Evaluate a loop word on the unit torus as a product of gauge elements in PGL(p^2).

    Returns the read-only determinant-1 lift.
    """
    if not 2 <= p <= HOLONOMY_MAX_P:
        raise OutOfRange(f"p must satisfy 2 <= p <= {HOLONOMY_MAX_P} (p^2 <= {WEYL_MAX_DIM}), got {p}")
    if not loop_word:
        raise BadWord("loop word must be nonempty")
    w = weyl_ops(p**2)
    gauge = {
        "u": det_normalize(w.z_op),
        "U": det_normalize(np.conj(w.z_op)),
        "v": det_normalize(w.x_inv),
        "V": det_normalize(w.x_op),
    }
    acc = np.eye(p * p, dtype=complex)
    for letter in loop_word:
        if letter not in gauge:
            raise BadWord(f"unknown loop letter {letter!r} (allowed: u U v V)")
        acc = acc @ gauge[letter]
    return _frozen(det_normalize(acc))


def commutator_scalar(g: np.ndarray, h: np.ndarray) -> complex:
    """The central scalar g h g^-1 h^-1, normalized to modulus 1.

    It does not depend on the scale of g or h, so it is taken of both
    divided by their max modulus, whose products neither under- nor overflow.
    """
    ga, ha = unit_max_modulus(g), unit_max_modulus(h)
    scalar = _scalar_value(ga @ ha @ np.linalg.inv(ga) @ np.linalg.inv(ha))
    if scalar is None:
        raise NotCentral("commutator is not a scalar matrix")
    return scalar / abs(scalar)


def is_local_operator(g: np.ndarray, d_a: int, d_b: int, tol: float = DEFAULT_RANK_TOL) -> bool:
    """Membership in the Segre-variety stabilizer.

    True iff some scalar multiple of the lift is a Kronecker product A (x) B:
    as an (i_a, i_b, j_a, j_b) array, its cut {i_a, j_a} (the realignment)
    has rank 1; or, when d_a = d_b, iff composing with the factor swap makes
    one: its cut {i_a, j_b} has rank 1.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (d_a * d_b, d_a * d_b):
        raise ShapeMismatch(f"operator shape {g.shape} does not match ({d_a * d_b}, {d_a * d_b})")
    if not np.isfinite(g).all():
        raise NonFinite("operator has a non-finite entry")
    rank_one = _cross_tests(g.reshape(d_a, d_b, d_a, d_b), tol)[0]
    return rank_one(0b0101) or (d_a == d_b and rank_one(0b1001))


def qudit_encode(r: int, p: int) -> tuple[int, int]:
    """Digits (a, b) with r = a + p*b, both in {0..p-1}."""
    if not 0 <= r < p * p:
        raise OutOfRange(f"index {r} outside range(p^2) for p = {p}")
    return r % p, r // p


def wire_order(state: PureState) -> np.ndarray:
    """Coefficients reindexed to the little-endian wire basis r = sum_i digit_i * prod(d_(<i))."""
    n = state.n_subsystems
    return state.tensor().transpose(tuple(reversed(range(n)))).ravel()


def from_wire(vec: np.ndarray, dims) -> PureState:
    """Inverse of wire_order: build a PureState from a wire-ordered vector."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    tensor = np.asarray(vec, dtype=complex).reshape(dims[::-1]).transpose(tuple(reversed(range(n))))
    return make_state(dims, tensor.ravel())


def to_qudit_pair(state: PureState, p: int) -> PureState:
    """Reinterpret a dimension-p^2 state as two p-level subsystems (r = a + p*b)."""
    if math.prod(state.dims) != p * p:
        raise ShapeMismatch(f"state dimension {math.prod(state.dims)} is not p^2 = {p * p}")
    return from_wire(wire_order(state), (p, p))


def apply_holonomy(g: np.ndarray, state: PureState) -> PureState:
    """Act on a state by a projective operator (in the wire basis)."""
    ga = np.asarray(g, dtype=complex)
    m = ga.shape[0]
    if math.prod(state.dims) != m:
        raise ShapeMismatch(f"state dimension {math.prod(state.dims)} does not match operator size {m}")
    return from_wire(ga @ wire_order(state), state.dims)


@dataclass(frozen=True)
class SpinChainParams:
    """Couplings and the branch-resolved fourth root for the one-magnon block."""

    j_coupling: float = 1.0
    delta: float = 2.0
    theta_u: float = 0.0
    branch_offset: int = 0

    def __post_init__(self):
        for name in ("j_coupling", "delta", "theta_u"):
            if not math.isfinite(getattr(self, name)):
                raise NonFinite(f"{name} must be finite, got {getattr(self, name)}")
        if not self.delta > self.j_coupling > 0:
            raise OutOfRange(f"need delta > J > 0, got J={self.j_coupling}, delta={self.delta}")
        if self.j_coupling < SMALLEST_NORMAL:  # the hopping entries J u^(1/4) would round to whole subnormal steps
            raise OutOfRange(f"J must be at least the smallest normal double {SMALLEST_NORMAL!r}, got J={self.j_coupling}")
        if self.branch_offset not in (0, 1, 2, 3):
            raise OutOfRange(f"branch offset must be in 0..3, got {self.branch_offset}")

    @property
    def u_quarter_root(self) -> complex:
        return cmath.exp(1j * (self.theta_u + 2 * cmath.pi * self.branch_offset) / 4)


def spin_hamiltonian(params: SpinChainParams) -> np.ndarray:
    """One-magnon block: hopping on sites 0,1 with a Peierls phase, penalty on 2,3."""
    j, d = params.j_coupling, params.delta
    w = params.u_quarter_root
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = -j * w
    h[1, 0] = -j / w
    h[2, 2] = d
    h[3, 3] = d
    return h


def ground_state(params: SpinChainParams) -> PureState:
    """Normalized minimal-energy eigenvector, |1>-coefficient real positive.

    Equals (u^(1/4)|0> + |1>)/sqrt(2) at energy -J. Only the hopping block
    on sites 0, 1 is solved: its entries share the scale J, so no penalty
    delta can flush them, and both entries of its ground vector have
    modulus 1/sqrt(2).
    """
    gs = np.linalg.eigh(spin_hamiltonian(params)[:2, :2])[1][:, 0]
    phase = gs[1] / abs(gs[1])
    return make_state([4], [*gs * np.conj(phase), 0, 0])


def glue_ground_state(params: SpinChainParams) -> PureState:
    """Ground state carried to the neighboring chart: X^-1 applied, (2,2)-encoded.

    Equals (|00> + u^(1/4)|11>)/sqrt(2); Schmidt rank 2 whenever u != 0.
    """
    glued = apply_holonomy(weyl_ops(4).x_inv, ground_state(params))
    return to_qudit_pair(glued, 2)
