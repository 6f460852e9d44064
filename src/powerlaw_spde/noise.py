"""Cylindrical Wiener process and the superposition noise operator.

W = sum_k e_k beta_k with independent scalar Brownian motions beta_k; the
noise operator acts pointwise by Phi(v) e_k = g_k(v(x)).  Three built-in
coefficient families cover additive, multiplicative-linear and smooth
nonlinear noise, each satisfying the linear-growth and gradient bounds

    sum_k |g_k(xi)| <= L (1 + |xi|),   sum_k |grad g_k(xi)|^2 <= L,

as well as sup_k k^2 |g_k(xi)|^2 <= c (1 + |xi|^2), with constants L and c
documented per family.  The infinite sum is truncated at K modes with the
per-mode scale a_k = 2^-k, so the tail of every series is geometric.  The
coefficients act pointwise on R^d: d is read from the values they act on.

Every family is a truncated Q-Wiener noise whose K fields are mixtures of
r <= d generator fields (Lord, Powell & Shardlow, An Introduction to
Computational Stochastic PDEs, CUP 2014, ch. 10):

    Phi(v) e_k = sum_r U[r, k] G_r(v),

where G is the model's own first r modes, g_1 = a_1 v (r = 1) for the
linear family and g_j = a_j amplitude sqrt(1 + |v|^2) e_j (additive:
a_j amplitude e_j), j <= r = min(K, d), for the other two, and U[j, k] =
a_k / a_j [j = (k-1) mod r].  generators(model, d) returns G and U, so the
pressure noise and the linear family's Galerkin diffusion are built from r
fields instead of K.  The other two families are amplitude a_k s(v)
e_((k-1) mod d) with the scalar profile s (profile), so their diffusion
needs no field at all: galerkin.assemble_diffusion projects s e_j from one
moment product of s.

WienerPath.generate draws the increments of a sequence of seeds as one
(len(seeds), n_steps, K) array, step n of seed s from the stream
default_rng((s, n)); every seed follows one rule, check_seed.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .basis import FieldError, GalerkinSpace, check_samples, is_count

FAMILIES = ("additive", "linear", "smooth_norm")


@dataclass(frozen=True)
class NoiseModel:
    family: str
    K: int = 16
    amplitude: float = 1.0  # the c0 prefactor of the additive and smooth_norm families

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FieldError("family", f"unknown noise family {self.family!r}")
        if not is_count(self.K, 1):
            raise FieldError("K", f"need an integer K >= 1 of Wiener modes, got {self.K!r}")
        if not np.isfinite(self.amplitude):
            raise FieldError("amplitude", f"noise amplitude must be finite, got {self.amplitude}")

    @cached_property
    def per_mode_scale(self) -> np.ndarray:
        """a_k = 2^-k, k = 1..K."""
        scale = 2.0 ** -np.arange(1, self.K + 1)
        scale.flags.writeable = False
        return scale

    def growth_constant(self, d: int) -> float:
        """L in the linear-growth bound on R^d, per family with a_k = per_mode_scale."""
        a_sum, c0 = float(np.sum(self.per_mode_scale)), abs(self.amplitude)
        if self.family == "additive":
            return c0 * a_sum
        if self.family == "linear":
            return max(a_sum, d * float(np.sum(self.per_mode_scale ** 2)))
        # smooth_norm: |g_k| = a_k sqrt(1+|xi|^2) <= a_k (1+|xi|),
        # |grad g_k|^2 = a_k^2 |xi|^2/(1+|xi|^2) <= a_k^2
        return max(c0 * a_sum, c0 ** 2 * float(np.sum(self.per_mode_scale ** 2)))


@cache
def generators(model: NoiseModel, d: int) -> tuple[NoiseModel, np.ndarray]:
    """(G, U): the model's own first r modes G = NoiseModel(family, K=r,
    amplitude), r = 1 for the linear family and min(K, d) otherwise, and the
    constant (r, K) mixing U[r, k] = a_k / a_r with Phi(v) e_k = sum_r U[r, k]
    G_r(v) on R^d.  Every a_k is a power of two, so the product is g_k bit
    for bit."""
    r = 1 if model.family == "linear" else min(model.K, d)
    gen = NoiseModel(model.family, K=r, amplitude=model.amplitude)
    k = np.arange(model.K)
    mix = np.zeros((r, model.K))
    mix[k % r, k] = model.per_mode_scale / gen.per_mode_scale[k % r]
    mix.flags.writeable = False
    return gen, mix


def profile(model: NoiseModel, xi: np.ndarray) -> np.ndarray:
    """The scalar s(xi) of the additive (s = 1) and smooth_norm (s =
    sqrt(1 + |xi|^2)) families, whose mode k field is amplitude a_k s(xi)
    e_((k-1) mod d), at velocity values xi (..., d): shape (...)."""
    if model.family == "additive":
        return np.ones(xi.shape[:-1])
    if model.family == "smooth_norm":
        return np.sqrt(1.0 + np.sum(xi ** 2, axis=-1))
    raise ValueError(f"the {model.family} family has no scalar profile")


def _all_g(model: NoiseModel, xi: np.ndarray) -> np.ndarray:
    """g_1..g_K at velocity values xi (..., d), stacked: shape (K, ..., d).

    The additive and smooth_norm fields of mode k point along the unit
    vector u_k = e_((k-1) mod d).
    """
    xi = np.asarray(xi, dtype=float)
    a = model.per_mode_scale.reshape((model.K,) + (1,) * xi.ndim)
    if model.family == "linear":
        return a * xi
    d = xi.shape[-1]
    u = np.eye(d)[np.arange(model.K) % d]
    u = u.reshape((model.K,) + (1,) * (xi.ndim - 1) + (d,))
    return a * model.amplitude * profile(model, xi)[..., None] * u


def apply_phi(model: NoiseModel, space: GalerkinSpace, values: np.ndarray) -> np.ndarray:
    """Per-mode grid fields Phi(v) e_k, shape (K, M^d, ..., d), from the
    samples of v, shape (M^d, ..., d) (batch axes between grid and component)."""
    check_samples(space, values)
    return _all_g(model, values)


def check_seed(seed) -> int:
    """The seed rule: a seed is an int or a numpy integer, not a bool, and
    >= 0.  Returns it as an int; raises FieldError naming seed otherwise."""
    if not is_count(seed):
        raise FieldError("seed", f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def is_seed_sequence(seed) -> bool:
    """Whether seed is a sequence of seeds; a str never is."""
    return isinstance(seed, Sequence) and not isinstance(seed, str)


def hilbert_schmidt_norm_sq(space: GalerkinSpace, phi_fields: np.ndarray) -> float:
    """sum_k int |Phi(v) e_k|^2 dx from the output of apply_phi."""
    return float(space.quad_weight * np.sum(phi_fields ** 2))


class WienerPath:
    """Brownian increments, reproducible from (seed, step, mode).

    Each step's K-vector of N(0, dt) draws comes from its own stream
    default_rng((seed, step)), so steps can be produced in any order or in
    parallel, and a longer run extends a shorter one.  A seed is an int or
    a numpy integer, not a bool, and >= 0 (check_seed).  generate seeds the
    streams of many seeds and steps at once: it runs SeedSequence's
    mix_entropy and generate_state loops on uint32 arrays of (seed, step)
    pairs, which leaves each stream exactly as numpy draws it.
    """

    @classmethod
    def generate(cls, seeds: Sequence[int], dt: float, K: int, n_steps: int) -> np.ndarray:
        """The increments of each seed of a sequence (a str is not one),
        shape (len(seeds), n_steps, K): step n of seed s is the stream
        default_rng((s, n)) scaled by sqrt(dt).  _seed_states runs
        SeedSequence's hashing on every (seed, step) pair at once, and PCG64
        seeds each stream from its state, so the streams are numpy's bit for
        bit.  Before any draw, raises FieldError naming dt unless it is
        positive and finite, K unless it is an integer >= 1, n_steps unless
        it is an integer >= 0 (a bool is neither), seeds unless they are a
        sequence and seed for a seed that fails check_seed."""
        if not 0.0 < dt < np.inf:  # nan fails too
            raise FieldError("dt", f"time step must be positive and finite, got {dt}")
        if not is_count(K, 1):
            raise FieldError("K", f"need an integer K >= 1 of Wiener modes, got {K!r}")
        if not is_count(n_steps):
            raise FieldError("n_steps", f"n_steps must be a nonnegative integer, got {n_steps!r}")
        if not is_seed_sequence(seeds):
            raise FieldError("seeds", f"seeds must be a sequence of seeds, got {seeds!r}")
        seeds = [check_seed(s) for s in seeds]
        inc = np.empty((len(seeds), n_steps, K))
        seed_state = _seed_state_type()
        for out, words in zip(inc.reshape(len(seeds) * n_steps, K), _seed_states(seeds, n_steps)):
            np.random.Generator(np.random.PCG64(seed_state(words))).standard_normal(out=out)
        inc *= np.sqrt(dt)
        return inc


# SeedSequence (NEP 19), which default_rng(entropy) seeds PCG64 with, hashes
# the uint32 entropy words into a pool of 4 words (mix_entropy), then the
# pool into the state words that it hands to PCG64 (generate_state).
# _seed_states runs both loops on arrays, one column per (seed, step) pair.
_POOL = 4
_MASK32 = 2 ** 32 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_OTHERS = [np.array([dst for dst in range(_POOL) if dst != src]) for src in range(_POOL)]


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix with its running constant: each call hashes
    values broadcast to (rows, pairs), row by row as numpy does: value ^=
    const; const = const * mult & _MASK32; value *= const; value ^= value >> 16."""
    def hashmix(values: np.ndarray, rows: int) -> np.ndarray:
        nonlocal const
        running = [const]
        for _ in range(rows):
            running.append(running[-1] * mult & _MASK32)
        const, running = running[-1], np.array(running, dtype=np.uint32)
        out = (values ^ running[:-1, None]) * running[1:, None]
        out ^= out >> 16
        return out
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> 16
    return out


def _seed_words(n: int) -> list[int]:
    """The uint32 words of an integer n >= 0, least significant first (one
    word for 0), as SeedSequence reads it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_states(seeds: list[int], n_steps: int) -> np.ndarray:
    """SeedSequence((s, n)).generate_state(4, np.uint64) for every seed
    s >= 0 and step n < 2^32, seed by seed: shape (len(seeds) * n_steps, 4).

    A pair's entropy is the words of s, then n.  The hash steps depend only
    on the number of words, so the pairs of the seeds with one word count
    are hashed at once; SeedSequence hashes a zero word into each pool word
    that the entropy does not fill, so short entropy is padded with zeros."""
    out = np.empty((len(seeds), n_steps, 2 * _POOL), dtype="<u4")
    groups = {}
    for row, s in enumerate(seeds):
        words = _seed_words(s)
        groups.setdefault(len(words), []).append((row, words))
    for n_seed, members in groups.items():
        rows, words = zip(*members)
        entropy = np.zeros((max(n_seed + 1, _POOL), len(rows), n_steps), dtype=np.uint32)
        entropy[:n_seed] = np.array(words, dtype=np.uint32).T[:, :, None]
        entropy[n_seed] = np.arange(n_steps)
        entropy = entropy.reshape(len(entropy), -1)
        # mix_entropy: each round hashes one pool word into the other three
        hashmix = _hashmix(_INIT_A, _MULT_A)
        pool = hashmix(entropy[:_POOL], _POOL)
        for src, dst in enumerate(_OTHERS):
            pool[dst] = _mix(pool[dst], hashmix(pool[src], len(dst)))
        for word in entropy[_POOL:]:
            pool = _mix(pool, hashmix(word, _POOL))
        # generate_state: 8 state words cycle through the pool
        state = _hashmix(_INIT_B, _MULT_B)(np.concatenate([pool, pool]), 2 * _POOL)
        out[list(rows)] = state.T.reshape(len(rows), n_steps, 2 * _POOL)
    return out.view("<u8").reshape(-1, 4)  # little-endian pairs of state words


@cache
def _seed_state_type() -> type:
    """A stand-in for SeedSequence((s, n)) when PCG64 seeds itself, by its
    one call generate_state(4, np.uint64), holding the words that
    _seed_states computed for the pair.  numpy.random is imported here, at
    the first draw, rather than with the package: imported with the
    package it raised the benchmark's peak RSS by about 0.5 MB."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedState


def growth_bound_holds(model: NoiseModel, xi: np.ndarray) -> bool:
    """Check sum_k |g_k(xi)| <= L (1+|xi|), L = model.growth_constant(d), for states (..., d)."""
    xi = np.asarray(xi, dtype=float)
    total = np.sum(np.linalg.norm(_all_g(model, xi), axis=-1), axis=0)
    mag = np.linalg.norm(xi, axis=-1)
    return bool(np.all(total <= model.growth_constant(xi.shape[-1]) * (1.0 + mag) + 1e-12))


def mode_decay_bound_holds(model: NoiseModel, xi: np.ndarray) -> bool:
    """Check sup_k k^2 |g_k(xi)|^2 <= c (1+|xi|^2)."""
    k_sq = np.arange(1, model.K + 1) ** 2
    # k^2 a_k^2 <= max_k k^2 4^-k = 1/4 at k = 1 or 2 for the default
    # scale; amplitude and the family profile enter quadratically.
    c = float(np.max(k_sq * model.per_mode_scale ** 2)) * max(1.0, model.amplitude ** 2)
    xi = np.asarray(xi, dtype=float)
    mag_sq = np.sum(xi ** 2, axis=-1)
    g_sq = np.sum(_all_g(model, xi) ** 2, axis=-1)  # (K, ...)
    worst = np.max(k_sq.reshape((model.K,) + (1,) * mag_sq.ndim) * g_sq, axis=0)
    return bool(np.all(worst <= c * (1.0 + mag_sq) + 1e-12))
