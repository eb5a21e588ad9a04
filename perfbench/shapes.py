"""Seeded vertex sets and maps with combinatorics known by construction.

Only numpy: the benchmark generates its inputs without the library, so
the vertex counts, facet counts and verdicts it checks against are
properties of the construction, not of hilbertgeo's answers.
"""

from __future__ import annotations

import math

import numpy as np

SQUARE = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def rotation(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def polygon(rng, m):
    """m points in cyclic order on a random ellipse: a strictly convex
    m-gon, every point extreme."""
    step = 2.0 * math.pi / m
    th = np.arange(m) * step + rng.uniform(0.0, 0.4 * step, m)
    th += rng.uniform(0.0, 2.0 * math.pi)
    a, b = rng.uniform(1.0, 1.5), rng.uniform(0.7, 1.0)
    pts = np.c_[a * np.cos(th), b * np.sin(th)]
    return pts @ rotation(rng, 2).T + rng.uniform(-0.3, 0.3, 2)


def affine(rng, V):
    """Image of V under a random well-conditioned affine map."""
    d = V.shape[1]
    M = rotation(rng, d) @ np.diag(rng.uniform(0.7, 1.4, d))
    return V @ M.T + rng.uniform(-0.3, 0.3, d)


def cube(d):
    grid = np.array(np.meshgrid(*[[-1.0, 1.0]] * d, indexing="ij"))
    return grid.reshape(d, -1).T


def cross_polytope(d):
    return np.vstack([np.eye(d), -np.eye(d)])


def bipyramid(rng, m):
    """Bipyramid over an m-gon: m + 2 vertices, 2m triangular facets."""
    base = polygon(rng, m)
    base -= base.mean(axis=0)
    return np.vstack([np.c_[base, np.zeros(m)],
                      [[0.0, 0.0, rng.uniform(0.8, 1.3)],
                       [0.0, 0.0, -rng.uniform(0.8, 1.3)]]])


def ellipsoid_shape(rng, d, radius=1.0):
    R = rotation(rng, d)
    return (R * (radius * rng.uniform(0.6, 1.4, d)) ** 2) @ R.T


def on_ellipsoid(rng, k, d=3):
    """k points on a random ellipsoid surface: all extreme."""
    u = rng.normal(size=(k, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u @ np.linalg.cholesky(ellipsoid_shape(rng, d)).T


def with_junk(rng, V, junk):
    """V plus junk strictly interior points (shuffled in)."""
    w = rng.dirichlet(np.ones(len(V)), size=junk)
    inner = 0.5 * (w @ V) + 0.5 * V.mean(axis=0)
    pts = np.vstack([V, inner])
    return pts[rng.permutation(len(pts))]


def interior(rng, V, pull=0.15):
    """A random interior point of conv(V), kept off the boundary."""
    w = rng.dirichlet(np.ones(len(V)))
    return (1.0 - pull) * (w @ V) + pull * V.mean(axis=0)


def in_ellipsoid(rng, center, shape, r_max=0.85):
    d = len(center)
    u = rng.normal(size=d)
    u *= r_max * rng.uniform() ** (1.0 / d) / np.linalg.norm(u)
    return center + np.linalg.cholesky(shape) @ u


def homography(rng, V):
    """Image of the desk-scale point set V under a random projective map
    of the plane that keeps V away from the line sent to infinity."""
    while True:
        M = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
        M[2, :2] = 0.1 * rng.normal(size=2)
        M[2, 2] = 1.0
        h = np.c_[V, np.ones(len(V))] @ M.T
        if np.all(h[:, 2] > 0.3):
            return h[:, :2] / h[:, 2:]
