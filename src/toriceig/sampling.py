"""Deterministic point sets on a polytope: Halton interior samples and
facet-proximal probes.  No RNG anywhere, so reruns are identical."""

from __future__ import annotations

import numpy as np

from .polytope import LabelledPolytope, PolytopeError

_PRIMES = (2, 3, 5, 7, 11)
_MAX_CANDIDATES = 782 * 256


class SamplingError(PolytopeError):
    """Too few Halton candidates land inside the polytope: it is too thin, or
    the count exceeds the candidate budget."""


def halton(count: int, dim: int, skip: int = 20) -> np.ndarray:
    """`count` Halton points in [0,1)^dim (leading entries skipped)."""
    pts = np.zeros((count, dim))
    for j in range(dim):
        base = _PRIMES[j]
        # radical inverse of every index at once, one base-`base` digit a pass
        i = np.arange(skip, skip + count)
        f = 1.0 / base
        while i.any():
            pts[:, j] += f * (i % base)
            i //= base
            f /= base
    return pts


def polytope_scale(P: LabelledPolytope) -> float:
    lo, hi = P.bounding_box()
    return max(float(h - l) for l, h in zip(lo, hi))


def facet_values(P: LabelledPolytope, x) -> np.ndarray:
    """L_k(x) = <x, nu_k> + c_k for every facet, on the last axis of x.

    Column k sums x_i nu_k[i] over the nonzero nu_k[i] in axis order, in
    elementwise array operations, so a row of a batch gets exactly the bits
    of a one-point call.
    """
    _, c = P.float_facets()
    x = np.asarray(x, dtype=float)
    L = np.empty(x.shape[:-1] + c.shape)
    for k, nu in enumerate(P.normals):
        (i, a), *rest = [(i, a) for i, a in enumerate(nu) if a]
        column = np.multiply(x[..., i], a, out=L[..., k])
        for i, a in rest:
            column += x[..., i] * a
    L += c
    return L


def interior_points(
    P: LabelledPolytope, count: int, min_facet: float | None = None
) -> np.ndarray:
    """`count` deterministic interior points with all L_i >= min_facet.

    Halton points in the bounding box, at most 782 blocks of 256, are filtered
    by margin; the margin is halved (at most 12 times) if the polytope is too
    thin for the default.  Candidates are made on demand and kept across
    margins.
    """
    lo, hi = P.bounding_box()
    lo_f = np.array([float(v) for v in lo])
    hi_f = np.array([float(v) for v in hi])
    margin = polytope_scale(P) * 1e-2 if min_facet is None else float(min_facet)
    pts = np.empty((0, P.dim))
    low = np.empty(0)  # min_i L_i at each candidate
    for _ in range(12):
        good = pts[low >= margin]
        while len(good) < count and len(pts) < _MAX_CANDIDATES:
            more = min(max(len(pts), 256), _MAX_CANDIDATES - len(pts))
            new = lo_f + halton(more, P.dim, skip=20 + len(pts)) * (hi_f - lo_f)
            pts = np.concatenate([pts, new])
            low = np.concatenate([low, np.min(facet_values(P, new), axis=1)])
            good = pts[low >= margin]
        if len(good) >= count:
            return good[:count]
        margin *= 0.5
    raise SamplingError(f"could not place {count} interior points in {P!r}")


def facet_proximal_points(P: LabelledPolytope, distances) -> list:
    """Points at prescribed L_i-distances inward of each facet's centroid.

    Returns (facet_index, distance, point) triples; a probe is skipped when
    the inward step leaves the polytope (very thin polytopes).
    """
    verts = P.vertices()
    out = []
    for i, nu in enumerate(P.normals):
        on_facet = [v.coords for v in verts if i in v.active]
        centroid = np.array(
            [float(sum(c[j] for c in on_facet)) / len(on_facet) for j in range(P.dim)]
        )
        nu_f = np.array(nu, dtype=float)
        nsq = float(nu_f @ nu_f)
        for dist in distances:
            x = centroid + (dist / nsq) * nu_f
            if np.min(facet_values(P, x)) <= 0:
                continue
            out.append((i, float(dist), x))
    return out

