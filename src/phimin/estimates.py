"""Quantitative audits of weighted-minimal surface geometry.

The audits measure, at desk scale, the quantities whose qualitative
behaviour is known for mean-convex weighted-minimal surfaces:

* intrinsic area of geodesic disks against the 4 pi rho^2 bound,
  gated on the slope-smallness hypotheses 2 rho phi'(rho + mu(p)) < log 2
  and sqrt(|Gamma|) rho < 1;
* the normalised density phi(r) A(r) / (4 pi r^2) of extrinsic balls,
  which is monotone in r on a normalisation window 0 <= phi(eps) < 1;
* the curvature ratio sup |S| / phi'(mu), bounded for admissible weights;
* convexity: min K with the sup k2/eta diagnostic and hypothesis gates;
* rescaling sequences lambda (Sigma - p) compared on a fixed window to a
  limit model (plane, grim reaper profile, or bowl profile);
* the test-function inequalities |grad log|p|^2| <= 2 and
  Lap^phi log|p|^2 <= 2A + 1 used by drift maximum principles.

Intrinsic distances come from Dijkstra shortest paths on a refined
sample lattice whose neighbour template includes knight moves (the
metric error of the 8-template alone exceeds the flat-disk control).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .ilmanen import ambient_curvatures, conformal_curvatures
from .potential import (PotentialDomainError, PotentialSpec, eval_potential,
                        normalized_for_window)
from .solvers import (AxisRegular, PointStart, ShootingConfig, SolveResult,
                      solve_rotational_profile, solve_translation_profile,
                      _stencil_matrix)
from .surface_geometry import (AXIS_TOL, GeometryField, GraphPatch, ProfileCurve,
                               ROTATIONAL, TRANSLATION, drift_laplacian,
                               sample_geometry, _cell_average, _make_report)

LOG2 = float(np.log(2.0))
# profile samples whose blow-up window charts are built as one array; a
# whole window at once is no faster and holds far more memory
_WINDOW_BLOCK = 512
# radius of the ball on which blow-ups are compared to their model
_WINDOW = 1.0


class PatchExceededError(ValueError):
    """Requested ball or window leaves the sampled patch."""


class WindowUnderflowError(ValueError):
    """Rescaled data does not cover the comparison window."""


class OriginProximityError(ValueError):
    """All samples too close to the ambient origin for the log audit."""


# ---------------------------------------------------------------------------
# report types


@dataclass
class AreaReport:
    center_index: int
    rho: float
    hypothesis_ok: bool
    disk_area: float
    bound: float
    passed: bool


@dataclass
class DensityReport:
    radii: np.ndarray
    o_values: np.ndarray
    epsilon: float
    monotone: bool
    tolerance: np.ndarray


@dataclass
class ConvexityReport:
    min_K: float
    min_k2: float
    theta_sup: float
    lambda_K_inf: float
    hypotheses: dict
    verdict: str
    # k2 / eta per sample, NaN where eta <= 1e-10
    k2_over_eta: np.ndarray


@dataclass
class BlowupStage:
    scale: float
    slope_ratio: float
    hausdorff_distance: float
    c2_distance: float
    n_window_samples: int


@dataclass
class BlowupResult:
    model: str
    stages: list
    slope_constant: float

    @property
    def hausdorff_distance(self) -> float:
        return self.stages[-1].hausdorff_distance

    @property
    def c2_distance(self) -> float:
        return self.stages[-1].c2_distance


@dataclass
class IlmanenEstimateReport:
    sup_curvature_times_reach: float
    sup_conformal_curvature: float


# ---------------------------------------------------------------------------
# lattice distances on graph patches


def _graph_lattice(field: GeometryField):
    """Positions of the once-refined sample lattice of a graph patch.

    The height of inserted nodes is bilinear in the stored samples, so
    the lattice lives on the piecewise-linear interpolant surface.
    """
    patch: GraphPatch = field.source
    u = patch.u
    nx, ny = u.shape
    fine = np.empty((2 * nx - 1, 2 * ny - 1))
    fine[::2, ::2] = u
    fine[1::2, ::2] = 0.5 * (u[:-1, :] + u[1:, :])
    fine[::2, 1::2] = 0.5 * (u[:, :-1] + u[:, 1:])
    fine[1::2, 1::2] = _cell_average(u, nx, ny)
    X, Y = GraphPatch(patch.domain, patch.h / 2, fine).grid()
    return np.stack([X, Y, fine], axis=-1), patch.h / 2


# each lattice edge once, as the offset (di, dj) from one end, sorted;
# Dijkstra takes the edges in both directions
_NEIGHBOR_TEMPLATE = ((0, 1), (1, -2), (1, -1), (1, 0),
                      (1, 1), (1, 2), (2, -1), (2, 1))


def _lattice_distances(pos: np.ndarray, sources, conformal_weight=None):
    """Multi-source Dijkstra distances on the knight-augmented lattice.

    pos has shape (nx, ny, 3); edge lengths are ambient chords, times
    the average conformal factor of the endpoints when supplied.
    """
    nx, ny, _ = pos.shape

    def neighbours(a):
        """a at each node's neighbours, one template offset per entry of
        the last axis; a neighbour off the lattice reads 0."""
        padded = np.pad(a, ((2, 2), (2, 2)) + ((0, 0),) * (a.ndim - 2))
        return [padded[2 + di:nx + 2 + di, 2 + dj:ny + 2 + dj]
                for di, dj in _NEIGHBOR_TEMPLATE]

    lengths = np.stack([np.linalg.norm(q - pos, axis=-1) for q in neighbours(pos)],
                       axis=-1)
    if conformal_weight is not None:
        w = conformal_weight
        lengths = lengths * 0.5 * np.stack([w + v for v in neighbours(w)], axis=-1)
    graph = _stencil_matrix(_NEIGHBOR_TEMPLATE, lengths)
    dist = _csgraph_dijkstra(graph, directed=False, indices=np.asarray(sources),
                             min_only=len(np.atleast_1d(sources)) > 1)
    if dist.ndim > 1:
        dist = dist[0]
    return dist.reshape(nx, ny)


def _cell_areas(pos: np.ndarray) -> np.ndarray:
    """Areas of lattice cells as two ambient triangles each."""
    p00 = pos[:-1, :-1]
    p10 = pos[1:, :-1]
    p01 = pos[:-1, 1:]
    p11 = pos[1:, 1:]
    a1 = 0.5 * np.linalg.norm(np.cross(p10 - p00, p01 - p00), axis=-1)
    a2 = 0.5 * np.linalg.norm(np.cross(p11 - p10, p11 - p01), axis=-1)
    return a1 + a2


# ---------------------------------------------------------------------------
# geodesic disk area audit


def geodesic_disk_area_check(field: GeometryField, p: int, rho: float,
                             spec: PotentialSpec, gamma: float) -> AreaReport:
    """Intrinsic area of the geodesic disk of radius rho about sample p
    against the 4 pi rho^2 bound, with the slope-smallness hypothesis gate.

    Distances: knight-template Dijkstra on the once-refined lattice for
    graphs; exact arclength from the axis sample of rotational profiles;
    the flat unrolling for translation-invariant profiles.
    """
    mu_p = float(field.mu[p])
    try:
        d1_at = eval_potential(spec, rho + mu_p).d1
        hypothesis_ok = (2.0 * rho * d1_at < LOG2) and (np.sqrt(abs(gamma)) * rho < 1.0)
    except PotentialDomainError:
        hypothesis_ok = False

    if field.is_profile:
        area = _profile_disk_area(field, p, rho)
    else:
        area = _graph_disk_area(field, p, rho)
    bound = 4.0 * np.pi * rho**2
    return AreaReport(center_index=int(p), rho=float(rho),
                      hypothesis_ok=bool(hypothesis_ok),
                      disk_area=float(area), bound=float(bound),
                      passed=bool(area < bound))


def _profile_disk_area(field: GeometryField, p: int, rho: float) -> float:
    curve: ProfileCurve = field.source
    s = curve.s
    if curve.kind == ROTATIONAL:
        if not (p == 0 and curve.x[0] < AXIS_TOL):
            raise ValueError(
                "rotational disk centers must be the axis sample (index 0)")
        if rho >= s[-1]:
            raise PatchExceededError("disk radius exceeds the sampled profile")
        # meridians through the pole are minimizing: distance = arclength
        ring = 2.0 * np.pi * curve.x
        inside = s <= rho
        k = int(np.sum(inside))
        area = float(np.trapezoid(ring[:k], dx=curve.step))
        # partial last interval, linear in the ring radius
        frac = (rho - s[k - 1]) / curve.step
        ring_rho = ring[k - 1] + frac * (ring[k] - ring[k - 1])
        area += 0.5 * (ring[k - 1] + ring_rho) * (rho - s[k - 1])
        return area
    # flat unrolling: the surface is isometric to the (s, y) plane
    if s[p] - rho < s[0] or s[p] + rho > s[-1]:
        raise PatchExceededError("disk radius exceeds the sampled profile")
    d = np.abs(s - s[p])
    chord = np.where(d < rho, 2.0 * np.sqrt(np.maximum(rho**2 - d**2, 0.0)), 0.0)
    return float(np.trapezoid(chord, dx=curve.step))


def _graph_disk_area(field: GeometryField, p: int, rho: float) -> float:
    patch: GraphPatch = field.source
    pos, h = _graph_lattice(field)
    pi, pj = divmod(int(p), patch.ny)
    src = (2 * pi) * pos.shape[1] + 2 * pj
    dist = _lattice_distances(pos, [src])
    inside = dist < rho
    edge = np.zeros_like(inside)
    edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
    if np.any(inside & edge):
        raise PatchExceededError("geodesic disk touches the sample boundary")
    areas = _cell_areas(pos)
    corner_count = (inside[:-1, :-1].astype(float) + inside[1:, :-1]
                    + inside[:-1, 1:] + inside[1:, 1:])
    return float(np.sum(areas * corner_count / 4.0))


# ---------------------------------------------------------------------------
# density monotonicity audit


def density_monotonicity(field: GeometryField, q: int, radii, spec: PotentialSpec,
                         epsilon: float) -> DensityReport:
    """Normalised density phi(r) A(r) / (4 pi r^2) over increasing radii.

    A(r) is the area of the surface inside the Euclidean ball B(q, r);
    the weight is re-normalised so that phi(0) = 0 <= phi(eps) < 1.
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    if radii.size == 0 or radii[0] <= 0.0:
        raise ValueError("radii must be positive")
    if np.any(radii >= epsilon):
        raise ValueError("all radii must stay below the normalisation window")
    norm_spec = normalized_for_window(spec, epsilon)
    q_pos = field.positions[int(q)]

    areas, tols = _clipped_areas(field, q_pos, radii)
    phis = np.array([eval_potential(norm_spec, r).phi for r in radii])
    o_vals = phis * areas / (4.0 * np.pi * radii**2)
    o_tols = phis * tols / (4.0 * np.pi * radii**2)
    mono = all(o_vals[k + 1] >= o_vals[k] - (o_tols[k] + o_tols[k + 1])
               for k in range(radii.size - 1))
    return DensityReport(radii=radii, o_values=o_vals, epsilon=float(epsilon),
                         monotone=bool(mono), tolerance=o_tols)


def _clipped_areas(field: GeometryField, q: np.ndarray, radii: np.ndarray):
    """(areas, clip tolerances) of the surface in B(q, r) for each radius
    r; the sampling set-up is shared by all radii."""
    areas = np.empty(radii.size)
    tols = np.empty(radii.size)
    if field.is_profile:
        curve: ProfileCurve = field.source
        mid = lambda a: 0.5 * (a[:-1] + a[1:])
        xm, zm = mid(curve.x), mid(curve.z)
        ds = curve.step
        qr = float(np.hypot(q[0], q[1]))
        dz2 = (zm - q[2]) ** 2
        d2 = (xm - q[0]) ** 2 + dz2
        # an axis start is an interior pole, not a patch boundary
        start_is_boundary = curve.x[0] > AXIS_TOL
        for k, r in enumerate(radii):
            if curve.kind == ROTATIONAL:
                if qr < 1e-12:
                    inside = xm**2 + dz2 < r**2
                    frac = inside.astype(float)
                else:
                    # ring point distance: |P-q|^2 = x^2 + qr^2 + dz^2 - 2 x qr cos(v)
                    cos_v = (xm**2 + qr**2 + dz2 - r**2) / (2.0 * xm * qr)
                    frac = np.arccos(np.clip(cos_v, -1.0, 1.0)) / np.pi
                contrib = 2.0 * np.pi * xm * ds * frac
                if (frac[0] > 0.0 and start_is_boundary) or frac[-1] > 0.0:
                    raise PatchExceededError("ball reaches the profile ends")
            else:
                chord = 2.0 * np.sqrt(np.maximum(r**2 - d2, 0.0))
                if chord[0] > 0.0 or chord[-1] > 0.0:
                    raise PatchExceededError("ball reaches the profile ends")
                contrib = chord * ds
            areas[k] = contrib.sum()
            tols[k] = 2.0 * np.pi * r * ds  # boundary length times spacing
        return areas, tols

    pos, h = _graph_lattice(field)
    cell_areas = _cell_areas(pos)
    # 4x4 subsample of each cell for the clipping fraction
    sub = np.linspace(1.0 / 8.0, 7.0 / 8.0, 4)
    fracs = np.zeros((radii.size,) + cell_areas.shape)
    for sx in sub:
        for sy in sub:
            pt = ((1 - sx) * (1 - sy) * pos[:-1, :-1] + sx * (1 - sy) * pos[1:, :-1]
                  + (1 - sx) * sy * pos[:-1, 1:] + sx * sy * pos[1:, 1:])
            dist = np.linalg.norm(pt - q, axis=-1)
            for frac, r in zip(fracs, radii):
                frac += (dist < r)
    edge = np.zeros(cell_areas.shape, dtype=bool)
    edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
    for k, (frac, r) in enumerate(zip(fracs, radii)):
        frac /= 16.0
        if np.any((frac > 0) & edge):
            raise PatchExceededError("ball reaches the patch boundary")
        boundary_cells = (frac > 0) & (frac < 1)
        areas[k] = np.sum(cell_areas * frac)
        tols[k] = np.sum(cell_areas[boundary_cells]) / 16.0 + 2.0 * r * h
    return areas, tols


# ---------------------------------------------------------------------------
# curvature ratio and convexity


def curvature_ratio_sup(field: GeometryField, spec: PotentialSpec) -> float:
    """sup over samples of |S| / phi'(mu); requires phi' > 0 on the heights."""
    d1 = field.potential(spec).d1
    if np.any(d1 <= 0.0):
        raise ValueError("curvature ratio needs phi' > 0 on sampled heights")
    s_norm = np.sqrt(np.maximum(field.norm_s2(), 0.0))
    return float(np.max(s_norm / d1))


def convexity_report(field: GeometryField, spec: PotentialSpec,
                     tol: float) -> ConvexityReport:
    """Convexity audit: min K with hypothesis gates and the sup k2/eta
    diagnostic (k2 = larger principal curvature).

    Verdict semantics: when the weight hypotheses hold and the surface is
    mean convex, min K >= -tol is ConvexWithinTol; a failing gate yields
    HypothesesFail and the values are reported without assertion.
    """
    from .potential import check_conditions

    z_lo = max(float(field.mu.min()), spec.domain_left + 1e-9)
    z_hi = float(field.mu.max())
    if z_hi <= z_lo:
        z_hi = z_lo + 1.0
    cond = check_conditions(spec, z_lo, z_hi, 101)
    mean_convex = bool(np.max(field.H) <= tol)
    hypotheses = {
        "c1": cond.c1_holds,
        "cc3": cond.cc3_holds,
        "d3_nonpositive": cond.d3_nonpositive,
        "mean_convex": mean_convex,
    }
    k_hi = np.maximum(field.k1, field.k2)
    min_K = float(field.K.min())
    min_k2 = float(k_hi.min())
    pos_eta = field.eta > 1e-10
    ratio = np.divide(k_hi, field.eta, out=np.full(field.n_samples, np.nan),
                      where=pos_eta)
    theta_sup = float(np.max(ratio[pos_eta])) if np.any(pos_eta) else float("-inf")
    lambda_K_inf = float(cond.lam * min_K)
    if not all(hypotheses.values()):
        verdict = "HypothesesFail"
    elif min_K >= -tol:
        verdict = "ConvexWithinTol"
    else:
        verdict = "NotConvex"
    return ConvexityReport(min_K=min_K, min_k2=min_k2, theta_sup=theta_sup,
                           lambda_K_inf=lambda_K_inf, hypotheses=hypotheses,
                           verdict=verdict, k2_over_eta=ratio)


# ---------------------------------------------------------------------------
# conformal curvature-times-distance report


def ilmanen_estimate_report(field: GeometryField, spec: PotentialSpec,
                            boundary) -> IlmanenEstimateReport:
    """Report-only sup of |S^phi| min(d_phi(p, boundary), R), with the
    reach R from the sampled conformal curvature of the ambient space.

    d_phi uses conformal edge lengths e^(phi/2) x Euclidean; on profiles
    the meridian chain distance is used (an upper bound, adequate for a
    report-only sup).
    """
    boundary = np.asarray(sorted(set(int(b) for b in boundary)), dtype=np.int64)
    if boundary.size == 0:
        raise ValueError("boundary sample set is empty")
    ev = field.potential(spec)
    k1c, k2c = conformal_curvatures(ev, np.stack([field.k1, field.k2]), field.eta)
    s_conf = np.sqrt(k1c**2 + k2c**2)

    conf = np.exp(ev.phi / 2.0)
    if field.is_profile:
        curve: ProfileCurve = field.source
        edge = 0.5 * (conf[:-1] + conf[1:]) * curve.step
        cum = np.concatenate([[0.0], np.cumsum(edge)])
        d_phi = np.min(np.abs(cum[:, None] - cum[None, boundary]), axis=1)
    else:
        patch: GraphPatch = field.source
        pos = field.positions.reshape(patch.nx, patch.ny, 3)
        d_phi = _lattice_distances(pos, boundary,
                                   conformal_weight=conf.reshape(patch.nx, patch.ny))
        d_phi = d_phi.ravel()

    heights = np.linspace(float(field.mu.min()), float(field.mu.max()), 65)
    k_h, k_v, g_h, g_v = ambient_curvatures(spec, heights)
    sup_k = float(np.abs([k_h, k_v]).max())
    sup_grad = float(np.abs([g_h, g_v]).max())
    reach = 1.0 / (sup_k + np.sqrt(sup_grad)) if (sup_k + np.sqrt(sup_grad)) > 0 else np.inf
    return IlmanenEstimateReport(
        sup_curvature_times_reach=float(np.max(s_conf * np.minimum(d_phi, reach))),
        sup_conformal_curvature=float(s_conf.max()),
    )


# ---------------------------------------------------------------------------
# rescaling and blow-up comparison


def rescale_profile(curve: ProfileCurve, lam: float) -> ProfileCurve:
    """The profile of lambda (Sigma - p) about the first sample p of the curve.

    A rotational curve must start on the axis, so the result is again a
    profile; curvature fields of the resulting surface are exactly
    1/lambda times the originals at matched samples.
    """
    if lam <= 0.0:
        raise ValueError("scale must be positive")
    if curve.kind == ROTATIONAL:
        if not (curve.x[0] < AXIS_TOL):
            raise ValueError("rotational rescaling needs an axis basepoint")
        x_new = lam * curve.x
    else:
        x_new = lam * (curve.x - curve.x[0])
    return ProfileCurve(
        s=lam * (curve.s - curve.s[0]),
        x=x_new,
        z=lam * (curve.z - curve.z[0]),
        theta=curve.theta.copy(),
        kind=curve.kind,
        step=lam * curve.step,
    )


def _window_samples(curve: ProfileCurve, field: GeometryField, p: int,
                    lam: float, window: float):
    """Rescaled surface samples of lambda (Sigma - p) inside the window ball.

    Each profile sample in reach contributes a 65-point ring (rotational)
    or ruling segment (translation); the charts of _WINDOW_BLOCK samples
    are built and clipped at once.
    """
    s_half = 1.5 * window / lam
    sel = np.abs(curve.s - curve.s[p]) <= s_half
    if curve.s[p] + s_half > curve.s[-1] or curve.s[p] - s_half < curve.s[0]:
        if not (curve.kind == ROTATIONAL and curve.s[p] - s_half < curve.s[0]
                and curve.x[0] < AXIS_TOL):
            raise WindowUnderflowError("window exceeds the sampled profile")
    idx = np.where(sel)[0]
    base = field.positions[p]
    if curve.kind == ROTATIONAL:
        x_p = curve.x[p]
        if x_p > AXIS_TOL:
            v_half = min(np.pi, 1.5 * window / (lam * max(x_p - s_half, 1e-6)))
        else:
            v_half = np.pi
        vs = np.linspace(-v_half, v_half, 65)
        chart = lambda x, z: (x * np.cos(vs), x * np.sin(vs), z)
    else:
        y_half = 1.5 * window / lam
        ys = np.linspace(-y_half, y_half, 65)
        chart = lambda x, z: (x, ys, z)
    pts, n_keep = [], []
    for start in range(0, idx.size, _WINDOW_BLOCK):
        i = idx[start:start + _WINDOW_BLOCK, None]
        block = np.stack(np.broadcast_arrays(*chart(curve.x[i], curve.z[i])), axis=-1)
        q = lam * (block - base)
        keep = np.linalg.norm(q, axis=-1) <= window
        pts.append(q[keep])
        n_keep.append(keep.sum(axis=1))
    pts = np.concatenate(pts)
    if pts.shape[0] < 16 or np.linalg.norm(pts, axis=1).max() < 0.8 * window:
        raise WindowUnderflowError("rescaled samples do not fill the window")
    n_keep = np.concatenate(n_keep)
    return (pts, np.repeat(field.eta[idx], n_keep),
            np.repeat(field.H[idx] / lam, n_keep))


def _plane_distance(pts, etas, Hs, normals_eta_sign):
    centred = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centred, full_matrices=False)
    n_hat = vt[-1]
    if n_hat[2] * normals_eta_sign < 0:
        n_hat = -n_hat
    hausdorff = float(np.abs(centred @ n_hat).max())
    eta_plane = n_hat[2]
    c2 = float(max(np.abs(etas - eta_plane).max(), np.abs(Hs).max()))
    return hausdorff, c2


def _model_profile(model: str, c_slope: float, s_max: float, step: float):
    spec = PotentialSpec.linear(c_slope)
    cfg = ShootingConfig(
        start=AxisRegular(0.0) if model == "Bowl" else PointStart(0.0, 0.0, 0.0),
        s_max=s_max, step=step)
    if model == "Bowl":
        return spec, solve_rotational_profile(spec, cfg)
    return spec, solve_translation_profile(spec, cfg)


def _profile_model_distance(pts, etas, Hs, model: str, c_slope: float,
                            window: float):
    """Compare rescaled window samples to a soliton profile through 0."""
    step = min(2e-3, window / 200.0)
    spec, res = _model_profile(model, max(c_slope, 1e-8), 2.5 * window, step)
    curve: ProfileCurve = res.surface
    mfield = res.field
    if model == "Bowl":
        r_samp = np.hypot(pts[:, 0], pts[:, 1])
    else:
        r_samp = np.abs(pts[:, 0])
    z_model = np.interp(r_samp, curve.x, curve.z)
    eta_model = np.interp(r_samp, curve.x, mfield.eta)
    h_model = np.interp(r_samp, curve.x, mfield.H)
    hausdorff = float(np.abs(pts[:, 2] - z_model).max())
    c2 = float(max(np.abs(etas - eta_model).max(), np.abs(Hs - h_model).max()))
    return hausdorff, c2


# the limit models a blow-up sequence is compared with
BLOWUP_MODELS = ("Plane", "GrimReaper", "Bowl")


def blowup_rescale(source, basepoints, scales, spec: PotentialSpec,
                   model: str) -> BlowupResult:
    """Rescale lambda_n (Sigma - p_n) and compare to a limit model on the
    unit ball.

    ``source`` is a profile SolveResult (or ProfileCurve), or a list of
    them (one per stage) for sequences built from separate solves;
    ``basepoints`` are sample indices.  Curvatures of the rescaled data
    are the stored fields scaled by 1/lambda_n, and the slope ratio
    phi'(mu(p_n)) / lambda_n is recorded per stage with its final value
    as the limit-constant estimate.
    """
    if model not in BLOWUP_MODELS:
        raise ValueError(f"unknown blow-up model {model!r}")
    scales = [float(s) for s in scales]
    basepoints = [int(p) for p in basepoints]
    if sorted(scales) != scales or any(s <= 0 for s in scales):
        raise ValueError("scales must be positive and increasing")
    if not isinstance(source, (list, tuple)):
        source = [source] * len(basepoints)
    if len(source) != len(basepoints) or len(scales) != len(basepoints):
        raise ValueError("need one source/basepoint per scale")

    stages = []
    ratio = float("nan")
    field = None
    for src, p, lam in zip(source, basepoints, scales):
        solved = isinstance(src, SolveResult)
        curve = src.surface if solved else src
        if not isinstance(curve, ProfileCurve):
            raise TypeError("blow-up comparison works on profile sources")
        if field is None or field.source is not curve:
            field = src.field if solved else sample_geometry(curve, spec)
        ratio = float(eval_potential(spec, field.mu[p]).d1 / lam)
        pts, etas, Hs = _window_samples(curve, field, p, lam, _WINDOW)
        if model == "Plane":
            sign = np.sign(field.eta[p]) if field.eta[p] != 0 else 1.0
            hd, c2 = _plane_distance(pts, etas, Hs, sign)
        else:
            hd, c2 = _profile_model_distance(pts, etas, Hs, model, ratio, _WINDOW)
        stages.append(BlowupStage(scale=lam, slope_ratio=ratio, hausdorff_distance=hd,
                                  c2_distance=c2, n_window_samples=len(pts)))
    return BlowupResult(model=model, stages=stages, slope_constant=ratio)


# ---------------------------------------------------------------------------
# drift maximum-principle test function


def omori_gamma_check(field: GeometryField, spec: PotentialSpec,
                      min_radius: float = 2.0):
    """Check |grad g| <= 2 and Lap^phi g <= 2A + 1 for g = 2 log |p|.

    A is sup mu phi'(mu) / |p|^2 over the qualifying samples; violations
    are reported as positive residual margins.  Samples with |p| below
    min_radius are ignored (the bound needs |p| >= 2).
    """
    r_amb = np.linalg.norm(field.positions, axis=1)
    margin = 2
    mask = field.interior_mask(margin) & (r_amb >= min_radius)
    if not np.any(mask):
        raise OriginProximityError("no samples far enough from the origin")

    p_normal = np.sum(field.positions * field.normal, axis=1)
    p_tan_sq = np.maximum(r_amb**2 - p_normal**2, 0.0)
    grad_gamma = 2.0 * np.sqrt(p_tan_sq) / r_amb**2
    res_grad = np.maximum(grad_gamma - 2.0, 0.0)

    gamma = 2.0 * np.log(r_amb)
    phi_mu = field.potential(spec).phi
    lap = drift_laplacian(field, gamma, phi_mu)
    if field.is_profile and field.source.kind == TRANSLATION:
        lap = lap + 2.0 / r_amb**2  # transverse part of the flat-chart Laplacian
    d1 = field.potential(spec).d1
    a_const = float(np.max(field.mu[mask] * d1[mask] / r_amb[mask] ** 2))
    res_lap = np.maximum(lap - (2.0 * a_const + 1.0), 0.0)

    rep_grad = _make_report("log_distance_gradient_bound", np.where(mask, res_grad, 0.0),
                            mask, field.grid_h, margin)
    rep_lap = _make_report("log_distance_drift_laplacian_bound",
                           np.where(mask, res_lap, 0.0), mask, field.grid_h, margin)
    return rep_grad, rep_lap
