#ifndef FRECHET_MOTIF_GEO_GREAT_CIRCLE_H_
#define FRECHET_MOTIF_GEO_GREAT_CIRCLE_H_

#include <cstddef>

#include "geo/point.h"

namespace frechet_motif {

/// Mean Earth radius in meters, the `R` of the paper's ground distance
/// formula (Section 3; haversine formulation after Sinnott [21]).
inline constexpr double kEarthRadiusMeters = 6371008.8;

/// 3D unit vector on the sphere for a latitude/longitude point. Exposed so
/// that on-the-fly distances can cache one vector per trajectory point and
/// evaluate great-circle distances with no per-call trigonometry beyond a
/// single asin — while remaining bit-identical to the uncached path.
struct SphereVec {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

/// Converts a lat/lon point (degrees) to its unit vector.
SphereVec ToSphereVec(const Point& p);

/// Great-circle distance from two precomputed unit vectors:
///   d = 2R asin(chord / 2),  chord = |ua - ub|.
/// Algebraically equal to the haversine formula of the paper's Section 3
/// and numerically stable for small separations.
double SphereVecDistanceMeters(const SphereVec& a, const SphereVec& b);

/// Batch form over a contiguous span: out[k] = SphereVecDistanceMeters(p,
/// others[k]) for k in [0, count). Per-element results are bit-identical
/// to the one-pair call; the batch exists so hot append paths (the
/// streaming window's ring fills, DistanceMatrix::Build) pay one call per
/// row instead of one indirect call per cell.
void SphereVecDistanceBatch(const SphereVec& p, const SphereVec* others,
                            std::size_t count, double* out);

/// Great-circle distance in meters between two latitude/longitude points
/// (degrees). Exactly ToSphereVec + SphereVecDistanceMeters, so cached and
/// uncached evaluations agree bit-for-bit.
double GreatCircleDistanceMeters(const Point& a, const Point& b);

/// Converts degrees to radians.
double DegToRad(double degrees);

/// Approximate local planar projection: returns the (east, north) offset in
/// meters of `p` relative to `origin` using an equirectangular projection.
/// Accurate to well under 0.1% for the kilometer-scale extents of the
/// synthetic datasets; used by generators to convert meter-space walks into
/// lat/lon trajectories.
Point MetersFromOrigin(const Point& origin, const Point& p);

/// Inverse of MetersFromOrigin: displaces `origin` by (east_m, north_m)
/// meters and returns the resulting lat/lon point.
Point OffsetByMeters(const Point& origin, double east_m, double north_m);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_GEO_GREAT_CIRCLE_H_
