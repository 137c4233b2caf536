// MeasurementSet: the client-side record of noisy measurements taken
// during a plan, all mapped back onto the *original* data-vector domain
// (paper Sec. 5.5, "Defining inference under vector transformations").
//
// Because vector transformations and query operators are both linear, a
// measurement M' taken on a transformed vector x' = T x is recorded as the
// composed query M'T on x.  Inference then runs once, globally, on the
// stacked system — the consistent-use-of-inference discipline the paper
// shows is never worse (Thm. 5.3).
#ifndef EKTELO_OPS_MEASUREMENT_H_
#define EKTELO_OPS_MEASUREMENT_H_

#include <vector>

#include "matrix/linop.h"

namespace ektelo {

/// One batch of noisy answers: y ~ M x + Lap(noise_scale)^rows.
struct Measurement {
  LinOpPtr m;          // queries, expressed on the original domain
  Vec y;               // noisy answers, |y| == m->rows()
  double noise_scale;  // Laplace scale (0 for exact side information)
};

class MeasurementSet {
 public:
  void Add(LinOpPtr m, Vec y, double noise_scale);
  void Add(Measurement meas);

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  const std::vector<Measurement>& items() const { return items_; }

  /// Total number of scalar queries across all measurements.
  std::size_t TotalQueries() const;
  /// Original-domain size (cols of every member).
  std::size_t Domain() const;

  /// All queries stacked (unweighted), and the matching answer vector.
  LinOpPtr StackedOp() const;
  Vec StackedY() const;

  /// Precision-weighted stack: rows scaled by 1/noise_scale so that every
  /// row of the weighted system has unit noise variance (the "scaled query
  /// matrix" of Definition 5.2).  Exact rows (scale 0) get a large finite
  /// weight relative to the noisiest measurement.
  LinOpPtr WeightedOp() const;
  Vec WeightedY() const;

  /// The row weight WeightedOp/WeightedY give a measurement taken at
  /// `noise_scale` (1 / noise_scale; a large finite weight for exact
  /// side information).
  double WeightFor(double noise_scale) const;

 private:
  std::vector<Measurement> items_;
};

}  // namespace ektelo

#endif  // EKTELO_OPS_MEASUREMENT_H_
