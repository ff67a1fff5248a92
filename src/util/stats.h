// Small summary-statistics helpers shared by the variation analysis,
// interval recorder and tests.
#pragma once

#include <vector>

namespace nanocache::math {

double mean(const std::vector<double>& values);

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 values.
double sample_stddev(const std::vector<double>& values);

/// Percentile by nearest-rank on a copy of the data; `q` in [0, 1].
double percentile(std::vector<double> values, double q);

}  // namespace nanocache::math
