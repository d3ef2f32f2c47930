// fp-repro fixtures for src/workload, where the demand sweep kernel lives:
// a libm transcendental is a finding there as in the other kernel layers,
// with sqrt as the control.
#include <cmath>

namespace fixture::workload {

double positive_libm_log(double x) {
  return std::log(x);  // finding: libm log in a kernel TU
}

double negative_sqrt(double x) {
  return std::sqrt(x);  // sqrt is IEEE-exact: allowed
}

}  // namespace fixture::workload
