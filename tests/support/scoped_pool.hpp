// Scoped pins of the global ThreadPool's layout and of FASTED_STEAL, for
// tests that run the same work under several topologies.

#pragma once

#include <cstdlib>
#include <string>

#include "common/parallel.hpp"
#include "common/topology.hpp"

namespace fasted::test_support {

// Rebuilds the global pool with a synthetic D-domain topology on entry and
// restores the environment-default pool on destruction, so later tests in
// the binary see the default layout again.
class ScopedTopology {
 public:
  explicit ScopedTopology(std::size_t domains, std::size_t threads = 4) {
    const Topology topo = Topology::synthetic(domains);
    ThreadPool::reset_global(threads, &topo);
  }
  ~ScopedTopology() { ThreadPool::reset_global(); }
};

// Scoped FASTED_STEAL pin (the executor reads it per join).
class ScopedSteal {
 public:
  explicit ScopedSteal(bool enabled) {
    const char* saved = std::getenv("FASTED_STEAL");
    saved_ = saved != nullptr ? saved : "";
    had_ = saved != nullptr;
    setenv("FASTED_STEAL", enabled ? "1" : "0", 1);
  }
  ~ScopedSteal() {
    if (had_) {
      setenv("FASTED_STEAL", saved_.c_str(), 1);
    } else {
      unsetenv("FASTED_STEAL");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

}  // namespace fasted::test_support
