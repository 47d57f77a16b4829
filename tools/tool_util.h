// Helpers shared by the command-line front ends (cloudia_cli,
// cloudia_serve): graph-template snapping, solver-roster formatting, and
// common flag validation. Header-only; tool-level policy, not library code.
#ifndef CLOUDIA_TOOLS_TOOL_UTIL_H_
#define CLOUDIA_TOOLS_TOOL_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "deploy/solver_registry.h"
#include "graph/templates.h"

namespace cloudia::tools {

/// "cp, mip,local" -> {"cp", "mip", "local"}: splits on commas and trims
/// surrounding whitespace so quoted lists with spaces work. Empty -> empty.
inline std::vector<std::string> SplitCommaList(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    size_t lo = start, hi = comma;
    while (lo < hi && std::isspace(static_cast<unsigned char>(csv[lo]))) ++lo;
    while (hi > lo && std::isspace(static_cast<unsigned char>(csv[hi - 1]))) {
      --hi;
    }
    if (hi > lo) out.push_back(csv.substr(lo, hi - lo));
    start = comma + 1;
  }
  return out;
}

/// Builds the requested graph template with roughly `nodes` nodes; shapes
/// snap to the nearest template size (deepest 3-ary tree, 1:9 bipartite
/// split, nearest mesh factorization). Unknown names fall back to "mesh".
inline graph::CommGraph GraphByName(const std::string& name, int nodes) {
  if (name == "tree") {
    // Deepest 3-ary tree with at most `nodes` nodes.
    int levels = 1, count = 1, width = 3;
    while (count + width <= nodes) {
      count += width;
      width *= 3;
      ++levels;
    }
    return graph::AggregationTree(3, levels);
  }
  if (name == "bipartite") {
    int frontends = std::max(1, nodes / 10);
    return graph::Bipartite(frontends, std::max(1, nodes - frontends));
  }
  if (name == "ring") return graph::Ring(std::max(3, nodes));
  // mesh: nearest rows x cols factorization.
  int rows = 1;
  for (int r = 2; r * r <= nodes; ++r) {
    if (nodes % r == 0) rows = r;
  }
  return graph::Mesh2D(rows, nodes / rows);
}

/// Every registered solver name, sorted, joined with `separator` -- so usage
/// text and error hints list solvers registered at startup automatically.
inline std::string KnownSolverNames(const char* separator) {
  std::string out;
  for (const std::string& name : deploy::SolverRegistry::Global().Names()) {
    if (!out.empty()) out += separator;
    out += name;
  }
  return out;
}

/// --threads must be a non-negative count (0 = hardware concurrency).
/// Returns false after printing a usage-style error to stderr.
inline bool ValidateThreads(int64_t threads) {
  if (threads >= 0) return true;
  std::fprintf(stderr,
               "--threads=%lld: thread count cannot be negative "
               "(use 0 for hardware concurrency)\n",
               static_cast<long long>(threads));
  return false;
}

/// Fails when the command line holds a flag that nothing has read. Call it
/// after the mode has read every flag it knows, so a typo is a usage error
/// instead of a silently ignored knob. Returns false after printing every
/// unknown flag to stderr.
inline bool RejectUnknownFlags(const Flags& flags) {
  const std::vector<std::string> unknown = flags.UnqueriedFlags();
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", name.c_str());
  }
  return unknown.empty();
}

}  // namespace cloudia::tools

#endif  // CLOUDIA_TOOLS_TOOL_UTIL_H_
