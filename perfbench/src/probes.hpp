// Layer probes for the traced run: each replays the run's own inputs (its
// ledger, transactions and written keys) through one layer's public
// functions and times that layer alone.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fides/cluster.hpp"

namespace perfbench {

/// Runs every probe over `blocks`, the ledger a run committed on `cluster`
/// (whose servers must all be live). Writes one value per metric name into
/// `layer`; a probe whose replay disagrees with the run (a signature that
/// does not verify, a decode that does not round-trip) appends to
/// `failures`. `tmp_dir` holds the probe's round-log file.
void run_layer_probes(fides::Cluster& cluster, const std::vector<fides::ledger::Block>& blocks,
                      const std::string& tmp_dir, std::map<std::string, double>& layer,
                      std::vector<std::string>& failures);

}  // namespace perfbench
