// The benchmark's workloads. Each runs set-up, its timed rounds and its
// restarts, checking every output against its own model, and fills the
// report.
#pragma once

#include "common.h"

namespace repobench {

void RunFsChurn(const Args& args, Report& r);
void RunKvCommit(const Args& args, Report& r);
void RunLdRestart(const Args& args, Report& r);

}  // namespace repobench
