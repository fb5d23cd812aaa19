// The repo benchmark runner:
//
//   repobench --workload fs_churn|kv_commit|ld_restart --seed N
//             --seconds S --trace 0|1 [--rounds N] [--corrupt KIND]
//
// Prints one JSON line: the end-to-end metrics (--trace 0) or the
// per-layer ledger (--trace 1), with the operations attempted and
// failed and whether every output matched the model. Exits 1 when any
// output or check disagreed with the model, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "repobench: %s\nusage: repobench --workload "
               "fs_churn|kv_commit|ld_restart --seed N --seconds S "
               "--trace 0|1 [--rounds N] [--corrupt KIND]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  repobench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--rounds") {
      args.rounds = std::atoi(value.c_str());
    } else if (flag == "--corrupt") {
      args.corrupt = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");

  repobench::Report report;
  std::string client;
  if (args.workload == "fs_churn") {
    client = "minixfs";
    repobench::RunFsChurn(args, report);
  } else if (args.workload == "kv_commit") {
    client = "btree";
    repobench::RunKvCommit(args, report);
  } else if (args.workload == "ld_restart") {
    client = "ld";
    repobench::RunLdRestart(args, report);
  } else {
    return Usage("unknown workload");
  }
  repobench::PrintResult(args, client, report);
  // An output that disagreed with the model, or a failed operation,
  // fails the run.
  return report.correct ? 0 : 1;
}
