// esdb_lint driver: walks a source root, runs every check, prints
// findings, exits nonzero when anything fired.
//
//   esdb_lint [--format=human|json] [--check=<name>[,<name>...]] <src-root>
//
// Checks: layer-dag raw-primitive lock-order failpoint-registry
//         guarded-member plan-node-sync single-coordinator
//         (default: all). single-coordinator keeps the executor entry
//         points inside cluster/query_coordinator.cc, the one query
//         path of the one cluster front-end (Esdb).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "linter.h"

namespace {

namespace fs = std::filesystem;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--format=human|json] [--check=name,...] "
               "<src-root>\n"
               "checks: layer-dag raw-primitive lock-order "
               "failpoint-registry guarded-member plan-node-sync "
               "single-coordinator\n"
               "  single-coordinator: only cluster/query_coordinator.cc "
               "calls the executor entry points (Esdb's one query "
               "path)\n",
               argv0);
  return 2;
}

std::vector<esdb_lint::SourceFile> LoadTree(const fs::path& root) {
  std::vector<esdb_lint::SourceFile> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string rel = fs::relative(entry.path(), root).generic_string();
    files.push_back({std::move(rel), buf.str()});
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "human";
  std::set<std::string> only;
  std::string root;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "human" && format != "json") return Usage(argv[0]);
    } else if (arg.rfind("--check=", 0) == 0) {
      std::string list = arg.substr(8);
      size_t pos = 0;
      while (pos <= list.size()) {
        const size_t comma = list.find(',', pos);
        const size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > pos) only.insert(list.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else if (root.empty()) {
      root = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (root.empty()) return Usage(argv[0]);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "esdb_lint: '%s' is not a directory\n", root.c_str());
    return 2;
  }

  const std::vector<esdb_lint::SourceFile> files = LoadTree(root);
  std::vector<esdb_lint::Finding> findings = esdb_lint::RunLint(files);
  if (!only.empty()) {
    std::vector<esdb_lint::Finding> kept;
    for (auto& f : findings) {
      if (only.count(f.check) != 0) kept.push_back(std::move(f));
    }
    findings = std::move(kept);
  }

  if (format == "json") {
    std::fputs(esdb_lint::ToJson(findings).c_str(), stdout);
  } else {
    std::fputs(esdb_lint::ToText(findings).c_str(), stdout);
    std::fprintf(stdout, "esdb_lint: %zu file(s), %zu finding(s)\n",
                 files.size(), findings.size());
  }
  return findings.empty() ? 0 : 1;
}
