// tca_lint CLI.
//
//   tca_lint --root .                     lint the whole project
//   tca_lint file.cpp [file2.cpp ...]     lint explicit files (all rules)
//   tca_lint --sarif out.sarif            also write SARIF 2.1.0 for code
//                                         scanning upload
//   tca_lint --list-rules                 print the rule catalogue
//
// Exit codes: 0 clean, 1 findings, 2 usage error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "tca_lint/lint.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: tca_lint [--root DIR] [--sarif FILE] [--list-rules] "
               "[files...]\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Minimal SARIF 2.1.0: one run, the rule catalogue, one result per
/// finding. Enough for GitHub code scanning to annotate PR diffs.
bool write_sarif(const std::string& path,
                 const std::vector<tca::lint::Finding>& findings) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [{\n"
      << "    \"tool\": {\"driver\": {\"name\": \"tca_lint\", "
         "\"rules\": [";
  bool first = true;
  for (const std::string& r : tca::lint::rule_ids()) {
    if (!first) out << ", ";
    first = false;
    out << "{\"id\": \"" << json_escape(r) << "\"}";
  }
  out << "]}},\n"
      << "    \"results\": [";
  first = true;
  for (const auto& f : findings) {
    if (!first) out << ",";
    first = false;
    out << "\n      {\"ruleId\": \"" << json_escape(f.rule)
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << json_escape(f.message)
        << "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \""
        << json_escape(f.file) << "\"}, \"region\": {\"startLine\": "
        << (f.line > 0 ? f.line : 1) << "}}}]}";
  }
  out << "\n    ]\n  }]\n}\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  tca::lint::Options opts;
  std::string sarif_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (++i >= argc) return usage();
      opts.root = argv[i];
    } else if (arg == "--sarif") {
      if (++i >= argc) return usage();
      sarif_path = argv[i];
    } else if (arg == "--list-rules") {
      for (const std::string& r : tca::lint::rule_ids()) {
        std::printf("%s\n", r.c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      opts.files.push_back(arg);
    }
  }
  if (opts.root.empty() && opts.files.empty()) return usage();

  const std::vector<tca::lint::Finding> findings = tca::lint::run_lint(opts);
  for (const auto& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  std::fprintf(stderr, "tca_lint: %zu finding(s)\n", findings.size());
  if (!sarif_path.empty() && !write_sarif(sarif_path, findings)) {
    std::fprintf(stderr, "tca_lint: cannot write SARIF to %s\n",
                 sarif_path.c_str());
    return 2;
  }
  return findings.empty() ? 0 : 1;
}
