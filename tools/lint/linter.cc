#include "linter.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace esdb_lint {

namespace {

// --- small string helpers --------------------------------------------

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Finds `token` in `line` at an identifier boundary on both sides
// (so "std::mutex" does not match inside "std::mutex_like"). Returns
// std::string::npos when absent.
size_t FindToken(const std::string& line, const std::string& token,
                 size_t from = 0) {
  size_t pos = line.find(token, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) return pos;
    pos = line.find(token, pos + 1);
  }
  return std::string::npos;
}

std::string FirstPathSegment(const std::string& path) {
  const size_t slash = path.find('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

// --- the include-layer DAG -------------------------------------------

const std::map<std::string, int>& LayerRanks() {
  static const std::map<std::string, int>* ranks =
      new std::map<std::string, int>{
          {"common", 0},      {"document", 1},  {"storage", 1},
          {"query", 2},       {"routing", 2},   {"replication", 3},
          {"consensus", 3},   {"workload", 3},  {"balancer", 4},
          {"cluster", 4},     {"sim", 4},
      };
  return *ranks;
}

// --- lightweight scope tracking --------------------------------------

// Walks stripped source and reports, for every line, the innermost
// enclosing class/struct name and the brace depth relative to that
// class's body. Token-level: good enough for this codebase's google
// style; not a C++ parser.
struct ClassScope {
  std::string name;
  int open_depth;  // depth just inside the class's '{'
};

class ScopeWalker {
 public:
  explicit ScopeWalker(const std::string& stripped)
      : lines_(SplitLines(stripped)) {}

  // Runs `fn(line_index, line, enclosing_class_or_empty, at_member_depth)`
  // for every line. `at_member_depth` is true when the line starts at
  // the direct member level of the innermost class.
  template <typename Fn>
  void ForEachLine(const Fn& fn) {
    int depth = 0;
    std::vector<ClassScope> stack;
    std::string pending_class;  // saw "class X" but not its '{' yet
    for (size_t i = 0; i < lines_.size(); ++i) {
      const std::string& line = lines_[i];
      const std::string enclosing = stack.empty() ? "" : stack.back().name;
      const bool member_depth =
          !stack.empty() && depth == stack.back().open_depth;
      fn(i, line, enclosing, member_depth);

      // Update the scope state with this line's tokens.
      for (size_t j = 0; j < line.size(); ++j) {
        const char c = line[j];
        if (IsIdentChar(c)) {
          size_t k = j;
          while (k < line.size() && IsIdentChar(line[k])) ++k;
          const std::string word = line.substr(j, k - j);
          if ((word == "class" || word == "struct") &&
              (j == 0 || !IsIdentChar(line[j - 1]))) {
            // Next identifier (skipping attribute brackets) is the
            // candidate name; "struct {" anonymous stays pending-less.
            size_t n = k;
            std::string name;
            while (n < line.size()) {
              if (line.compare(n, 2, "[[") == 0) {
                const size_t close = line.find("]]", n);
                if (close == std::string::npos) break;
                n = close + 2;
                continue;
              }
              if (IsIdentChar(line[n])) {
                size_t e = n;
                while (e < line.size() && IsIdentChar(line[e])) ++e;
                name = line.substr(n, e - n);
                break;
              }
              if (line[n] == '{' || line[n] == ';' || line[n] == ':') break;
              ++n;
            }
            if (!name.empty()) pending_class = name;
          }
          j = k - 1;
          continue;
        }
        if (c == ';' && depth == 0) pending_class.clear();
        if (c == ';' && !stack.empty() && depth == stack.back().open_depth) {
          // A forward declaration "class X;" at member level.
          if (pending_class == "X") pending_class.clear();
        }
        if (c == '{') {
          ++depth;
          if (!pending_class.empty()) {
            stack.push_back(ClassScope{pending_class, depth});
            pending_class.clear();
          }
        } else if (c == '}') {
          if (!stack.empty() && depth == stack.back().open_depth) {
            stack.pop_back();
          }
          --depth;
        }
      }
    }
  }

 private:
  std::vector<std::string> lines_;
};

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.check < b.check;
            });
}

std::string JsonEscape(const std::string& s) {
  std::string out;
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// --- comment/string stripping ----------------------------------------

std::string StripComments(const std::string& contents, bool strip_strings) {
  std::string out;
  out.reserve(contents.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < contents.size(); ++i) {
    const char c = contents[i];
    const char next = i + 1 < contents.size() ? contents[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          // Raw string literals: skip to the matching delimiter so an
          // embedded "*/ or \" cannot derail the state machine.
          if (i > 0 && contents[i - 1] == 'R') {
            size_t d = i + 1;
            while (d < contents.size() && contents[d] != '(') ++d;
            const std::string delim =
                ")" + contents.substr(i + 1, d - i - 1) + "\"";
            const size_t close = contents.find(delim, d);
            const size_t end = close == std::string::npos
                                   ? contents.size()
                                   : close + delim.size();
            for (size_t k = i; k < end; ++k) {
              out += contents[k] == '\n' ? '\n'
                                         : (strip_strings ? ' ' : contents[k]);
            }
            i = end - 1;
          } else {
            state = State::kString;
            out += '"';
          }
        } else if (c == '\'') {
          state = State::kChar;
          out += '\'';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += strip_strings ? "  " : contents.substr(i, 2);
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out += '"';
        } else {
          out += strip_strings ? (c == '\n' ? '\n' : ' ') : c;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += strip_strings ? "  " : contents.substr(i, 2);
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out += '\'';
        } else {
          out += strip_strings ? ' ' : c;
        }
        break;
    }
  }
  return out;
}

// --- check: layer-dag ------------------------------------------------

std::vector<Finding> CheckLayerDag(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  const auto& ranks = LayerRanks();
  for (const SourceFile& file : files) {
    const std::string dir = FirstPathSegment(file.path);
    const auto self = ranks.find(dir);
    if (self == ranks.end()) {
      findings.push_back(
          {"layer-dag", file.path, 0,
           "directory '" + dir +
               "' has no layer assignment; add it to the layer table in "
               "tools/lint/linter.cc"});
      continue;
    }
    const std::vector<std::string> lines =
        SplitLines(StripComments(file.contents, /*strip_strings=*/false));
    for (size_t i = 0; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      const size_t inc = line.find("#include \"");
      if (inc == std::string::npos) continue;
      const size_t start = inc + 10;
      const size_t end = line.find('"', start);
      if (end == std::string::npos) continue;
      const std::string target = line.substr(start, end - start);
      const std::string target_dir = FirstPathSegment(target);
      if (target_dir.empty()) continue;  // same-directory include
      const auto it = ranks.find(target_dir);
      if (it == ranks.end()) continue;  // not a layer include
      if (it->second > self->second) {
        findings.push_back(
            {"layer-dag", file.path, int(i + 1),
             "upward include: '" + dir + "' (layer " +
                 std::to_string(self->second) + ") must not include '" +
                 target + "' (layer " + std::to_string(it->second) + ")"});
      }
    }
  }
  return findings;
}

// --- check: raw-primitive --------------------------------------------

std::vector<Finding> CheckRawPrimitives(const std::vector<SourceFile>& files) {
  struct Rule {
    const char* token;
    bool is_include;  // match "#include <token>" instead of an identifier
    const char* allowed;
    const char* wrapper;
  };
  static const Rule kRules[] = {
      {"std::mutex", false, "common/mutex.h", "esdb::Mutex"},
      {"std::shared_mutex", false, "common/mutex.h", "esdb::SharedMutex"},
      {"std::lock_guard", false, "common/mutex.h", "esdb::MutexLock"},
      {"std::unique_lock", false, "common/mutex.h", "esdb::MutexLock"},
      {"std::scoped_lock", false, "common/mutex.h", "esdb::MutexLock"},
      {"std::condition_variable", false, "common/mutex.h", "esdb::CondVar"},
      {"std::condition_variable_any", false, "common/mutex.h",
       "esdb::CondVar"},
      {"mutex", true, "common/mutex.h", "common/mutex.h"},
      {"shared_mutex", true, "common/mutex.h", "common/mutex.h"},
      {"condition_variable", true, "common/mutex.h", "common/mutex.h"},
      {"std::thread", false, "common/thread_pool.h", "esdb::ThreadPool"},
      {"std::jthread", false, "common/thread_pool.h", "esdb::ThreadPool"},
      {"thread", true, "common/thread_pool.h", "common/thread_pool.h"},
  };
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    const std::vector<std::string> lines =
        SplitLines(StripComments(file.contents, /*strip_strings=*/true));
    for (size_t i = 0; i < lines.size(); ++i) {
      for (const Rule& rule : kRules) {
        if (file.path == rule.allowed) continue;
        bool hit;
        if (rule.is_include) {
          hit = lines[i].find("#include <" + std::string(rule.token) + ">") !=
                std::string::npos;
        } else {
          hit = FindToken(lines[i], rule.token) != std::string::npos;
        }
        if (hit) {
          findings.push_back(
              {"raw-primitive", file.path, int(i + 1),
               std::string(rule.is_include ? "#include <" : "") + rule.token +
                   (rule.is_include ? ">" : "") + " is banned outside " +
                   rule.allowed + "; use " + rule.wrapper});
        }
      }
    }
  }
  return findings;
}

// --- check: lock-order -----------------------------------------------

namespace {

struct LockEdge {
  std::string from;  // acquired earlier
  std::string to;    // acquired later
  std::string file;
  int line;
};

// Extracts the member name declared on `line` immediately before
// `macro_pos` ("Mutex epoch_mu_ ACQUIRED_AFTER(...)" -> "epoch_mu_").
std::string MemberBefore(const std::string& line, size_t macro_pos) {
  size_t end = macro_pos;
  while (end > 0 &&
         std::isspace(static_cast<unsigned char>(line[end - 1]))) {
    --end;
  }
  size_t start = end;
  while (start > 0 && IsIdentChar(line[start - 1])) --start;
  return line.substr(start, end - start);
}

std::vector<std::string> SplitArgs(const std::string& args) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : args) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

std::vector<Finding> CheckLockOrder(const std::vector<SourceFile>& files) {
  std::vector<LockEdge> edges;
  for (const SourceFile& file : files) {
    if (file.path == "common/mutex.h") continue;  // the macro definitions
    const std::string stripped =
        StripComments(file.contents, /*strip_strings=*/true);
    ScopeWalker walker(stripped);
    walker.ForEachLine([&](size_t i, const std::string& line,
                           const std::string& enclosing, bool /*member*/) {
      // Preprocessor lines (the macro definitions) are not
      // annotations.
      const size_t first = line.find_first_not_of(" \t");
      if (first != std::string::npos && line[first] == '#') return;
      // The annotated member is the identifier before the EARLIEST
      // annotation on the line; later annotations on the same line
      // attach to the same declaration.
      size_t earliest = std::string::npos;
      for (const char* macro : {"ACQUIRED_AFTER", "ACQUIRED_BEFORE"}) {
        const size_t pos = FindToken(line, macro);
        if (pos < earliest) earliest = pos;
      }
      if (earliest == std::string::npos) return;
      const std::string member = MemberBefore(line, earliest);
      if (member.empty()) return;
      const std::string scope = enclosing.empty() ? "<global>" : enclosing;
      const std::string self = scope + "::" + member;
      for (const char* macro : {"ACQUIRED_AFTER", "ACQUIRED_BEFORE"}) {
        size_t pos = FindToken(line, macro);
        while (pos != std::string::npos) {
          const size_t open = line.find('(', pos);
          const size_t close =
              open == std::string::npos ? open : line.find(')', open);
          if (close == std::string::npos) break;
          for (const std::string& arg :
               SplitArgs(line.substr(open + 1, close - open - 1))) {
            const std::string other = scope + "::" + arg;
            if (std::string(macro) == "ACQUIRED_AFTER") {
              edges.push_back({other, self, file.path, int(i + 1)});
            } else {
              edges.push_back({self, other, file.path, int(i + 1)});
            }
          }
          pos = FindToken(line, macro, close);
        }
      }
    });
  }

  // Cycle detection over the global graph (DFS, three colors).
  std::map<std::string, std::vector<size_t>> adjacency;
  for (size_t e = 0; e < edges.size(); ++e) {
    adjacency[edges[e].from].push_back(e);
  }
  std::vector<Finding> findings;
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> path;
  std::set<std::string> reported;

  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    path.push_back(node);
    for (size_t e : adjacency[node]) {
      const LockEdge& edge = edges[e];
      const int c = color[edge.to];
      if (c == 1) {
        // Found a cycle: the path suffix from edge.to around to node.
        std::string cycle;
        bool in_cycle = false;
        for (const std::string& n : path) {
          if (n == edge.to) in_cycle = true;
          if (in_cycle) cycle += n + " -> ";
        }
        cycle += edge.to;
        if (reported.insert(cycle).second) {
          findings.push_back({"lock-order", edge.file, edge.line,
                              "lock-order cycle: " + cycle});
        }
      } else if (c == 0) {
        dfs(edge.to);
      }
    }
    path.pop_back();
    color[node] = 2;
  };
  for (const auto& [node, _] : adjacency) {
    if (color[node] == 0) dfs(node);
  }
  return findings;
}

// --- check: failpoint-registry ---------------------------------------

std::vector<Finding> CheckFailPointRegistry(
    const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  const SourceFile* header = nullptr;
  const SourceFile* impl = nullptr;
  for (const SourceFile& file : files) {
    if (file.path == "common/failpoint.h") header = &file;
    if (file.path == "common/failpoint.cc") impl = &file;
  }

  // Declared constants: failsite::kName -> "site/name".
  std::map<std::string, std::string> declared;
  if (header != nullptr) {
    const std::string stripped =
        StripComments(header->contents, /*strip_strings=*/false);
    size_t pos = 0;
    while ((pos = stripped.find("constexpr const char*", pos)) !=
           std::string::npos) {
      size_t p = pos + 21;
      while (p < stripped.size() &&
             std::isspace(static_cast<unsigned char>(stripped[p]))) {
        ++p;
      }
      size_t e = p;
      while (e < stripped.size() && IsIdentChar(stripped[e])) ++e;
      const std::string name = stripped.substr(p, e - p);
      const size_t q1 = stripped.find('"', e);
      const size_t semi = stripped.find(';', e);
      if (!name.empty() && q1 != std::string::npos && semi != std::string::npos &&
          q1 < semi) {
        const size_t q2 = stripped.find('"', q1 + 1);
        if (q2 != std::string::npos) {
          declared[name] = stripped.substr(q1 + 1, q2 - q1 - 1);
        }
      }
      pos = e;
    }
  }

  // Registered constants: the body of AllSites() in failpoint.cc.
  std::set<std::string> registered;
  int allsites_line = 0;
  if (impl != nullptr) {
    const std::string stripped =
        StripComments(impl->contents, /*strip_strings=*/true);
    const size_t def = stripped.find("AllSites()");
    if (def != std::string::npos) {
      allsites_line =
          int(std::count(stripped.begin(), stripped.begin() + def, '\n')) + 1;
      const size_t open = stripped.find('{', def);
      size_t close = open;
      int depth = 0;
      for (size_t i = open; i < stripped.size(); ++i) {
        if (stripped[i] == '{') ++depth;
        if (stripped[i] == '}' && --depth == 0) {
          close = i;
          break;
        }
      }
      const std::string body = stripped.substr(open, close - open);
      size_t pos = 0;
      while ((pos = body.find("failsite::", pos)) != std::string::npos) {
        size_t e = pos + 10;
        while (e < body.size() && IsIdentChar(body[e])) ++e;
        registered.insert(body.substr(pos + 10, e - pos - 10));
        pos = e;
      }
    }
  }

  // Code sites: every ESDB_FAIL_POINT(...) outside the registry pair.
  std::map<std::string, int> used;  // constant -> first-use count
  for (const SourceFile& file : files) {
    if (file.path == "common/failpoint.h") continue;
    const std::vector<std::string> lines =
        SplitLines(StripComments(file.contents, /*strip_strings=*/false));
    for (size_t i = 0; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      // Preprocessor lines (#define ESDB_FAIL_POINT..., #if...) are
      // the macro machinery, not call sites.
      const size_t first = line.find_first_not_of(" \t");
      if (first != std::string::npos && line[first] == '#') continue;
      size_t pos = 0;
      while ((pos = line.find("ESDB_FAIL_POINT", pos)) != std::string::npos) {
        const size_t open = line.find('(', pos);
        if (open == std::string::npos) break;
        const size_t close = line.find(')', open);
        std::string arg = close == std::string::npos
                              ? line.substr(open + 1)
                              : line.substr(open + 1, close - open - 1);
        // Normalize whitespace and optional ::esdb:: qualification.
        std::string norm;
        for (char c : arg) {
          if (!std::isspace(static_cast<unsigned char>(c))) norm += c;
        }
        if (norm.rfind("::esdb::", 0) == 0) norm = norm.substr(8);
        if (norm.rfind("esdb::", 0) == 0) norm = norm.substr(6);
        if (norm.rfind("failsite::", 0) == 0) {
          const std::string constant = norm.substr(10);
          ++used[constant];
          if (declared.find(constant) == declared.end()) {
            findings.push_back({"failpoint-registry", file.path, int(i + 1),
                                "fail point 'failsite::" + constant +
                                    "' is not declared in common/failpoint.h"});
          } else if (registered.find(constant) == registered.end()) {
            findings.push_back(
                {"failpoint-registry", file.path, int(i + 1),
                 "fail point 'failsite::" + constant +
                     "' is missing from AllSites() in common/failpoint.cc"});
          }
        } else {
          findings.push_back(
              {"failpoint-registry", file.path, int(i + 1),
               "ESDB_FAIL_POINT argument '" + norm +
                   "' is not a failsite:: constant; ad-hoc site names "
                   "bypass the registry and the crash matrix"});
        }
        pos = open;
      }
    }
  }

  // Registry closure: declared <-> registered <-> used.
  for (const auto& [name, site] : declared) {
    if (registered.find(name) == registered.end()) {
      findings.push_back({"failpoint-registry", "common/failpoint.cc",
                          allsites_line,
                          "declared fail point 'failsite::" + name + "' (\"" +
                              site + "\") is missing from AllSites()"});
    }
    if (used.find(name) == used.end()) {
      findings.push_back({"failpoint-registry", "common/failpoint.h", 0,
                          "declared fail point 'failsite::" + name + "' (\"" +
                              site + "\") has no ESDB_FAIL_POINT site in the "
                              "tree; dead registry entries rot the crash "
                              "matrix"});
    }
  }
  for (const std::string& name : registered) {
    if (declared.find(name) == declared.end()) {
      findings.push_back({"failpoint-registry", "common/failpoint.cc",
                          allsites_line,
                          "AllSites() lists 'failsite::" + name +
                              "' which is not declared in common/failpoint.h"});
    }
  }
  return findings;
}

// --- check: guarded-member -------------------------------------------

namespace {

// True when the stripped member-level line declares a data member; on
// success sets `*name` (google style: data members end in '_').
bool ParseDataMember(const std::string& line, std::string* name) {
  // Must be a one-line declaration ending in ';'.
  size_t end = line.size();
  while (end > 0 && std::isspace(static_cast<unsigned char>(line[end - 1]))) {
    --end;
  }
  if (end == 0 || line[end - 1] != ';') return false;
  // Labels and using/typedef/friend/static lines are not data members.
  for (const char* kw : {"using ", "typedef ", "friend ", "static ",
                         "public:", "private:", "protected:", "return "}) {
    if (line.find(kw) != std::string::npos) return false;
  }
  // Function declarations: a '(' that does not belong to a known
  // member annotation or a brace/equals initializer.
  size_t search = 0;
  size_t stop = line.size();
  // Annotations and initializers may contain parens; cut the line at
  // the first annotation/initializer token before looking for '('.
  for (const char* tok : {"GUARDED_BY", "PT_GUARDED_BY", "ACQUIRED_AFTER",
                          "ACQUIRED_BEFORE", "=", "{"}) {
    const size_t p = line.find(tok);
    if (p != std::string::npos && p < stop) stop = p;
  }
  if (line.find('(', search) < stop) return false;
  // The declared name: last identifier before the cut point / ';'.
  size_t name_end = std::min(stop, end - 1);
  while (name_end > 0 &&
         std::isspace(static_cast<unsigned char>(line[name_end - 1]))) {
    --name_end;
  }
  size_t name_start = name_end;
  while (name_start > 0 && IsIdentChar(line[name_start - 1])) --name_start;
  if (name_start == name_end) return false;
  *name = line.substr(name_start, name_end - name_start);
  // Google style: data members end in '_'; anything else at member
  // depth (enum values in one-line enums, etc.) is out of scope.
  return name->size() > 1 && (*name)[name->size() - 1] == '_';
}

bool DeclaresMutex(const std::string& line) {
  for (const char* t : {"Mutex", "SharedMutex"}) {
    const size_t pos = FindToken(line, t);
    if (pos == std::string::npos) continue;
    // A pointer/reference to a mutex is a reference to someone else's
    // lock, not a capability this class owns.
    const size_t after = pos + std::string(t).size();
    size_t p = after;
    while (p < line.size() &&
           std::isspace(static_cast<unsigned char>(line[p]))) {
      ++p;
    }
    if (p < line.size() && (line[p] == '*' || line[p] == '&')) continue;
    return true;
  }
  return false;
}

}  // namespace

std::vector<Finding> CheckGuardedMembers(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    if (file.path == "common/mutex.h") continue;  // the wrappers themselves
    const std::string stripped =
        StripComments(file.contents, /*strip_strings=*/true);
    const std::vector<std::string> raw_lines = SplitLines(file.contents);

    // Pass 1: which classes own a Mutex/SharedMutex member?
    std::set<std::string> mutex_classes;
    ScopeWalker walker1(stripped);
    walker1.ForEachLine([&](size_t /*i*/, const std::string& line,
                            const std::string& enclosing, bool member) {
      if (member && !enclosing.empty() && DeclaresMutex(line)) {
        std::string name;
        if (ParseDataMember(line, &name)) mutex_classes.insert(enclosing);
      }
    });

    // Pass 2: audit every data member of those classes.
    ScopeWalker walker2(stripped);
    walker2.ForEachLine([&](size_t i, const std::string& line,
                            const std::string& enclosing, bool member) {
      if (!member || mutex_classes.find(enclosing) == mutex_classes.end()) {
        return;
      }
      std::string name;
      if (!ParseDataMember(line, &name)) return;
      if (DeclaresMutex(line)) return;  // the capability itself
      if (FindToken(line, "CondVar") != std::string::npos) {
        return;  // a synchronization primitive, not shared data
      }
      if (FindToken(line, "std::atomic") != std::string::npos ||
          FindToken(line, "atomic") != std::string::npos) {
        return;  // atomics are their own synchronization
      }
      if (FindToken(line, "const") != std::string::npos) {
        return;  // const members are immutable after construction
      }
      if (FindToken(line, "GUARDED_BY") != std::string::npos ||
          FindToken(line, "PT_GUARDED_BY") != std::string::npos) {
        return;
      }
      // Waiver: // lint:unguarded(reason) on the line or the line above.
      const auto waived = [&](size_t idx) {
        return idx < raw_lines.size() &&
               raw_lines[idx].find("lint:unguarded(") != std::string::npos;
      };
      if (waived(i) || (i > 0 && waived(i - 1))) return;
      findings.push_back(
          {"guarded-member", file.path, int(i + 1),
           "member '" + name + "' of mutex-owning class '" + enclosing +
               "' has no GUARDED_BY/PT_GUARDED_BY annotation; add one or "
               "waive with  // lint:unguarded(reason)"});
    });
  }
  return findings;
}

// --- check: plan-node-sync -------------------------------------------

namespace {

// Index of the '}' matching the '{' at `open`, or npos.
size_t MatchBrace(const std::string& s, size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == '{') {
      ++depth;
    } else if (s[i] == '}' && --depth == 0) {
      return i;
    }
  }
  return std::string::npos;
}

// Brace-matched bodies of every *definition* of function `name` in
// stripped source: the token, a paren-matched argument list, then
// (optionally after `const`) an opening brace. Declarations and call
// sites — where the argument list is followed by ';', ',' or ')' —
// are skipped. Returns (name_position, body) pairs.
std::vector<std::pair<size_t, std::string>> FunctionBodies(
    const std::string& stripped, const std::string& name) {
  std::vector<std::pair<size_t, std::string>> bodies;
  for (size_t pos = FindToken(stripped, name); pos != std::string::npos;
       pos = FindToken(stripped, name, pos + 1)) {
    size_t p = pos + name.size();
    while (p < stripped.size() &&
           std::isspace(static_cast<unsigned char>(stripped[p]))) {
      ++p;
    }
    if (p >= stripped.size() || stripped[p] != '(') continue;
    int depth = 0;
    size_t close = std::string::npos;
    for (size_t i = p; i < stripped.size(); ++i) {
      if (stripped[i] == '(') {
        ++depth;
      } else if (stripped[i] == ')' && --depth == 0) {
        close = i;
        break;
      }
    }
    if (close == std::string::npos) break;
    size_t q = close + 1;
    while (q < stripped.size() &&
           std::isspace(static_cast<unsigned char>(stripped[q]))) {
      ++q;
    }
    if (stripped.compare(q, 5, "const") == 0 &&
        (q + 5 >= stripped.size() || !IsIdentChar(stripped[q + 5]))) {
      q += 5;
      while (q < stripped.size() &&
             std::isspace(static_cast<unsigned char>(stripped[q]))) {
        ++q;
      }
    }
    if (q >= stripped.size() || stripped[q] != '{') continue;
    const size_t end = MatchBrace(stripped, q);
    if (end == std::string::npos) continue;
    bodies.emplace_back(pos, stripped.substr(q, end - q + 1));
  }
  return bodies;
}

int LineOf(const std::string& stripped, size_t pos) {
  return int(std::count(stripped.begin(), stripped.begin() + ptrdiff_t(pos),
                        '\n')) +
         1;
}

}  // namespace

std::vector<Finding> CheckPlanNodeSync(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  const SourceFile* plan_h = nullptr;
  for (const SourceFile& f : files) {
    if (f.path == "query/plan.h") plan_h = &f;
  }
  // A tree without the plan enum has nothing to keep in sync (unit-test
  // fixtures for the other checks, partial trees).
  if (plan_h == nullptr) return findings;

  const std::string stripped_h =
      StripComments(plan_h->contents, /*strip_strings=*/true);
  const size_t enum_pos = stripped_h.find("enum class Kind");
  if (enum_pos == std::string::npos) return findings;
  const size_t open = stripped_h.find('{', enum_pos);
  if (open == std::string::npos) return findings;
  const size_t close = MatchBrace(stripped_h, open);
  if (close == std::string::npos) return findings;

  // Enumerator names; skip past any `= value` so only declared names
  // are collected.
  std::vector<std::string> kinds;
  const std::string body = stripped_h.substr(open + 1, close - open - 1);
  for (size_t i = 0; i < body.size();) {
    if (IsIdentChar(body[i])) {
      size_t e = i;
      while (e < body.size() && IsIdentChar(body[e])) ++e;
      const std::string word = body.substr(i, e - i);
      if (word.size() > 1 && word[0] == 'k' &&
          std::isupper(static_cast<unsigned char>(word[1]))) {
        kinds.push_back(word);
      }
      i = e;
      while (i < body.size() && body[i] != ',') ++i;
    } else {
      ++i;
    }
  }

  // The three places a new plan-node kind must be wired up. A missing
  // case in any of them is a silent wrong-answer bug (executor returns
  // empty, fingerprint collides, EXPLAIN renders nothing), so the sync
  // is closed at lint time.
  struct Target {
    const char* path;
    const char* function;
    const char* role;
  };
  const Target kTargets[] = {
      {"query/executor.cc", "EvalPlan", "the executor dispatch"},
      {"query/filter_cache.cc", "FingerprintFields",
       "the filter-cache fingerprint"},
      {"query/plan.cc", "ToString", "the EXPLAIN renderer"},
  };
  for (const Target& t : kTargets) {
    const SourceFile* file = nullptr;
    for (const SourceFile& f : files) {
      if (f.path == t.path) file = &f;
    }
    if (file == nullptr) {
      findings.push_back({"plan-node-sync", t.path, 0,
                          "query/plan.h declares PlanNode::Kind but " +
                              std::string(t.path) + " (" + t.role +
                              ") is missing from the tree"});
      continue;
    }
    const std::string stripped =
        StripComments(file->contents, /*strip_strings=*/true);
    const auto bodies = FunctionBodies(stripped, t.function);
    if (bodies.empty()) {
      findings.push_back({"plan-node-sync", t.path, 0,
                          std::string(t.function) + "() (" + t.role +
                              ") has no definition here; the plan-node "
                              "sync check cannot anchor"});
      continue;
    }
    for (const std::string& kind : kinds) {
      bool handled = false;
      for (const auto& [pos, fn_body] : bodies) {
        if (FindToken(fn_body, "Kind::" + kind) != std::string::npos) {
          handled = true;
          break;
        }
      }
      if (!handled) {
        findings.push_back(
            {"plan-node-sync", t.path, LineOf(stripped, bodies.front().first),
             "PlanNode::Kind::" + kind + " is not handled in " + t.function +
                 "() (" + t.role +
                 "); every plan-node kind must be covered in the executor "
                 "dispatch, the fingerprint switch, and the EXPLAIN "
                 "renderer"});
      }
    }
  }
  return findings;
}

// --- check: single-coordinator ---------------------------------------

namespace {

// True when the `name` token at `pos` is called there rather than
// declared or defined: it is followed by '(' and not preceded by a
// return type. Qualifiers (`esdb::`) are looked through.
bool IsCallSite(const std::string& stripped, size_t pos,
                const std::string& name) {
  size_t q = pos + name.size();
  while (q < stripped.size() &&
         std::isspace(static_cast<unsigned char>(stripped[q]))) {
    ++q;
  }
  if (q >= stripped.size() || stripped[q] != '(') return false;
  size_t p = pos;
  const auto skip_space = [&] {
    while (p > 0 && std::isspace(static_cast<unsigned char>(stripped[p - 1]))) {
      --p;
    }
  };
  skip_space();
  while (p >= 2 && stripped.compare(p - 2, 2, "::") == 0) {
    p -= 2;
    skip_space();
    while (p > 0 && IsIdentChar(stripped[p - 1])) --p;
    skip_space();
  }
  if (p == 0) return true;
  const char prev = stripped[p - 1];
  if (IsIdentChar(prev)) {
    size_t b = p;
    while (b > 0 && IsIdentChar(stripped[b - 1])) --b;
    const std::string word = stripped.substr(b, p - b);
    return word == "return" || word == "co_return";
  }
  if (prev == '>') return p >= 2 && stripped[p - 2] == '-';
  return prev != '*' && prev != '&';
}

}  // namespace

std::vector<Finding> CheckSingleCoordinator(
    const std::vector<SourceFile>& files) {
  // The executor entry points a query coordinator is made of. A second
  // caller is a second coordinator: a fan-out/merge/fetch loop that
  // drifts from the first (no cost pass, no two-phase fetch).
  static const char* const kEntryPoints[] = {
      "ExecuteOnShard", "ExecuteQueryPhase", "ExecuteFetchPhase",
      "AggregateResults"};
  const std::string kCoordinator = "cluster/query_coordinator.cc";
  std::vector<Finding> findings;
  for (const SourceFile& f : files) {
    if (f.path == kCoordinator) continue;
    const std::string stripped =
        StripComments(f.contents, /*strip_strings=*/true);
    for (const std::string name : kEntryPoints) {
      for (size_t pos = FindToken(stripped, name); pos != std::string::npos;
           pos = FindToken(stripped, name, pos + 1)) {
        if (!IsCallSite(stripped, pos, name)) continue;
        findings.push_back(
            {"single-coordinator", f.path, LineOf(stripped, pos),
             name + "() is called outside " + kCoordinator +
                 "; route the query through QueryCoordinator instead of "
                 "running a second fan-out"});
      }
    }
  }
  return findings;
}

// --- driver ----------------------------------------------------------

std::vector<Finding> RunLint(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  for (auto* check : {CheckLayerDag, CheckRawPrimitives, CheckLockOrder,
                      CheckFailPointRegistry, CheckGuardedMembers,
                      CheckPlanNodeSync, CheckSingleCoordinator}) {
    std::vector<Finding> f = check(files);
    findings.insert(findings.end(), std::make_move_iterator(f.begin()),
                    std::make_move_iterator(f.end()));
  }
  SortFindings(&findings);
  return findings;
}

std::string ToJson(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "  {\"check\": \"" << JsonEscape(f.check) << "\", \"file\": \""
        << JsonEscape(f.file) << "\", \"line\": " << f.line
        << ", \"message\": \"" << JsonEscape(f.message) << "\"}";
  }
  out << (findings.empty() ? "]\n" : "\n]\n");
  return out.str();
}

std::string ToText(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file;
    if (f.line > 0) out << ":" << f.line;
    out << ": [" << f.check << "] " << f.message << "\n";
  }
  return out.str();
}

}  // namespace esdb_lint
