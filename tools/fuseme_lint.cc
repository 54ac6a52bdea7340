// fuseme_lint — repo-invariant linter (DESIGN.md section 16).
//
// A standalone, dependency-free static checker for invariants that
// clang-tidy cannot express because they span files or name repo-local
// conventions.  It does line/token-based scanning (a mini-lexer strips
// comments and string literals; no libclang), in the same spirit as the
// hand-written JSON readers in the telemetry layer.
//
// Rules (stable ids, referenced from DESIGN.md section 16):
//
//   lint-raw-sync       No raw std::mutex / std::lock_guard /
//                       std::unique_lock / std::condition_variable (and
//                       friends) outside src/common/synchronization.h.
//                       Everything else must use the capability-annotated
//                       wrappers so Clang's -Wthread-safety sees it.
//   lint-metric-literal Every "fuseme_..." string literal in src/ is
//                       declared in src/telemetry/metric_names.h — no
//                       inline metric names bypassing the catalogue.
//   lint-metric-dead    Every catalogue entry in metric_names.h is
//                       referenced (by its kIdentifier) somewhere in src/
//                       outside the catalogue itself.
//   lint-event-literal  Every flight-recorder event id ("fuseme.x.y",
//                       two-plus dotted segments after the prefix) in
//                       src/ is declared in src/telemetry/event_names.h.
//   lint-event-dead     Every catalogue entry in event_names.h is
//                       referenced (by its kIdentifier) somewhere in src/
//                       outside the catalogue itself.
//   lint-solver-literal Every stage-solver id ("solver.x", one-plus
//                       dotted segments after the prefix) in src/ is
//                       declared in src/engine/solver_names.h — solver
//                       identity is a stable artifact/registry contract.
//   lint-rule-id-dup    Verifier rule-id string constants declared in
//                       src/verify/ are unique — ids are a stable public
//                       contract and must never be reused.
//   lint-design-ref     Every "DESIGN.md section N" (or "DESIGN.md §N")
//                       reference in the tree points at an existing
//                       "## N." heading in DESIGN.md.
//   lint-todo-tag       No TODO without an issue tag: TODO(#123).
//
// Usage:
//   fuseme_lint [--root DIR] [path...]
//
// Paths are files or directories, resolved relative to --root (default
// ".").  Directories are walked recursively for *.h / *.cc / *.cpp /
// *.hpp; directories named "fixtures" or "build" are skipped so the
// linter's own negative test fixtures do not fail a whole-tree scan.
// The metric catalogue, src/verify/ and DESIGN.md are located relative
// to --root, which lets the self-tests point --root at miniature fixture
// trees.  Exit status: 0 = clean, 1 = findings, 2 = usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string path;   // as given/relative to root, for stable output
  int line = 0;       // 1-based
  std::string rule;   // stable rule id
  std::string message;
};

struct StringLiteral {
  int line = 0;  // 1-based line of the opening quote
  std::string value;
};

/// One scanned translation unit, split by the mini-lexer.
struct FileView {
  std::string display_path;       // relative to root
  std::string raw;                // the file as read
  std::string code;               // comments + literal bodies blanked
  std::vector<StringLiteral> strings;
};

/// Strips comments and string/char literals from C++ source.  Literal
/// and comment bodies are replaced with spaces (newlines preserved), so
/// byte offsets and line numbers in `code` match `raw`.  Handles //,
/// /* */, "...", '...', and R"delim(...)delim" raw strings; that is
/// enough for this repo's sources, which the lint only ever scans for
/// identifiers and include directives.
void Lex(const std::string& raw, std::string* code,
         std::vector<StringLiteral>* strings) {
  code->assign(raw.size(), ' ');
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '\n') (*code)[i] = '\n';
  }
  enum State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = kCode;
  std::string raw_delim;          // for kRawString: the )delim" terminator
  StringLiteral current;
  int line = 1;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    if (c == '\n') ++line;
    switch (state) {
      case kCode:
        if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '/') {
          state = kLineComment;
          ++i;
        } else if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '*') {
          state = kBlockComment;
          ++i;
        } else if (c == 'R' && i + 1 < raw.size() && raw[i + 1] == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   raw[i - 1])) &&
                               raw[i - 1] != '_'))) {
          // R"delim( ... )delim"
          std::size_t paren = raw.find('(', i + 2);
          if (paren == std::string::npos) { (*code)[i] = c; break; }
          raw_delim = ")" + raw.substr(i + 2, paren - (i + 2)) + "\"";
          current = StringLiteral{line, ""};
          state = kRawString;
          i = paren;  // skip past the opening paren
        } else if (c == '"') {
          current = StringLiteral{line, ""};
          state = kString;
        } else if (c == '\'') {
          state = kChar;
        } else {
          (*code)[i] = c;
        }
        break;
      case kLineComment:
        if (c == '\n') state = kCode;
        break;
      case kBlockComment:
        if (c == '*' && i + 1 < raw.size() && raw[i + 1] == '/') {
          state = kCode;
          ++i;
        }
        break;
      case kString:
        if (c == '\\' && i + 1 < raw.size()) {
          current.value += raw[i + 1];
          ++i;
        } else if (c == '"') {
          strings->push_back(current);
          state = kCode;
        } else {
          current.value += c;
        }
        break;
      case kChar:
        if (c == '\\' && i + 1 < raw.size()) {
          ++i;
        } else if (c == '\'') {
          state = kCode;
        }
        break;
      case kRawString:
        if (c == ')' && raw.compare(i, raw_delim.size(), raw_delim) == 0) {
          strings->push_back(current);
          i += raw_delim.size() - 1;
          state = kCode;
        } else {
          current.value += c;
        }
        break;
    }
  }
  if (state == kString || state == kRawString) strings->push_back(current);
}

int LineOfOffset(const std::string& text, std::size_t offset) {
  return 1 + static_cast<int>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

bool ReadFile(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string Relative(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty()) return p.generic_string();
  return rel.generic_string();
}

// --- rule: lint-raw-sync -------------------------------------------------

const char* const kRawSyncTokens[] = {
    "std::mutex",          "std::recursive_mutex",
    "std::timed_mutex",    "std::recursive_timed_mutex",
    "std::shared_mutex",   "std::shared_timed_mutex",
    "std::lock_guard",     "std::unique_lock",
    "std::scoped_lock",    "std::shared_lock",
    "std::condition_variable", "std::condition_variable_any",
};

bool IsSynchronizationHeader(const std::string& display_path) {
  return display_path == "src/common/synchronization.h" ||
         (display_path.size() > 24 &&
          display_path.compare(display_path.size() - 24, 24,
                               "common/synchronization.h") == 0);
}

void CheckRawSync(const FileView& f, std::vector<Finding>* findings) {
  if (IsSynchronizationHeader(f.display_path)) return;
  for (const char* token : kRawSyncTokens) {
    const std::string needle = token;
    std::size_t pos = 0;
    while ((pos = f.code.find(needle, pos)) != std::string::npos) {
      // Reject identifier-continuation on the right (std::mutex_x).
      const std::size_t end = pos + needle.size();
      const char next = end < f.code.size() ? f.code[end] : ' ';
      if (!std::isalnum(static_cast<unsigned char>(next)) && next != '_') {
        findings->push_back(
            {f.display_path, LineOfOffset(f.code, pos), "lint-raw-sync",
             "raw " + needle +
                 " outside src/common/synchronization.h; use the "
                 "capability-annotated fuseme::Mutex/MutexLock/CondVar"});
      }
      pos = end;
    }
  }
  static const std::regex include_re(
      R"(#\s*include\s*<(mutex|shared_mutex|condition_variable)>)");
  for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(),
                                      include_re);
       it != std::sregex_iterator(); ++it) {
    findings->push_back(
        {f.display_path,
         LineOfOffset(f.code, static_cast<std::size_t>(it->position())),
         "lint-raw-sync",
         "#include <" + (*it)[1].str() +
             "> outside src/common/synchronization.h; include "
             "common/synchronization.h instead"});
  }
}

// --- rules: lint-metric-literal / lint-metric-dead -----------------------

struct CatalogueEntry {
  std::string identifier;  // kEngineRuns
  std::string name;        // fuseme_engine_runs_total
  int line = 0;
};

/// Parses `inline constexpr char kX[] = "...";` declarations (the value
/// may sit on the following line) out of a catalogue-style header.
std::vector<CatalogueEntry> ParseCharConstants(const std::string& raw) {
  std::vector<CatalogueEntry> entries;
  static const std::regex decl_re(
      R"re(constexpr\s+char\s+(k\w+)\s*\[\]\s*=\s*"([^"]*)")re");
  for (auto it = std::sregex_iterator(raw.begin(), raw.end(), decl_re);
       it != std::sregex_iterator(); ++it) {
    entries.push_back({(*it)[1].str(), (*it)[2].str(),
                       LineOfOffset(raw, static_cast<std::size_t>(
                                             it->position()))});
  }
  return entries;
}

bool UnderDir(const std::string& display_path, const char* prefix) {
  return display_path.rfind(prefix, 0) == 0;
}

bool IsMetricCatalogue(const std::string& display_path) {
  return display_path == "src/telemetry/metric_names.h";
}

void CheckMetricLiterals(const FileView& f,
                         const std::set<std::string>& catalogue,
                         std::vector<Finding>* findings) {
  if (!UnderDir(f.display_path, "src/") || IsMetricCatalogue(f.display_path))
    return;
  for (const StringLiteral& s : f.strings) {
    if (s.value.rfind("fuseme_", 0) != 0) continue;
    if (catalogue.count(s.value) == 0) {
      findings->push_back(
          {f.display_path, s.line, "lint-metric-literal",
           "inline metric name \"" + s.value +
               "\" not declared in src/telemetry/metric_names.h"});
    }
  }
}

// --- rules: lint-event-literal / lint-event-dead --------------------------

bool IsEventCatalogue(const std::string& display_path) {
  return display_path == "src/telemetry/event_names.h";
}

/// A flight-recorder event id: "fuseme." followed by at least two more
/// lowercase dotted segments ("fuseme.engine.run_start").  The two-segment
/// floor keeps ordinary strings that merely start with "fuseme." — the
/// facade include "fuseme.h" above all — out of the rule.
bool IsEventId(const std::string& value) {
  static const std::regex id_re(R"(^fuseme(\.[a-z0-9_]+){2,}$)");
  return std::regex_match(value, id_re);
}

void CheckEventLiterals(const FileView& f,
                        const std::set<std::string>& catalogue,
                        std::vector<Finding>* findings) {
  if (!UnderDir(f.display_path, "src/") || IsEventCatalogue(f.display_path))
    return;
  for (const StringLiteral& s : f.strings) {
    if (!IsEventId(s.value)) continue;
    if (catalogue.count(s.value) == 0) {
      findings->push_back(
          {f.display_path, s.line, "lint-event-literal",
           "inline event id \"" + s.value +
               "\" not declared in src/telemetry/event_names.h"});
    }
  }
}

// --- rule: lint-solver-literal --------------------------------------------

bool IsSolverCatalogue(const std::string& display_path) {
  return display_path == "src/engine/solver_names.h";
}

/// A stage-solver id: "solver" followed by at least one lowercase dotted
/// segment ("solver.cfo.spmm").  Plain "solver" — the ubiquitous metric
/// label key — is not an id.
bool IsSolverId(const std::string& value) {
  static const std::regex id_re(R"(^solver(\.[a-z0-9_]+)+$)");
  return std::regex_match(value, id_re);
}

void CheckSolverLiterals(const FileView& f,
                         const std::set<std::string>& catalogue,
                         std::vector<Finding>* findings) {
  if (!UnderDir(f.display_path, "src/") || IsSolverCatalogue(f.display_path))
    return;
  for (const StringLiteral& s : f.strings) {
    if (!IsSolverId(s.value)) continue;
    if (catalogue.count(s.value) == 0) {
      findings->push_back(
          {f.display_path, s.line, "lint-solver-literal",
           "inline solver id \"" + s.value +
               "\" not declared in src/engine/solver_names.h"});
    }
  }
}

// --- rule: lint-rule-id-dup ----------------------------------------------

void CheckRuleIdDuplicates(const std::vector<FileView>& files,
                           std::vector<Finding>* findings) {
  std::map<std::string, std::pair<std::string, int>> seen;  // id -> site
  for (const FileView& f : files) {
    if (!UnderDir(f.display_path, "src/verify/")) continue;
    for (const CatalogueEntry& e : ParseCharConstants(f.raw)) {
      auto [it, inserted] =
          seen.emplace(e.name, std::make_pair(f.display_path, e.line));
      if (!inserted) {
        findings->push_back(
            {f.display_path, e.line, "lint-rule-id-dup",
             "verifier rule id \"" + e.name + "\" already declared at " +
                 it->second.first + ":" + std::to_string(it->second.second)});
      }
    }
  }
}

// --- rule: lint-design-ref -----------------------------------------------

std::set<int> ParseDesignSections(const std::string& design_md) {
  std::set<int> sections;
  static const std::regex heading_re(R"(^## (\d+)\.)");
  std::istringstream in(design_md);
  std::string line;
  while (std::getline(in, line)) {
    std::smatch m;
    if (std::regex_search(line, m, heading_re)) {
      sections.insert(std::stoi(m[1].str()));
    }
  }
  return sections;
}

void CheckDesignRefs(const FileView& f, const std::set<int>& sections,
                     bool have_design_md, std::vector<Finding>* findings) {
  static const std::regex ref_re(
      R"(DESIGN\.md\s+(?:section|§)\s*(\d+))");
  for (auto it = std::sregex_iterator(f.raw.begin(), f.raw.end(), ref_re);
       it != std::sregex_iterator(); ++it) {
    const int section = std::stoi((*it)[1].str());
    const int line =
        LineOfOffset(f.raw, static_cast<std::size_t>(it->position()));
    if (!have_design_md) {
      findings->push_back({f.display_path, line, "lint-design-ref",
                           "reference to DESIGN.md section " +
                               std::to_string(section) +
                               " but DESIGN.md was not found at the root"});
    } else if (sections.count(section) == 0) {
      findings->push_back({f.display_path, line, "lint-design-ref",
                           "DESIGN.md section " + std::to_string(section) +
                               " does not exist (no \"## " +
                               std::to_string(section) + ".\" heading)"});
    }
  }
}

// --- rule: lint-todo-tag -------------------------------------------------

void CheckTodoTags(const FileView& f, std::vector<Finding>* findings) {
  static const std::regex todo_re(R"(\bTODO\b)");
  static const std::regex tagged_re(R"(\bTODO\(#\d+\))");
  for (auto it = std::sregex_iterator(f.raw.begin(), f.raw.end(), todo_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t pos = static_cast<std::size_t>(it->position());
    // Accept only TODO(#N) at this exact position.
    std::smatch m;
    const std::string tail = f.raw.substr(pos, 64);
    if (std::regex_search(tail, m, tagged_re) && m.position() == 0) continue;
    findings->push_back({f.display_path, LineOfOffset(f.raw, pos),
                         "lint-todo-tag",
                         "TODO without an issue tag; write TODO(#123)"});
  }
}

// --- driver ---------------------------------------------------------------

bool SkipDir(const fs::path& dir) {
  const std::string name = dir.filename().string();
  return name == "fixtures" || name == "build" || name == ".git";
}

void CollectFiles(const fs::path& p, std::vector<fs::path>* out) {
  if (fs::is_directory(p)) {
    for (fs::recursive_directory_iterator it(p), end; it != end; ++it) {
      if (it->is_directory() && SkipDir(it->path())) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && IsSourceFile(it->path())) {
        out->push_back(it->path());
      }
    }
  } else if (fs::is_regular_file(p)) {
    out->push_back(p);
  }
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::vector<std::string> path_args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fuseme_lint: --root needs a directory\n");
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr, "usage: fuseme_lint [--root DIR] [path...]\n");
      return 0;
    } else {
      path_args.push_back(arg);
    }
  }
  if (path_args.empty()) path_args = {"src", "tests", "bench", "examples"};
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "fuseme_lint: root %s is not a directory\n",
                 root.string().c_str());
    return 2;
  }

  std::vector<fs::path> files;
  for (const std::string& arg : path_args) {
    fs::path p = fs::path(arg).is_absolute() ? fs::path(arg) : root / arg;
    if (!fs::exists(p)) {
      std::fprintf(stderr, "fuseme_lint: no such path: %s\n",
                   p.string().c_str());
      return 2;
    }
    CollectFiles(p, &files);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<FileView> views;
  views.reserve(files.size());
  for (const fs::path& p : files) {
    FileView v;
    v.display_path = Relative(p, root);
    if (!ReadFile(p, &v.raw)) {
      std::fprintf(stderr, "fuseme_lint: cannot read %s\n",
                   p.string().c_str());
      return 2;
    }
    Lex(v.raw, &v.code, &v.strings);
    views.push_back(std::move(v));
  }

  // Shared inputs: the metric catalogue and DESIGN.md, relative to root.
  std::set<std::string> catalogue_names;
  std::vector<CatalogueEntry> catalogue_entries;
  bool scanned_catalogue = false;
  for (const FileView& v : views) {
    if (IsMetricCatalogue(v.display_path)) {
      scanned_catalogue = true;
      catalogue_entries = ParseCharConstants(v.raw);
      for (const CatalogueEntry& e : catalogue_entries) {
        catalogue_names.insert(e.name);
      }
    }
  }
  std::set<std::string> event_catalogue_names;
  std::vector<CatalogueEntry> event_catalogue_entries;
  bool scanned_event_catalogue = false;
  for (const FileView& v : views) {
    if (IsEventCatalogue(v.display_path)) {
      scanned_event_catalogue = true;
      event_catalogue_entries = ParseCharConstants(v.raw);
      for (const CatalogueEntry& e : event_catalogue_entries) {
        event_catalogue_names.insert(e.name);
      }
    }
  }
  std::set<std::string> solver_catalogue_names;
  bool scanned_solver_catalogue = false;
  for (const FileView& v : views) {
    if (IsSolverCatalogue(v.display_path)) {
      scanned_solver_catalogue = true;
      for (const CatalogueEntry& e : ParseCharConstants(v.raw)) {
        solver_catalogue_names.insert(e.name);
      }
    }
  }
  std::string design_md;
  const bool have_design_md = ReadFile(root / "DESIGN.md", &design_md);
  const std::set<int> design_sections =
      have_design_md ? ParseDesignSections(design_md) : std::set<int>{};

  std::vector<Finding> findings;
  for (const FileView& v : views) {
    CheckRawSync(v, &findings);
    if (scanned_catalogue) CheckMetricLiterals(v, catalogue_names, &findings);
    if (scanned_event_catalogue) {
      CheckEventLiterals(v, event_catalogue_names, &findings);
    }
    if (scanned_solver_catalogue) {
      CheckSolverLiterals(v, solver_catalogue_names, &findings);
    }
    CheckDesignRefs(v, design_sections, have_design_md, &findings);
    CheckTodoTags(v, &findings);
  }
  CheckRuleIdDuplicates(views, &findings);

  // lint-metric-dead is a whole-catalogue rule: it only runs when the
  // scan actually included the catalogue (i.e. src/ was scanned), so
  // linting a single file never produces spurious dead-entry findings.
  if (scanned_catalogue) {
    for (const CatalogueEntry& e : catalogue_entries) {
      bool used = false;
      for (const FileView& v : views) {
        if (IsMetricCatalogue(v.display_path) ||
            !UnderDir(v.display_path, "src/")) {
          continue;
        }
        const std::regex use_re("\\b" + e.identifier + "\\b");
        if (std::regex_search(v.code, use_re)) {
          used = true;
          break;
        }
      }
      if (!used) {
        findings.push_back(
            {"src/telemetry/metric_names.h", e.line, "lint-metric-dead",
             "catalogue entry " + e.identifier + " (\"" + e.name +
                 "\") is never referenced from src/"});
      }
    }
  }

  // lint-event-dead mirrors lint-metric-dead for the event catalogue.
  if (scanned_event_catalogue) {
    for (const CatalogueEntry& e : event_catalogue_entries) {
      bool used = false;
      for (const FileView& v : views) {
        if (IsEventCatalogue(v.display_path) ||
            !UnderDir(v.display_path, "src/")) {
          continue;
        }
        const std::regex use_re("\\b" + e.identifier + "\\b");
        if (std::regex_search(v.code, use_re)) {
          used = true;
          break;
        }
      }
      if (!used) {
        findings.push_back(
            {"src/telemetry/event_names.h", e.line, "lint-event-dead",
             "catalogue entry " + e.identifier + " (\"" + e.name +
                 "\") is never referenced from src/"});
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule) <
                     std::tie(b.path, b.line, b.rule);
            });
  for (const Finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  if (!findings.empty()) {
    std::printf("fuseme_lint: %zu finding(s)\n", findings.size());
    return 1;
  }
  return 0;
}
