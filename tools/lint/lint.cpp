#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>

namespace aedbmls::lint {
namespace {

[[nodiscard]] bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

constexpr std::array<std::string_view, 7> kLayers = {
    "common", "par", "sim", "moo", "aedb", "core", "expt"};

[[nodiscard]] int layer_index(std::string_view layer) {
  for (std::size_t i = 0; i < kLayers.size(); ++i) {
    if (kLayers[i] == layer) return static_cast<int>(i);
  }
  return -1;
}

/// Files allowed to bypass a rule, and why.  Path-suffix matched.
struct FileExemption {
  std::string_view suffix;
  std::string_view reason;
};

/// The byte-contract codecs: every file that renders doubles into
/// campaign artifacts (manifests, indicator CSVs, reference fronts, the
/// crash-resume journal, telemetry lines) or into result tables.
constexpr std::array<std::string_view, 6> kCodecFiles = {
    "expt/manifest.cpp",       "expt/experiment.cpp",
    "common/telemetry.cpp",    "common/durable_file.cpp",
    "common/table.cpp",        "moo/core/front_io.cpp"};

void skip_spaces(std::string_view code, std::size_t& i) {
  while (i < code.size() && is_space(code[i])) ++i;
}

/// The identifier starting at `i`, advancing `i` past it ("" if none).
[[nodiscard]] std::string_view read_identifier(std::string_view code,
                                               std::size_t& i) {
  const std::size_t begin = i;
  while (i < code.size() && is_ident_char(code[i])) ++i;
  return code.substr(begin, i - begin);
}

/// Calls `fn(identifier, offset)` for every identifier in `code`.
template <typename Fn>
void for_each_identifier(std::string_view code, Fn&& fn) {
  for (std::size_t i = 0; i < code.size();) {
    if (is_ident_char(code[i]) &&
        std::isdigit(static_cast<unsigned char>(code[i])) == 0) {
      const std::size_t begin = i;
      fn(read_identifier(code, i), begin);
    } else if (is_ident_char(code[i])) {
      (void)read_identifier(code, i);  // number/suffixed literal: skip token
    } else {
      ++i;
    }
  }
}

/// First non-space character at/after `i` ('\0' if none).
[[nodiscard]] char next_char(std::string_view code, std::size_t i) {
  skip_spaces(code, i);
  return i < code.size() ? code[i] : '\0';
}

}  // namespace

std::size_t SourceFile::line_of(std::size_t offset) const {
  const auto it =
      std::upper_bound(line_start.begin(), line_start.end(), offset);
  return static_cast<std::size_t>(it - line_start.begin());
}

bool SourceFile::path_ends_with(std::string_view suffix) const {
  if (path.size() < suffix.size()) return false;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  return path.size() == suffix.size() ||
         path[path.size() - suffix.size() - 1] == '/';
}

std::string to_string(const Diagnostic& diagnostic) {
  return diagnostic.path + ":" + std::to_string(diagnostic.line) + ": [" +
         diagnostic.rule + "] " + diagnostic.message;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

SourceFile lex_file(std::string path, std::string_view bytes) {
  SourceFile file;
  file.path = std::move(path);

  // Role and layer from the right-most well-known path component, so
  // fixture trees (`tests/lint_fixtures/<case>/src/sim/x.cpp`) classify
  // by their inner `src/`.
  {
    std::vector<std::string_view> parts;
    std::string_view p = file.path;
    while (!p.empty()) {
      const std::size_t slash = p.find('/');
      parts.push_back(p.substr(0, slash));
      if (slash == std::string_view::npos) break;
      p.remove_prefix(slash + 1);
    }
    for (std::size_t i = parts.size(); i-- > 0;) {
      if (parts[i] == "src") {
        file.role = Role::kSrc;
        if (i + 1 < parts.size() && layer_index(parts[i + 1]) >= 0) {
          file.layer = std::string(parts[i + 1]);
        }
        break;
      }
      if (parts[i] == "tests") {
        file.role = Role::kTests;
        break;
      }
      if (parts[i] == "bench") {
        file.role = Role::kBench;
        break;
      }
      if (parts[i] == "examples") {
        file.role = Role::kExamples;
        break;
      }
    }
    const std::size_t dot = file.path.rfind('.');
    if (dot != std::string::npos) {
      const std::string_view ext = std::string_view(file.path).substr(dot);
      file.is_header =
          ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".ipp";
    }
  }

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  Line line;
  std::string literal;  // accumulating string-literal contents
  std::string raw_end;  // for raw strings: ")delim\""

  auto flush_line = [&] {
    if (!line.code.empty() && line.code.back() == '\r') line.code.pop_back();
    file.lines.push_back(std::move(line));
    line = Line{};
  };

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const char c = bytes[i];
    const char next = i + 1 < bytes.size() ? bytes[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      if (state == State::kString || state == State::kChar) {
        state = State::kCode;  // unterminated literal: be forgiving
      }
      if (state == State::kRawString && !literal.empty()) {
        line.strings.push_back(literal);
        literal.clear();
      }
      flush_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          line.code += ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          line.code += ' ';
          ++i;
        } else if (c == '"') {
          // Raw string?  The code buffer just received the prefix.
          const std::string& cb = line.code;
          const auto prefixed = [&](std::string_view pre) {
            if (cb.size() < pre.size() ||
                cb.compare(cb.size() - pre.size(), pre.size(), pre) != 0) {
              return false;
            }
            return cb.size() == pre.size() ||
                   !is_ident_char(cb[cb.size() - pre.size() - 1]);
          };
          if (prefixed("R") || prefixed("u8R") || prefixed("uR") ||
              prefixed("LR") || prefixed("UR")) {
            std::string delim;
            std::size_t j = i + 1;
            while (j < bytes.size() && bytes[j] != '(' && bytes[j] != '\n') {
              delim += bytes[j++];
            }
            raw_end = ")" + delim + "\"";
            state = State::kRawString;
            line.code += '"';
            i = j;  // at '('
          } else {
            state = State::kString;
            line.code += '"';
          }
        } else if (c == '\'') {
          // Digit separator (1'000'000) vs char literal.
          if (!line.code.empty() && is_ident_char(line.code.back())) {
            line.code += c;
          } else {
            state = State::kChar;
            line.code += '\'';
          }
        } else {
          line.code += c;
        }
        break;
      case State::kLineComment:
        line.comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          line.code += ' ';
          ++i;
        } else {
          line.comment += c;
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          literal += c;
          literal += next;
          ++i;
        } else if (c == '"') {
          line.strings.push_back(literal);
          literal.clear();
          line.code += '"';
          state = State::kCode;
        } else {
          literal += c;
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          ++i;
        } else if (c == '\'') {
          line.code += '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (bytes.compare(i, raw_end.size(), raw_end) == 0) {
          line.strings.push_back(literal);
          literal.clear();
          line.code += '"';
          i += raw_end.size() - 1;
          state = State::kCode;
        } else {
          literal += c;
        }
        break;
    }
  }
  if (!literal.empty()) line.strings.push_back(literal);
  if (!line.code.empty() || !line.comment.empty() || !line.strings.empty()) {
    flush_line();
  }

  // Join code lines for cross-line scanning and record offsets.
  file.line_start.reserve(file.lines.size());
  for (const Line& l : file.lines) {
    file.line_start.push_back(file.joined_code.size());
    file.joined_code += l.code;
    file.joined_code += '\n';
  }

  // #include directives.
  for (std::size_t n = 0; n < file.lines.size(); ++n) {
    std::string_view code = trim(file.lines[n].code);
    if (code.empty() || code.front() != '#') continue;
    code.remove_prefix(1);
    code = trim(code);
    if (code.rfind("include", 0) != 0) continue;
    code.remove_prefix(7);
    code = trim(code);
    if (code.empty()) continue;
    const bool angled = code.front() == '<';
    if (angled) {
      code.remove_prefix(1);
      const std::size_t end = code.find('>');
      if (end == std::string_view::npos) continue;
      file.includes.push_back(
          Include{n + 1, std::string(code.substr(0, end)), true});
    } else if (code.front() == '"' && !file.lines[n].strings.empty()) {
      // The lexer blanked the quoted target into the string table.
      file.includes.push_back(
          Include{n + 1, file.lines[n].strings.front(), false});
    }
  }
  return file;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

namespace {

/// layer-deps: the `#include` graph must follow the layer order
/// `common -> par -> sim -> moo -> aedb -> core -> expt` that CMake only
/// enforces at link time.  tests/, bench/ and examples/ are exempt (they
/// legitimately drive every layer).
class LayerDepsRule final : public Rule {
 public:
  std::string_view id() const override { return "layer-deps"; }
  std::string_view summary() const override {
    return "includes must follow the layer order "
           "common -> par -> sim -> moo -> aedb -> core -> expt";
  }
  void check(const SourceFile& file,
             std::vector<Diagnostic>& out) const override {
    struct RoleExemption {
      Role role;
      std::string_view reason;
    };
    static constexpr std::array<RoleExemption, 3> kExempt = {{
        {Role::kTests, "test suites drive every layer"},
        {Role::kBench, "benchmarks drive every layer"},
        {Role::kExamples, "examples drive every layer"},
    }};
    for (const RoleExemption& e : kExempt) {
      if (file.role == e.role) return;
    }
    if (file.role != Role::kSrc || file.layer.empty()) return;
    const int own = layer_index(file.layer);
    for (const Include& inc : file.includes) {
      if (inc.angled) continue;
      const std::size_t slash = inc.target.find('/');
      if (slash == std::string::npos) continue;
      const int theirs = layer_index(inc.target.substr(0, slash));
      if (theirs < 0 || theirs <= own) continue;
      out.push_back(Diagnostic{
          file.path, inc.line, std::string(id()),
          "include \"" + inc.target + "\" from layer '" + file.layer +
              "' inverts the dependency order common -> par -> sim -> moo "
              "-> aedb -> core -> expt"});
    }
  }
};

/// determinism-hazards: wall-clock reads outside common/clock,
/// non-deterministic RNG outside common/rng, and iteration over
/// std::unordered_{map,set} — the bug classes the bitwise CI gates
/// (thread-count invariance, merged==unsharded, fresh==pooled) exist to
/// catch, reported before they need a campaign to reproduce.
class DeterminismRule final : public Rule {
 public:
  std::string_view id() const override { return "determinism-hazards"; }
  std::string_view summary() const override {
    return "no wall-clock reads outside common/clock, no ambient RNG "
           "outside common/rng, no unordered-container iteration";
  }
  void check(const SourceFile& file,
             std::vector<Diagnostic>& out) const override {
    if (file.role != Role::kSrc) return;
    const bool clock_module = file.path_ends_with("common/clock.hpp") ||
                              file.path_ends_with("common/clock.cpp");
    const bool rng_module = file.path_ends_with("common/rng.hpp") ||
                            file.path_ends_with("common/rng.cpp");
    const std::string_view code = file.joined_code;

    std::set<std::string, std::less<>> unordered_vars;
    for_each_identifier(code, [&](std::string_view ident, std::size_t off) {
      const auto diag = [&](const std::string& message) {
        out.push_back(Diagnostic{file.path, file.line_of(off),
                                 std::string(id()), message});
      };
      if (!clock_module &&
          (ident == "steady_clock" || ident == "system_clock" ||
           ident == "high_resolution_clock")) {
        diag("std::chrono::" + std::string(ident) +
             " outside common/clock — route timing through "
             "aedbmls::monotonic_ns()/ElapsedTimer so every wall-clock "
             "read stays auditable");
        return;
      }
      const char after = next_char(code, off + ident.size());
      if ((ident == "time" || ident == "clock") && after == '(') {
        diag("'" + std::string(ident) +
             "()' reads the wall clock — use common/clock "
             "(aedbmls::monotonic_ns()/ElapsedTimer) instead");
        return;
      }
      if (!rng_module && ((ident == "rand" && after == '(') ||
                          (ident == "srand" && after == '(') ||
                          ident == "random_device")) {
        diag("'" + std::string(ident) +
             "' is non-deterministic RNG outside common/rng — seed a "
             "Xoshiro256 from the campaign plan instead");
        return;
      }
      if (ident == "unordered_map" || ident == "unordered_set") {
        // Track `unordered_xxx<...> [&*] name` declarations so the
        // iteration scan below can flag range-for/begin() over them.
        std::size_t i = off + ident.size();
        skip_spaces(code, i);
        if (i >= code.size() || code[i] != '<') return;
        int depth = 0;
        while (i < code.size()) {
          if (code[i] == '<') ++depth;
          if (code[i] == '>' && --depth == 0) break;
          ++i;
        }
        if (depth != 0) return;
        ++i;
        skip_spaces(code, i);
        while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
          ++i;
          skip_spaces(code, i);
        }
        const std::string_view name = read_identifier(code, i);
        if (!name.empty()) unordered_vars.insert(std::string(name));
      }
    });

    if (unordered_vars.empty()) return;
    const auto iteration_diag = [&](std::string_view name, std::size_t off) {
      out.push_back(Diagnostic{
          file.path, file.line_of(off), std::string(id()),
          "iteration over unordered container '" + std::string(name) +
              "' — hash order must never reach campaign output bytes; use "
              "std::map or a sorted vector, or prove the fold "
              "order-independent with a justified lint: allow"});
    };
    for_each_identifier(code, [&](std::string_view ident, std::size_t off) {
      if (ident == "for") {
        // Range-for whose range expression is a tracked variable.
        std::size_t i = off + ident.size();
        skip_spaces(code, i);
        if (i >= code.size() || code[i] != '(') return;
        int depth = 0;
        std::size_t colon = std::string_view::npos;
        for (; i < code.size(); ++i) {
          if (code[i] == '(') ++depth;
          if (code[i] == ')' && --depth == 0) break;
          if (depth == 1 && code[i] == ';') return;  // classic for
          if (depth == 1 && code[i] == ':' && colon == std::string_view::npos &&
              (i == 0 || code[i - 1] != ':') &&
              (i + 1 >= code.size() || code[i + 1] != ':')) {
            colon = i;
          }
        }
        if (colon == std::string_view::npos || i >= code.size()) return;
        const std::string_view range =
            trim(code.substr(colon + 1, i - colon - 1));
        if (unordered_vars.count(range) > 0) iteration_diag(range, off);
        return;
      }
      if (unordered_vars.count(ident) > 0) {
        std::size_t i = off + ident.size();
        skip_spaces(code, i);
        if (i < code.size() && code[i] == '.') {
          ++i;
          skip_spaces(code, i);
          const std::string_view member = read_identifier(code, i);
          if ((member == "begin" || member == "cbegin" || member == "rbegin") &&
              next_char(code, i) == '(') {
            iteration_diag(ident, off);
          }
        }
      }
    });
  }
};

/// durable-io: raw stream/rename writes outside common/durable_file.cpp
/// bypass the atomic tmp+rename and `#crc32` trailer policy every
/// campaign artifact carries (PR 8) — a torn or bit-flipped artifact
/// would parse as truth.
class DurableIoRule final : public Rule {
 public:
  std::string_view id() const override { return "durable-io"; }
  std::string_view summary() const override {
    return "artifact writes must go through common/durable_file "
           "(atomic_write_file + #crc32), not raw ofstream/fopen/rename";
  }
  void check(const SourceFile& file,
             std::vector<Diagnostic>& out) const override {
    if (file.role != Role::kSrc) return;
    static constexpr FileExemption kExempt = {
        "common/durable_file.cpp",
        "the one place raw writes are allowed: it implements the policy"};
    if (file.path_ends_with(kExempt.suffix)) return;
    const std::string_view code = file.joined_code;
    for_each_identifier(code, [&](std::string_view ident, std::size_t off) {
      const bool call_like = next_char(code, off + ident.size()) == '(';
      std::string message;
      if (ident == "ofstream") {
        message =
            "std::ofstream outside common/durable_file — write campaign "
            "artifacts with io::atomic_write_file (+ #crc32 trailer) so a "
            "crash cannot leave a torn file";
      } else if ((ident == "fopen" || ident == "freopen") && call_like) {
        message = "'" + std::string(ident) +
                  "' outside common/durable_file — write campaign artifacts "
                  "with io::atomic_write_file (+ #crc32 trailer)";
      } else if (ident == "rename" && call_like) {
        message =
            "rename() outside common/durable_file — atomic replacement "
            "belongs to io::atomic_write_file (tmp + fsync + rename)";
      } else {
        return;
      }
      out.push_back(
          Diagnostic{file.path, file.line_of(off), std::string(id()), message});
    });
  }
};

/// float-format: in codec files, doubles must render as `%.17g` — the
/// exact binary64 round-trip the merge/shard/race byte-equality gates
/// are built on.  `std::to_string` on a floating value (6 fixed digits,
/// locale-tinted) silently breaks that contract.
class FloatFormatRule final : public Rule {
 public:
  std::string_view id() const override { return "float-format"; }
  std::string_view summary() const override {
    return "codec files must print doubles as %.17g (exact binary64 "
           "round-trip); std::to_string on floats is banned there";
  }
  void check(const SourceFile& file,
             std::vector<Diagnostic>& out) const override {
    bool codec = false;
    for (const std::string_view suffix : kCodecFiles) {
      codec = codec || file.path_ends_with(suffix);
    }
    if (!codec) return;

    // Printf-style float conversions in string literals.
    for (std::size_t n = 0; n < file.lines.size(); ++n) {
      for (const std::string& s : file.lines[n].strings) {
        check_format_literal(file, n + 1, s, out);
      }
    }

    // std::to_string on floating values: a single forward pass tracks
    // double/float declarations with poor-man's scoping (variables in a
    // parameter list live exactly as long as the following body).
    const std::string_view code = file.joined_code;
    std::vector<std::pair<std::string, int>> floats;  // name, brace depth
    int brace = 0;
    int paren = 0;
    for (std::size_t i = 0; i < code.size();) {
      const char c = code[i];
      if (c == '{') {
        ++brace;
        ++i;
      } else if (c == '}') {
        --brace;
        while (!floats.empty() && floats.back().second > brace) {
          floats.pop_back();
        }
        ++i;
      } else if (c == '(') {
        ++paren;
        ++i;
      } else if (c == ')') {
        paren = std::max(0, paren - 1);
        ++i;
      } else if (is_ident_char(c) &&
                 std::isdigit(static_cast<unsigned char>(c)) == 0) {
        const std::size_t off = i;
        const std::string_view ident = read_identifier(code, i);
        if (ident == "double" || ident == "float") {
          std::size_t j = i;
          skip_spaces(code, j);
          while (j < code.size() && (code[j] == '&' || code[j] == '*')) {
            ++j;
            skip_spaces(code, j);
          }
          const std::string_view name = read_identifier(code, j);
          if (!name.empty()) {
            floats.emplace_back(std::string(name),
                                brace + (paren > 0 ? 1 : 0));
          }
        } else if (ident == "to_string" &&
                   next_char(code, i) == '(') {
          std::size_t j = code.find('(', i);
          int depth = 0;
          const std::size_t arg_begin = j + 1;
          for (; j < code.size(); ++j) {
            if (code[j] == '(') ++depth;
            if (code[j] == ')' && --depth == 0) break;
          }
          if (j >= code.size()) continue;
          const std::string_view arg = code.substr(arg_begin, j - arg_begin);
          std::string reason;
          if (contains_float_literal(arg)) {
            reason = "a floating literal";
          }
          for_each_identifier(arg, [&](std::string_view a, std::size_t) {
            for (const auto& [name, depth_] : floats) {
              if (reason.empty() && name == a) {
                reason = "'" + name + "' (declared double/float)";
              }
            }
          });
          if (!reason.empty()) {
            out.push_back(Diagnostic{
                file.path, file.line_of(off), std::string(id()),
                "std::to_string on " + reason +
                    " in a codec file — std::to_string renders 6 fixed "
                    "digits and cannot round-trip binary64; print doubles "
                    "with %.17g"});
          }
          i = j;
        }
      } else {
        ++i;
      }
    }
  }

 private:
  static bool contains_float_literal(std::string_view arg) {
    for (std::size_t i = 0; i + 1 < arg.size(); ++i) {
      const bool digit =
          std::isdigit(static_cast<unsigned char>(arg[i])) != 0;
      const bool next_digit =
          std::isdigit(static_cast<unsigned char>(arg[i + 1])) != 0;
      if ((digit && arg[i + 1] == '.') || (arg[i] == '.' && next_digit)) {
        return true;
      }
      if (digit && (arg[i + 1] == 'e' || arg[i + 1] == 'E') &&
          i + 2 < arg.size() &&
          (std::isdigit(static_cast<unsigned char>(arg[i + 2])) != 0 ||
           arg[i + 2] == '+' || arg[i + 2] == '-')) {
        return true;
      }
    }
    return false;
  }

  void check_format_literal(const SourceFile& file, std::size_t line,
                            const std::string& s,
                            std::vector<Diagnostic>& out) const {
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != '%') continue;
      std::size_t j = i + 1;
      if (j < s.size() && s[j] == '%') {
        i = j;
        continue;
      }
      std::string spec = "%";
      const auto take = [&](auto&& pred) {
        while (j < s.size() && pred(s[j])) spec += s[j++];
      };
      take([](char c) {
        return c == '-' || c == '+' || c == ' ' || c == '#' || c == '0';
      });
      take([](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '*';
      });
      if (j < s.size() && s[j] == '.') {
        spec += s[j++];
        take([](char c) {
          return std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '*';
        });
      }
      take([](char c) {
        return c == 'h' || c == 'l' || c == 'j' || c == 'z' || c == 't' ||
               c == 'L' || c == 'q';
      });
      if (j >= s.size()) break;
      const char conv = s[j];
      spec += conv;
      if ((conv == 'a' || conv == 'e' || conv == 'f' || conv == 'g' ||
           conv == 'A' || conv == 'E' || conv == 'F' || conv == 'G') &&
          spec != "%.17g") {
        out.push_back(Diagnostic{
            file.path, line, std::string(id()),
            "float format '" + spec +
                "' in a codec file — doubles must print as %.17g (exact "
                "binary64 round-trip), or carry a lint: allow explaining "
                "why these bytes never reach an artifact"});
      }
      i = j;
    }
  }
};

/// header-hygiene: no <iostream> in headers (static-init cost in every
/// includer) and no `using namespace` in headers (leaks into every
/// includer, changes overload resolution at a distance).
class HeaderHygieneRule final : public Rule {
 public:
  std::string_view id() const override { return "header-hygiene"; }
  std::string_view summary() const override {
    return "headers must not include <iostream> or contain "
           "'using namespace'";
  }
  void check(const SourceFile& file,
             std::vector<Diagnostic>& out) const override {
    if (!file.is_header) return;
    for (const Include& inc : file.includes) {
      if (inc.angled && inc.target == "iostream") {
        out.push_back(Diagnostic{
            file.path, inc.line, std::string(id()),
            "<iostream> in a header drags iostream's static "
            "initialization into every includer — use <iosfwd> or move "
            "the I/O into a .cpp"});
      }
    }
    const std::string_view code = file.joined_code;
    for_each_identifier(code, [&](std::string_view ident, std::size_t off) {
      if (ident != "using") return;
      std::size_t i = off + ident.size();
      skip_spaces(code, i);
      if (read_identifier(code, i) == "namespace") {
        out.push_back(Diagnostic{
            file.path, file.line_of(off), std::string(id()),
            "'using namespace' in a header leaks the namespace into every "
            "includer and can flip overload resolution at a distance"});
      }
    });
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> make_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<LayerDepsRule>());
  rules.push_back(std::make_unique<DeterminismRule>());
  rules.push_back(std::make_unique<DurableIoRule>());
  rules.push_back(std::make_unique<FloatFormatRule>());
  rules.push_back(std::make_unique<HeaderHygieneRule>());
  return rules;
}

// ---------------------------------------------------------------------------
// Suppressions + per-file driver
// ---------------------------------------------------------------------------

namespace {

struct Suppression {
  std::size_t comment_line = 0;  // where the allow() comment sits
  std::size_t target_line = 0;   // the code line it suppresses
  std::string rule;
  bool used = false;
};

}  // namespace

void lint_file(const SourceFile& file,
               const std::vector<std::unique_ptr<Rule>>& rules,
               std::vector<Diagnostic>& out) {
  std::set<std::string_view> known;
  for (const auto& rule : rules) known.insert(rule->id());

  // Parse `// lint: allow(<rule>): <justification>` comments.  A
  // comment-only line suppresses the next line that carries code, so
  // multi-line justification blocks attach to the statement below them.
  std::vector<Suppression> suppressions;
  std::vector<std::size_t> pending;  // indices awaiting a code line
  for (std::size_t n = 0; n < file.lines.size(); ++n) {
    const Line& line = file.lines[n];
    const bool has_code = !trim(line.code).empty();
    if (has_code) {
      for (const std::size_t p : pending) {
        suppressions[p].target_line = n + 1;
      }
      pending.clear();
    }
    // A suppression comment *starts* with `lint:` (mentioning the
    // grammar mid-prose, as docs do, is not a suppression).
    const std::string_view comment = trim(line.comment);
    if (comment.rfind("lint:", 0) != 0) continue;
    std::string_view rest = trim(comment.substr(5));
    if (rest.rfind("allow(", 0) != 0) {
      out.push_back(Diagnostic{
          file.path, n + 1, std::string(kSuppressionRule),
          "malformed suppression — the grammar is "
          "`// lint: allow(<rule-id>): <why this is safe>`"});
      continue;
    }
    rest.remove_prefix(6);
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      out.push_back(Diagnostic{
          file.path, n + 1, std::string(kSuppressionRule),
          "malformed suppression — missing ')' after the rule id"});
      continue;
    }
    const std::string rule(trim(rest.substr(0, close)));
    rest = trim(rest.substr(close + 1));
    if (known.count(rule) == 0) {
      std::string ids;
      for (const auto& r : rules) {
        if (!ids.empty()) ids += ", ";
        ids += r->id();
      }
      out.push_back(Diagnostic{
          file.path, n + 1, std::string(kSuppressionRule),
          "suppression names unknown rule '" + rule + "' (rules: " + ids +
              ")"});
      continue;
    }
    if (rest.empty() || rest.front() != ':' ||
        trim(rest.substr(1)).empty()) {
      out.push_back(Diagnostic{
          file.path, n + 1, std::string(kSuppressionRule),
          "suppression for '" + rule +
              "' is missing its justification — write `// lint: allow(" +
              rule + "): <why this is safe>`"});
      continue;
    }
    suppressions.push_back(Suppression{n + 1, has_code ? n + 1 : 0, rule});
    if (!has_code) pending.push_back(suppressions.size() - 1);
  }

  std::vector<Diagnostic> found;
  for (const auto& rule : rules) rule->check(file, found);

  for (Diagnostic& diagnostic : found) {
    bool suppressed = false;
    for (Suppression& s : suppressions) {
      if (s.target_line == diagnostic.line && s.rule == diagnostic.rule) {
        s.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) out.push_back(std::move(diagnostic));
  }

  // A suppression that no longer fires is dead weight that would hide
  // the next real regression on that line: report it.  (Skipped by the
  // driver when --only excludes rules, since their findings are absent.)
  for (const Suppression& s : suppressions) {
    if (s.used) continue;
    if (s.target_line == 0) {
      out.push_back(Diagnostic{
          file.path, s.comment_line, std::string(kSuppressionRule),
          "suppression for '" + s.rule +
              "' is not followed by any code line — move it onto or "
              "directly above the offending statement"});
      continue;
    }
    out.push_back(Diagnostic{
        file.path, s.comment_line, std::string(kSuppressionRule),
        "suppression for '" + s.rule + "' never fired — remove it (stale "
        "suppressions hide future regressions)"});
  }
}

}  // namespace aedbmls::lint
