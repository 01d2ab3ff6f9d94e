#include "detlint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <regex>
#include <sstream>

namespace artmem::detlint {

namespace {

// ---------------------------------------------------------------------
// Rule catalog.
// ---------------------------------------------------------------------

const std::vector<RuleInfo> kCatalog = {
    {"DL000", "malformed suppression",
     "a lint:allow() names an unknown rule or carries no reason; "
     "suppressions must say why the exception is sound"},
    {"DL001", "wall-clock read",
     "host time varies run to run; simulated time must come from "
     "TieredMachine::now() (golden bit-identity, tests/test_faults.cpp)"},
    {"DL002", "unseeded or platform-seeded RNG",
     "rand()/std::random_device/default-seeded engines break seeded "
     "replays; every stream must take an explicit deterministic seed"},
    {"DL003", "unordered-container iteration order",
     "std::unordered_* iteration order is implementation-defined and "
     "feeds hash order into results; use flat arrays / std::map"},
    {"DL004", "discarded status result",
     "the returned status of a [[nodiscard]]-annotated API is dropped "
     "on the floor; consume it or cast to (void) with a suppression"},
    {"DL005", "raw std synchronization primitive",
     "std::mutex and std::condition_variable carry no capability "
     "attribute, so Clang thread-safety analysis cannot track them; "
     "use artmem::Mutex/MutexLock (util/sync.hpp)"},
    {"DL006", "shared mutable static",
     "writable static state is shared across sweep worker threads and "
     "across runs; make it const/constexpr or move it into the job"},
    {"DL007", "order-sensitive floating-point reduction",
     "std::reduce / parallel execution policies (and float-seeded "
     "std::accumulate over parallel results) make the reduction order, "
     "and thus the rounded sum, nondeterministic; reduce in job order"},
};

// ---------------------------------------------------------------------
// Line splitting and comment/string stripping.
// ---------------------------------------------------------------------

/** One physical line, split into analyzable layers. */
struct SourceLine {
    std::string code;     ///< Comments and literal contents blanked.
    std::string comment;  ///< Concatenated comment text on this line.
};

/**
 * Lexer state carried across lines: block comments and raw string
 * literals both span lines.
 */
struct StripState {
    bool in_block_comment = false;
    bool in_raw_string = false;
    std::string raw_terminator;  ///< ")delim\"" that ends the raw string.
};

/**
 * Blank comments and the contents of string/char literals out of one
 * line (keeping the line length stable is unnecessary; findings quote
 * the raw line). Comment text is collected separately so suppression
 * markers are only honoured inside real comments — a "lint:allow"
 * inside a string literal (this file has several) is not a
 * suppression.
 */
SourceLine
strip_line(const std::string& raw, StripState& state)
{
    SourceLine out;
    std::size_t i = 0;
    const std::size_t n = raw.size();
    while (i < n) {
        if (state.in_block_comment) {
            const std::size_t end = raw.find("*/", i);
            if (end == std::string::npos) {
                out.comment.append(raw, i, n - i);
                return out;
            }
            out.comment.append(raw, i, end - i);
            out.comment.push_back(' ');
            state.in_block_comment = false;
            i = end + 2;
            continue;
        }
        if (state.in_raw_string) {
            const std::size_t end = raw.find(state.raw_terminator, i);
            if (end == std::string::npos)
                return out;  // literal continues on the next line
            state.in_raw_string = false;
            i = end + state.raw_terminator.size();
            continue;
        }
        const char c = raw[i];
        if (c == '/' && i + 1 < n && raw[i + 1] == '/') {
            out.comment.append(raw, i + 2, n - (i + 2));
            return out;
        }
        if (c == '/' && i + 1 < n && raw[i + 1] == '*') {
            state.in_block_comment = true;
            i += 2;
            continue;
        }
        if (c == 'R' && i + 1 < n && raw[i + 1] == '"' &&
            (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                            raw[i - 1])) &&
                        raw[i - 1] != '_'))) {
            // Raw string literal: R"delim( ... )delim"
            const std::size_t open = raw.find('(', i + 2);
            if (open == std::string::npos) {
                out.code.push_back(c);
                ++i;
                continue;
            }
            state.raw_terminator =
                ")" + raw.substr(i + 2, open - (i + 2)) + "\"";
            state.in_raw_string = true;
            out.code.append("\"\"");
            i = open + 1;
            continue;
        }
        if (c == '"') {
            out.code.push_back('"');
            ++i;
            while (i < n && raw[i] != '"') {
                if (raw[i] == '\\' && i + 1 < n)
                    ++i;
                ++i;
            }
            if (i < n) {
                out.code.push_back('"');
                ++i;
            }
            continue;
        }
        if (c == '\'') {
            // Treat as a char literal only when it cannot be a C++14
            // digit separator (1'000'000) or a literal suffix.
            const bool separator =
                i > 0 && (std::isalnum(static_cast<unsigned char>(
                              raw[i - 1])) ||
                          raw[i - 1] == '_');
            if (separator) {
                out.code.push_back(c);
                ++i;
                continue;
            }
            out.code.push_back('\'');
            ++i;
            while (i < n && raw[i] != '\'') {
                if (raw[i] == '\\' && i + 1 < n)
                    ++i;
                ++i;
            }
            if (i < n) {
                out.code.push_back('\'');
                ++i;
            }
            continue;
        }
        out.code.push_back(c);
        ++i;
    }
    return out;
}

// ---------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------

struct Suppressions {
    std::vector<std::string> rules;  ///< Ids with a valid reason.
    std::vector<std::string> bad;    ///< DL000 details for this line.
};

std::string
trim(std::string_view text)
{
    std::size_t b = 0, e = text.size();
    while (b < e && std::isspace(static_cast<unsigned char>(text[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])))
        --e;
    return std::string(text.substr(b, e - b));
}

/**
 * Parse every suppression marker in a line's comment text: the
 * "lint:allow" needle, a parenthesized comma list of rule ids, then
 * the mandatory reason. A marker with an unknown rule id or an empty
 * reason is recorded as a DL000 detail instead of a suppression.
 */
Suppressions
parse_suppressions(const std::string& comment)
{
    Suppressions out;
    static const std::string kNeedle = "lint:allow(";
    std::size_t pos = 0;
    while ((pos = comment.find(kNeedle, pos)) != std::string::npos) {
        const std::size_t open = pos + kNeedle.size();
        const std::size_t close = comment.find(')', open);
        if (close == std::string::npos) {
            out.bad.push_back("unterminated lint:allow(");
            break;
        }
        // Reason: everything after ')' up to the next marker.
        std::size_t next = comment.find(kNeedle, close);
        const std::string reason = trim(comment.substr(
            close + 1, next == std::string::npos ? std::string::npos
                                                 : next - (close + 1)));
        std::stringstream ids(comment.substr(open, close - open));
        std::string id;
        while (std::getline(ids, id, ',')) {
            id = trim(id);
            if (!known_rule(id) || id == "DL000") {
                out.bad.push_back("unknown rule '" + id +
                                  "' in lint:allow()");
                continue;
            }
            if (reason.size() < 3) {
                out.bad.push_back("lint:allow(" + id +
                                  ") carries no reason");
                continue;
            }
            out.rules.push_back(id);
        }
        pos = close + 1;
    }
    return out;
}

// ---------------------------------------------------------------------
// Rule matching.
// ---------------------------------------------------------------------

struct RegexRule {
    const char* id;
    std::regex pattern;
    const char* detail;  ///< Appended to the catalog title.
    /** Path prefix the rule is scoped to (nullptr = every file). Lets a
     *  pattern that is fine in general — e.g. drawing from the frozen
     *  SeedDomain::kJob stream — be banned inside one subsystem. */
    const char* only = nullptr;
};

const std::vector<RegexRule>&
regex_rules()
{
    static const std::vector<RegexRule> kRules = [] {
        std::vector<RegexRule> rules;
        const auto add = [&rules](const char* id, const char* pattern,
                                  const char* detail,
                                  const char* only = nullptr) {
            rules.push_back({id, std::regex(pattern), detail, only});
        };
        // DL001 — wall-clock / CPU-clock reads.
        add("DL001",
            R"(std::chrono::(system_clock|steady_clock|high_resolution_clock))",
            "std::chrono clock type");
        add("DL001", R"(\b(gettimeofday|clock_gettime)\s*\()",
            "POSIX clock call");
        add("DL001", R"(\bclock\s*\(\s*\))", "C clock() call");
        add("DL001", R"(\btime\s*\()", "C time() call");
        // DL002 — unseeded / platform-seeded RNG.
        add("DL002", R"(\bsrand\s*\()", "srand()");
        add("DL002", R"(\brand\s*\(\s*\))", "rand()");
        add("DL002", R"(std::random_device)", "std::random_device");
        add("DL002",
            R"(std::(mt19937(_64)?|default_random_engine|minstd_rand0?)\s+\w+\s*(;|\{\s*\}))",
            "default-seeded engine declaration");
        add("DL002",
            R"(std::(mt19937(_64)?|default_random_engine|minstd_rand0?)\s*\(\s*\))",
            "default-seeded engine construction");
        // DL002 (src/tenancy only) — the frozen kJob domain belongs to
        // sweep jobs; tenant streams must be tagged SeedDomain::kTenant
        // or tenant 3 collides with sweep job 3 (util/rng.hpp).
        add("DL002", R"(\bSeedDomain::kJob\b)",
            "frozen kJob seed stream in tenancy code (tenant streams "
            "must derive from SeedDomain::kTenant)",
            "src/tenancy");
        // DL003 — hash-order iteration sources.
        add("DL003", R"(std::unordered_(map|set|multimap|multiset)\b)",
            "std::unordered_* container");
        // DL005 — raw std sync primitives (use util/sync.hpp).
        add("DL005",
            R"(std::(recursive_mutex|shared_mutex|timed_mutex|recursive_timed_mutex|shared_timed_mutex|mutex)\b)",
            "raw std mutex type");
        add("DL005", R"(std::condition_variable(_any)?\b)",
            "raw std condition variable");
        // DL007 — order-sensitive reductions.
        add("DL007", R"(std::(reduce|transform_reduce)\s*\()",
            "unordered reduction algorithm");
        add("DL007", R"(std::execution::(par_unseq|par|unseq)\b)",
            "parallel execution policy");
        return rules;
    }();
    return kRules;
}

/** DL006: a static (or thread_local) data declaration that is not
 *  const/constexpr. Function declarations (any '(') are skipped. */
bool
matches_mutable_static(const std::string& code)
{
    static const std::regex kDecl(
        R"(^\s*(inline\s+)?(static|thread_local)(\s+thread_local|\s+static)?\b)");
    static const std::regex kImmutable(
        R"(^\s*(inline\s+)?(static|thread_local)(\s+thread_local|\s+static)?\s+(const\b|constexpr\b|constinit\s+const\b))");
    if (!std::regex_search(code, kDecl))
        return false;
    if (std::regex_search(code, kImmutable))
        return false;
    if (code.find('(') != std::string::npos)
        return false;  // function declaration / definition
    return code.find(';') != std::string::npos ||
           code.find('=') != std::string::npos;
}

/** DL007 extension: std::accumulate seeded with a float literal. */
bool
matches_float_accumulate(const std::string& code)
{
    static const std::regex kAccum(R"(std::accumulate\s*\()");
    static const std::regex kFloatLiteral(R"([0-9]\.[0-9]*f?\b|\b\.?[0-9]+f\b)");
    return std::regex_search(code, kAccum) &&
           std::regex_search(code, kFloatLiteral);
}

/**
 * DL004: a full-statement call to a status-returning function whose
 * result is discarded. Heuristic: the trimmed line is exactly a call
 * chain ending in one of the configured functions, terminated with
 * ";", with no assignment/return/branch/cast consuming the value.
 * Entries starting with '.' only match member calls (obj.fn(...)).
 * @p prev_tail is the last character of the previous code line: a
 * statement can only start after ';', '{', '}' or ')' — anything else
 * (an operator, a type name) means this line continues an expression
 * or declaration that does consume the value.
 */
bool
matches_discarded_status(const std::string& code, char prev_tail,
                         const std::vector<std::string>& functions)
{
    if (prev_tail != '\0' && prev_tail != ';' && prev_tail != '{' &&
        prev_tail != '}' && prev_tail != ')')
        return false;
    const std::string line = trim(code);
    if (line.empty() || line.back() != ';')
        return false;
    if (line.find('=') != std::string::npos)
        return false;
    if (line.find("return") != std::string::npos ||
        line.find("(void)") != std::string::npos ||
        line.find("EXPECT_") != std::string::npos ||
        line.find("ASSERT_") != std::string::npos)
        return false;
    static const std::regex kBranch(R"(^(if|while|for|switch|case|do)\b)");
    if (std::regex_search(line, kBranch))
        return false;
    for (const auto& entry : functions) {
        const bool member_only = !entry.empty() && entry.front() == '.';
        const std::string fn = member_only ? entry.substr(1) : entry;
        const std::string chain = member_only
            ? R"(^[A-Za-z_][A-Za-z0-9_]*((::|\.|->)[A-Za-z_][A-Za-z0-9_]*)*(\.|->))"
            : R"(^([A-Za-z_][A-Za-z0-9_]*(::|\.|->))*)";
        const std::regex call(chain + fn + R"(\s*\(.*\)\s*;$)");
        if (std::regex_search(line, call))
            return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// Paths and allowlists.
// ---------------------------------------------------------------------

/** Strip a leading "./" and normalize separators for matching. */
std::string
normalize(std::string_view path)
{
    std::string p(path);
    while (p.rfind("./", 0) == 0)
        p.erase(0, 2);
    return p;
}

/** True when @p path is, or sits under, @p prefix — matched at a
 *  directory boundary, anchored at the front or any component, so
 *  repo-relative allowlists also apply to absolute paths. */
bool
path_matches(std::string_view path, std::string_view prefix)
{
    const std::string p = normalize(path);
    const std::string pre = normalize(prefix);
    if (pre.empty())
        return false;
    const auto boundary_ok = [&p, &pre](std::size_t at) {
        const std::size_t end = at + pre.size();
        return end == p.size() || p[end] == '/';
    };
    if (p.rfind(pre, 0) == 0 && boundary_ok(0))
        return true;
    const std::string anchored = "/" + pre;
    for (std::size_t pos = p.find(anchored); pos != std::string::npos;
         pos = p.find(anchored, pos + 1)) {
        if (boundary_ok(pos + 1))
            return true;
    }
    return false;
}

bool
rule_allowed(const Config& config, std::string_view rule,
             std::string_view path)
{
    const auto it = config.allow.find(std::string(rule));
    if (it == config.allow.end())
        return false;
    return std::any_of(it->second.begin(), it->second.end(),
                       [&path](const std::string& prefix) {
                           return path_matches(path, prefix);
                       });
}

std::string
title_of(std::string_view rule)
{
    for (const auto& info : rule_catalog()) {
        if (info.id == rule)
            return std::string(info.title);
    }
    return std::string(rule);
}

void
json_escape(std::ostream& os, std::string_view text)
{
    os << '"';
    for (const char c : text) {
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\t': os << "\\t"; break;
        case '\r': os << "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                const char* hex = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                os << c;
            }
            break;
        }
    }
    os << '"';
}

}  // namespace

const std::vector<RuleInfo>&
rule_catalog()
{
    return kCatalog;
}

bool
known_rule(std::string_view id)
{
    return std::any_of(kCatalog.begin(), kCatalog.end(),
                       [id](const RuleInfo& info) { return info.id == id; });
}

std::vector<Finding>
lint_text(std::string_view path, std::string_view text,
          const Config& config)
{
    std::vector<Finding> findings;
    const std::string spath(path);

    const auto emit_finding = [&](const char* rule, std::size_t line_no,
                                  const std::string& detail,
                                  const std::string& raw_line,
                                  const Suppressions& sup) {
        if (rule_allowed(config, rule, spath))
            return;
        if (std::find(sup.rules.begin(), sup.rules.end(), rule) !=
            sup.rules.end())
            return;
        Finding f;
        f.rule = rule;
        f.path = spath;
        f.line = line_no;
        f.message = title_of(rule);
        if (!detail.empty())
            f.message += ": " + detail;
        f.excerpt = trim(raw_line);
        if (f.excerpt.size() > 160)
            f.excerpt = f.excerpt.substr(0, 157) + "...";
        findings.push_back(std::move(f));
    };

    StripState state;
    std::size_t line_no = 0;
    std::size_t start = 0;
    std::vector<std::string> carried;  // from a comment-only line above
    char prev_tail = '\0';  // last char of the previous code line
    while (start <= text.size()) {
        const std::size_t end = text.find('\n', start);
        const std::string raw(text.substr(
            start, end == std::string_view::npos ? std::string_view::npos
                                                 : end - start));
        ++line_no;
        start = end == std::string_view::npos ? text.size() + 1 : end + 1;

        const SourceLine line = strip_line(raw, state);
        Suppressions sup = parse_suppressions(line.comment);
        for (const auto& bad : sup.bad)
            emit_finding("DL000", line_no, bad, raw, sup);
        // A suppression on its own comment line covers the next line
        // of code (the NOLINTNEXTLINE idiom), so long annotations
        // don't force overlong code lines.
        sup.rules.insert(sup.rules.end(), carried.begin(), carried.end());
        if (trim(line.code).empty())
            carried = sup.rules;
        else
            carried.clear();

        for (const auto& rule : regex_rules()) {
            if (rule.only != nullptr && !path_matches(spath, rule.only))
                continue;
            if (std::regex_search(line.code, rule.pattern))
                emit_finding(rule.id, line_no, rule.detail, raw, sup);
        }
        if (matches_discarded_status(line.code, prev_tail,
                                     config.status_functions))
            emit_finding("DL004", line_no, "status-returning call used as "
                         "a bare statement", raw, sup);
        if (matches_mutable_static(line.code))
            emit_finding("DL006", line_no, "non-const static data", raw,
                         sup);
        if (matches_float_accumulate(line.code))
            emit_finding("DL007", line_no,
                         "float-seeded std::accumulate", raw, sup);
        if (const std::string tail = trim(line.code); !tail.empty())
            prev_tail = tail.back();
    }
    return findings;
}

bool
parse_config(std::istream& is, Config& config, std::string& error)
{
    std::string line;
    std::string section;
    std::size_t line_no = 0;

    const auto fail = [&error, &line_no](const std::string& what) {
        error = "line " + std::to_string(line_no) + ": " + what;
        return false;
    };

    const auto parse_string_array =
        [](const std::string& value, std::vector<std::string>& out,
           std::string& why) {
            const std::string body = trim(value);
            if (body.size() < 2 || body.front() != '[' ||
                body.back() != ']') {
                why = "expected a [\"...\"] array";
                return false;
            }
            std::size_t i = 1;
            const std::size_t n = body.size() - 1;
            while (i < n) {
                while (i < n && (std::isspace(static_cast<unsigned char>(
                                     body[i])) ||
                                 body[i] == ','))
                    ++i;
                if (i >= n)
                    break;
                if (body[i] != '"') {
                    why = "array elements must be quoted strings";
                    return false;
                }
                const std::size_t close = body.find('"', i + 1);
                if (close == std::string::npos) {
                    why = "unterminated string";
                    return false;
                }
                out.push_back(body.substr(i + 1, close - (i + 1)));
                i = close + 1;
            }
            return true;
        };

    while (std::getline(is, line)) {
        ++line_no;
        bool in_string = false;
        for (std::size_t i = 0; i < line.size(); ++i) {
            if (line[i] == '"')
                in_string = !in_string;
            else if (line[i] == '#' && !in_string) {
                line.erase(i);
                break;
            }
        }
        const std::string text = trim(line);
        if (text.empty())
            continue;
        if (text.front() == '[') {
            if (text.back() != ']')
                return fail("unterminated section header");
            section = trim(text.substr(1, text.size() - 2));
            if (section != "lint" && section.rfind("rules.", 0) != 0)
                return fail("unknown section [" + section + "]");
            if (section.rfind("rules.", 0) == 0 &&
                !known_rule(section.substr(6)))
                return fail("unknown rule in section [" + section + "]");
            continue;
        }
        const std::size_t eq = text.find('=');
        if (eq == std::string::npos)
            return fail("expected key = value");
        const std::string key = trim(text.substr(0, eq));
        const std::string value = trim(text.substr(eq + 1));
        std::string why;
        if (section == "lint") {
            if (key == "extensions") {
                config.extensions.clear();
                if (!parse_string_array(value, config.extensions, why))
                    return fail(why);
            } else if (key == "exclude") {
                if (!parse_string_array(value, config.exclude, why))
                    return fail(why);
            } else {
                return fail("unknown key '" + key + "' in [lint]");
            }
        } else if (section.rfind("rules.", 0) == 0) {
            const std::string rule = section.substr(6);
            if (key == "allow") {
                if (!parse_string_array(value, config.allow[rule], why))
                    return fail(why);
            } else if (key == "functions" && rule == "DL004") {
                if (!parse_string_array(value, config.status_functions,
                                        why))
                    return fail(why);
            } else {
                return fail("unknown key '" + key + "' in [" + section +
                            "]");
            }
        } else {
            return fail("key outside any section");
        }
    }
    return true;
}

bool
load_config(const std::string& path, Config& config, std::string& error)
{
    std::ifstream is(path);
    if (!is) {
        error = path + ": cannot open";
        return false;
    }
    if (!parse_config(is, config, error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

std::vector<Finding>
lint_paths(const std::vector<std::string>& paths, const Config& config,
           std::vector<std::string>& errors)
{
    namespace fs = std::filesystem;

    const auto wanted_extension = [&config](const fs::path& p) {
        const std::string ext = p.extension().string();
        return std::find(config.extensions.begin(),
                         config.extensions.end(),
                         ext) != config.extensions.end();
    };
    const auto excluded = [&config](const std::string& p) {
        return std::any_of(config.exclude.begin(), config.exclude.end(),
                           [&p](const std::string& prefix) {
                               return path_matches(p, prefix);
                           });
    };

    std::vector<std::string> files;
    for (const auto& root : paths) {
        std::error_code ec;
        if (fs::is_directory(root, ec)) {
            for (fs::recursive_directory_iterator
                     it(root, fs::directory_options::skip_permission_denied,
                        ec),
                 end;
                 it != end; it.increment(ec)) {
                if (ec) {
                    errors.push_back(root + ": " + ec.message());
                    break;
                }
                if (it->is_regular_file(ec) &&
                    wanted_extension(it->path())) {
                    const std::string p = it->path().generic_string();
                    if (!excluded(p))
                        files.push_back(p);
                }
            }
        } else if (fs::is_regular_file(root, ec)) {
            if (!excluded(root))
                files.push_back(root);
        } else {
            errors.push_back(root + ": not a file or directory");
        }
    }
    // Deterministic report order regardless of directory enumeration.
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    std::vector<Finding> findings;
    for (const auto& file : files) {
        std::ifstream is(file, std::ios::binary);
        if (!is) {
            errors.push_back(file + ": cannot open");
            continue;
        }
        std::ostringstream text;
        text << is.rdbuf();
        auto file_findings = lint_text(file, text.str(), config);
        findings.insert(findings.end(),
                        std::make_move_iterator(file_findings.begin()),
                        std::make_move_iterator(file_findings.end()));
    }
    return findings;
}

void
write_text(std::ostream& os, const std::vector<Finding>& findings)
{
    for (const auto& f : findings) {
        os << f.path << ":" << f.line << ": [" << f.rule << "] "
           << f.message << "\n    " << f.excerpt << "\n";
    }
    if (findings.empty())
        os << "detlint: clean\n";
    else
        os << "detlint: " << findings.size() << " finding"
           << (findings.size() == 1 ? "" : "s") << "\n";
}

void
write_json(std::ostream& os, const std::vector<Finding>& findings)
{
    os << "{\n  \"tool\": \"detlint\",\n  \"count\": " << findings.size()
       << ",\n  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const auto& f = findings[i];
        os << (i == 0 ? "\n" : ",\n") << "    {\"rule\": ";
        json_escape(os, f.rule);
        os << ", \"path\": ";
        json_escape(os, f.path);
        os << ", \"line\": " << f.line << ", \"message\": ";
        json_escape(os, f.message);
        os << ", \"excerpt\": ";
        json_escape(os, f.excerpt);
        os << "}";
    }
    os << (findings.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace artmem::detlint
