#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/logging.hpp"

namespace artmem {

namespace {

std::string
trim(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

}  // namespace

long long
parse_int(const std::string& text, std::string_view what)
{
    const char* begin = text.c_str();
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(begin, &end, 0);
    if (end == begin || *end != '\0' ||
        std::isspace(static_cast<unsigned char>(text[0])))
        fatal(what, " expects an integer, got '", text, "'");
    if (errno == ERANGE)
        fatal(what, " is out of range, got '", text, "'");
    return parsed;
}

std::uint64_t
parse_count(const std::string& text, std::string_view what,
            std::uint64_t max)
{
    const long long parsed = parse_int(text, what);
    if (parsed < 0)
        fatal(what, " must not be negative, got ", parsed);
    if (static_cast<std::uint64_t>(parsed) > max)
        fatal(what, " must be at most ", max, ", got ", parsed);
    return static_cast<std::uint64_t>(parsed);
}

double
parse_double(const std::string& text, std::string_view what)
{
    const char* begin = text.c_str();
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(begin, &end);
    if (end == begin || *end != '\0' ||
        std::isspace(static_cast<unsigned char>(text[0])))
        fatal(what, " expects a number, got '", text, "'");
    if (errno == ERANGE)
        fatal(what, " is out of range, got '", text, "'");
    if (!std::isfinite(parsed))
        fatal(what, " expects a finite number, got '", text, "'");
    return parsed;
}

KvConfig
KvConfig::parse(std::string_view text)
{
    KvConfig cfg;
    std::size_t pos = 0;
    int line_no = 0;
    while (pos <= text.size()) {
        ++line_no;
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = text.size();
        std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 1;
        const std::size_t hash = line.find('#');
        if (hash != std::string_view::npos)
            line = line.substr(0, hash);
        const std::string stripped = trim(line);
        if (stripped.empty())
            continue;
        const std::size_t eq = stripped.find('=');
        if (eq == std::string::npos)
            fatal("KvConfig: missing '=' on line ", line_no, ": ", stripped);
        std::string key = trim(std::string_view(stripped).substr(0, eq));
        std::string value = trim(std::string_view(stripped).substr(eq + 1));
        if (key.empty())
            fatal("KvConfig: empty key on line ", line_no);
        cfg.set(std::move(key), std::move(value));
        if (pos > text.size())
            break;
    }
    return cfg;
}

KvConfig
KvConfig::load(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("KvConfig: cannot open ", path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str());
}

void
KvConfig::set(std::string key, std::string value)
{
    values_[std::move(key)] = std::move(value);
}

bool
KvConfig::has(const std::string& key) const
{
    return values_.count(key) != 0;
}

std::optional<std::string>
KvConfig::get(const std::string& key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return std::nullopt;
    return it->second;
}

std::string
KvConfig::get_string(const std::string& key, const std::string& fallback) const
{
    auto v = get(key);
    return v ? *v : fallback;
}

long long
KvConfig::get_int(const std::string& key, long long fallback) const
{
    auto v = get(key);
    if (!v)
        return fallback;
    return parse_int(*v, "KvConfig: key '" + key + "'");
}

std::uint64_t
KvConfig::get_count(const std::string& key, std::uint64_t fallback,
                    std::uint64_t max) const
{
    auto v = get(key);
    if (!v)
        return fallback;
    return parse_count(*v, "KvConfig: key '" + key + "'", max);
}

double
KvConfig::get_double(const std::string& key, double fallback) const
{
    auto v = get(key);
    if (!v)
        return fallback;
    return parse_double(*v, "KvConfig: key '" + key + "'");
}

std::vector<std::string>
KvConfig::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto& [key, value] : values_)
        out.push_back(key);
    return out;
}

bool
KvConfig::get_bool(const std::string& key, bool fallback) const
{
    auto v = get(key);
    if (!v)
        return fallback;
    std::string lower = *v;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == "true" || lower == "1" || lower == "yes")
        return true;
    if (lower == "false" || lower == "0" || lower == "no")
        return false;
    fatal("KvConfig: key '", key, "' is not a boolean: ", *v);
}

}  // namespace artmem
