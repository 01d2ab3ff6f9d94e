/**
 * @file
 * Minimal key=value configuration store, in the spirit of MASIM's plain
 * text workload configs. Supports '#' comments, section-free files, and
 * typed getters with defaults.
 */
#ifndef ARTMEM_UTIL_CONFIG_HPP
#define ARTMEM_UTIL_CONFIG_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace artmem {

/**
 * Whole-string signed integer in strtoll's base-0 syntax (decimal, 0x
 * hex, leading-0 octal). fatal() naming @p what when @p text is empty,
 * starts with whitespace, has anything after the number, or does not
 * fit a long long. The one integer parse behind every flag and config
 * key.
 */
long long parse_int(const std::string& text, std::string_view what);

/**
 * parse_int() for a count: also fatal() naming @p what when the value
 * is negative or above @p max (the target type's range). Behind
 * CliArgs::get_count and KvConfig::get_count.
 */
std::uint64_t parse_count(const std::string& text, std::string_view what,
                          std::uint64_t max);

/**
 * Whole-string finite double in strtod's syntax. fatal() naming
 * @p what when @p text is empty, starts with whitespace, has anything
 * after the number, is nan or inf, or over- or underflows a double
 * (ERANGE). The one floating-point parse behind every flag and config
 * key, so a range check written as `x < lo || x > hi` never sees NaN.
 */
double parse_double(const std::string& text, std::string_view what);

/** A flat string-to-string configuration map with typed accessors. */
class KvConfig
{
  public:
    KvConfig() = default;

    /** Parse "key = value" lines (comments with '#'); fatal on syntax error. */
    static KvConfig parse(std::string_view text);

    /** Load and parse a file; fatal if unreadable. */
    static KvConfig load(const std::string& path);

    /** Set or overwrite a key. */
    void set(std::string key, std::string value);

    /** True if the key exists. */
    bool has(const std::string& key) const;

    /** Raw string lookup. */
    std::optional<std::string> get(const std::string& key) const;

    /** String with default. */
    std::string get_string(const std::string& key,
                           const std::string& fallback) const;

    /** Integer with default; fatal if present but not parseable. */
    long long get_int(const std::string& key, long long fallback) const;

    /** Count with default; fatal if malformed, negative or above
     *  @p max (parse_count). */
    std::uint64_t get_count(const std::string& key, std::uint64_t fallback,
                            std::uint64_t max = UINT64_MAX) const;

    /** Finite double with default; fatal if present but malformed,
     *  non-finite or out of range. */
    double get_double(const std::string& key, double fallback) const;

    /** Boolean with default; accepts true/false/1/0/yes/no. */
    bool get_bool(const std::string& key, bool fallback) const;

    /** Number of keys. */
    std::size_t size() const { return values_.size(); }

    /** All keys, sorted (validation of expected-key sets). */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, std::string> values_;
};

}  // namespace artmem

#endif  // ARTMEM_UTIL_CONFIG_HPP
