/**
 * @file
 * Tiny command-line flag parser shared by the bench harnesses and
 * examples. Supports --name=value and boolean --name forms.
 */
#ifndef ARTMEM_UTIL_CLI_HPP
#define ARTMEM_UTIL_CLI_HPP

#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace artmem {

/** Parsed command line: flags plus positional arguments. */
class CliArgs
{
  public:
    /** Parse argv; unknown flags are kept until require_known(). */
    static CliArgs parse(int argc, char** argv);

    /**
     * fatal() naming the first given flag that appears in none of
     * @p known, so a typo or a retired flag never silently runs the
     * default configuration. Each entry point passes its full flag set.
     */
    void require_known(
        std::initializer_list<std::span<const std::string_view>> known) const;

    /** True if --name was given (with or without a value). */
    bool has(const std::string& name) const;

    /** String flag with default. */
    std::string get_string(const std::string& name,
                           const std::string& fallback) const;

    /** Integer flag with default; fatal if malformed or out of range. */
    long long get_int(const std::string& name, long long fallback) const;

    /** Count flag (accesses, jobs) with default; get_int() that is
     *  also fatal if negative or above @p max. */
    std::uint64_t get_count(const std::string& name, std::uint64_t fallback,
                            std::uint64_t max = UINT64_MAX) const;

    /** Finite double flag with default; fatal if malformed, non-finite
     *  or out of range. */
    double get_double(const std::string& name, double fallback) const;

    /** Boolean flag: present without value or with true/false. */
    bool get_bool(const std::string& name, bool fallback) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string>& positional() const { return positional_; }

    /** All flag names given, sorted (allowlist validation). */
    std::vector<std::string> flag_names() const;

    /** Program name (argv[0]). */
    const std::string& program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

}  // namespace artmem

#endif  // ARTMEM_UTIL_CLI_HPP
