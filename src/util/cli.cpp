#include "util/cli.hpp"

#include <algorithm>

#include "util/config.hpp"
#include "util/logging.hpp"

namespace artmem {

CliArgs
CliArgs::parse(int argc, char** argv)
{
    CliArgs args;
    args.program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string tok = argv[i];
        if (tok.rfind("--", 0) != 0) {
            args.positional_.push_back(std::move(tok));
            continue;
        }
        std::string body = tok.substr(2);
        const std::size_t eq = body.find('=');
        if (eq != std::string::npos) {
            // "--name=value" carries a value; a bare "--name" is boolean.
            args.flags_[body.substr(0, eq)] = body.substr(eq + 1);
        } else {
            args.flags_[body] = "";
        }
    }
    return args;
}

void
CliArgs::require_known(
    std::initializer_list<std::span<const std::string_view>> known) const
{
    for (const auto& [name, value] : flags_) {
        const bool found =
            std::any_of(known.begin(), known.end(), [&](const auto& set) {
                return std::find(set.begin(), set.end(), name) != set.end();
            });
        if (found)
            continue;
        std::string list;
        for (const auto& set : known) {
            for (const std::string_view flag : set) {
                list += " --";
                list += flag;
            }
        }
        fatal("unknown flag --", name, " (known flags:", list, ")");
    }
}

bool
CliArgs::has(const std::string& name) const
{
    return flags_.count(name) != 0;
}

std::vector<std::string>
CliArgs::flag_names() const
{
    std::vector<std::string> out;
    out.reserve(flags_.size());
    for (const auto& [name, value] : flags_)
        out.push_back(name);
    return out;
}

std::string
CliArgs::get_string(const std::string& name, const std::string& fallback) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
}

long long
CliArgs::get_int(const std::string& name, long long fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    return parse_int(it->second, "flag --" + name);
}

std::uint64_t
CliArgs::get_count(const std::string& name, std::uint64_t fallback,
                   std::uint64_t max) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    return parse_count(it->second, "flag --" + name, max);
}

double
CliArgs::get_double(const std::string& name, double fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    return parse_double(it->second, "flag --" + name);
}

bool
CliArgs::get_bool(const std::string& name, bool fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    if (it->second.empty() || it->second == "true" || it->second == "1")
        return true;
    if (it->second == "false" || it->second == "0")
        return false;
    fatal("flag --", name, " expects a boolean, got '", it->second, "'");
}

}  // namespace artmem
