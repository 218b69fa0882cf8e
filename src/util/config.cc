#include "util/config.hh"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::util
{

Config
Config::fromArgs(int argc, const char *const *argv)
{
    Config cfg;
    // Original argv spelling per key, so a duplicate can name both
    // offending tokens ("jobs=4" vs "--jobs=8") instead of whichever
    // normalized form survived.
    std::map<std::string, std::string> firstToken;
    for (int i = 1; i < argc; ++i) {
        const std::string raw = argv[i];
        std::string token = raw;
        // GNU-style spelling of the same keys: --jobs=4 == jobs=4.  A
        // bare "--flag" becomes flag=1 so boolean knobs read naturally.
        if (token.rfind("--", 0) == 0) {
            token.erase(0, 2);
            if (token.find('=') == std::string::npos)
                token += "=1";
        }
        const auto eq = token.find('=');
        if (eq == std::string::npos) {
            cfg.args.push_back(token);
            continue;
        }
        const std::string key = token.substr(0, eq);
        const auto [it, inserted] = firstToken.emplace(key, raw);
        if (!inserted) {
            // Silently keeping either value would make the command line
            // order-dependent; make the conflict loud instead.
            throw ConfigError(strprintf(
                "duplicate config key '%s': given as '%s' and '%s' — "
                "pass each key at most once",
                key.c_str(), it->second.c_str(), raw.c_str()));
        }
        cfg.set(key, token.substr(eq + 1));
    }
    return cfg;
}

void
Config::set(const std::string &key, const std::string &value)
{
    const auto [it, inserted] = values.emplace(key, value);
    if (!inserted) {
        throw ConfigError(strprintf(
            "duplicate config key '%s': already set to '%s', refusing "
            "to overwrite with '%s'",
            key.c_str(), it->second.c_str(), value.c_str()));
    }
}

bool
Config::has(const std::string &key) const
{
    return values.count(key) > 0;
}

std::vector<std::string>
Config::checkKnown(const std::vector<KeyDoc> &known) const
{
    std::vector<std::string> unknown;
    for (const auto &[key, value] : values) {
        const bool found =
            key == "help" ||
            std::any_of(known.begin(), known.end(),
                        [&key](const KeyDoc &k) { return key == k.key; });
        if (!found) {
            warn("unknown config key '%s=%s' (misspelled?) is ignored — "
                 "run with --help for the recognized keys",
                 key.c_str(), value.c_str());
            unknown.push_back(key);
        }
    }
    return unknown;
}

std::string
renderKeyHelp(const std::string &program, const std::vector<KeyDoc> &keys)
{
    std::size_t width = 6; // "--help"
    for (const auto &k : keys)
        width = std::max(width, std::string(k.key).size() + 1);

    std::string out =
        strprintf("usage: %s [key=value ...]\n\nrecognized keys:\n",
                  program.c_str());
    for (const auto &k : keys) {
        out += strprintf("  %-*s  %s\n", static_cast<int>(width),
                         (std::string(k.key) + "=").c_str(), k.help);
    }
    out += strprintf("  %-*s  %s\n", static_cast<int>(width), "--help",
                     "print this key list and exit");
    out += "\nevery key also accepts the --key=value spelling; a bare "
           "--flag means flag=1\n";
    return out;
}

int
runTopLevel(int argc, const char *const *argv,
            const std::vector<KeyDoc> &keys,
            const std::function<int()> &body)
{
    // Scan raw argv instead of Config::fromArgs: help must win even on
    // a command line fromArgs would reject (duplicate keys, bad types).
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        if (token == "help" || token == "--help" || token == "help=1" ||
            token == "--help=1") {
            std::fputs(renderKeyHelp(argv[0] ? argv[0] : "program", keys)
                           .c_str(),
                       stdout);
            return 0;
        }
    }
    return runTopLevel(body);
}

std::vector<std::string>
Config::checkKnown(std::initializer_list<const char *> known) const
{
    std::vector<KeyDoc> docs;
    for (const char *key : known)
        docs.push_back({key, ""});
    return checkKnown(docs);
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t fallback) const
{
    auto it = values.find(key);
    if (it == values.end())
        return fallback;
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
        throw ConfigError(strprintf("config key '%s': '%s' is not a "
                                    "64-bit integer",
                                    key.c_str(), it->second.c_str()));
    }
    return v;
}

std::int64_t
Config::getIntIn(const std::string &key, std::int64_t fallback,
                 std::int64_t lo, std::int64_t hi) const
{
    const std::int64_t v = getInt(key, fallback);
    if (has(key) && (v < lo || v > hi)) {
        throw ConfigError(strprintf(
            "config key '%s': %lld is %s %lld", key.c_str(),
            static_cast<long long>(v),
            v < lo ? "below its minimum" : "above its maximum",
            static_cast<long long>(v < lo ? lo : hi)));
    }
    return v;
}


double
Config::getDouble(const std::string &key, double fallback) const
{
    auto it = values.find(key);
    if (it == values.end())
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
        throw ConfigError(strprintf("config key '%s': '%s' is not a "
                                    "number",
                                    key.c_str(), it->second.c_str()));
    }
    return v;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    auto it = values.find(key);
    if (it == values.end())
        return fallback;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    throw ConfigError(strprintf("config key '%s': '%s' is not a boolean",
                                key.c_str(), v.c_str()));
}

} // namespace fo4::util
