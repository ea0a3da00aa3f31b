#include "common/config.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace nvdimmc
{

Config
Config::parse(const std::string& spec)
{
    Config cfg;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        if (!item.empty()) {
            std::size_t eq = item.find('=');
            if (eq == std::string::npos || eq == 0) {
                fatal("Config: malformed override '", item,
                      "' (expected key=value)");
            }
            cfg.set(item.substr(0, eq), item.substr(eq + 1));
        }
        pos = comma + 1;
    }
    return cfg;
}

void
Config::set(const std::string& key, const std::string& value)
{
    values_[key] = Value{value};
}

std::optional<std::string>
Config::lookup(const std::string& key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return std::nullopt;
    it->second.read = true;
    return it->second.text;
}

std::string
Config::getString(const std::string& key, const std::string& def) const
{
    return lookup(key).value_or(def);
}

std::uint64_t
Config::getUint(const std::string& key, std::uint64_t def) const
{
    auto v = lookup(key);
    if (!v)
        return def;
    char* end = nullptr;
    auto parsed = std::strtoull(v->c_str(), &end, 0);
    if (end == v->c_str() || *end != '\0')
        fatal("Config: '", key, "=", *v, "' is not an unsigned integer");
    return parsed;
}

bool
Config::getBool(const std::string& key, bool def) const
{
    auto v = lookup(key);
    if (!v)
        return def;
    if (*v == "1" || *v == "true" || *v == "yes" || *v == "on")
        return true;
    if (*v == "0" || *v == "false" || *v == "no" || *v == "off")
        return false;
    fatal("Config: '", key, "=", *v, "' is not a boolean");
}

void
Config::rejectUnreadKeys() const
{
    std::string unread;
    for (const auto& [key, value] : values_) {
        if (!value.read)
            unread += (unread.empty() ? "'" : ", '") + key + "'";
    }
    if (!unread.empty())
        fatal("Config: unknown key(s) ", unread);
}

} // namespace nvdimmc
