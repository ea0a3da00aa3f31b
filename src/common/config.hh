/**
 * @file
 * Generic key/value configuration overrides.
 *
 * Structured configuration lives in typed structs (e.g.
 * core/system_config.hh); this Config is the string-typed override
 * layer that benches and examples use to expose knobs on the command
 * line ("key=value,key2=value2").
 */

#ifndef NVDIMMC_COMMON_CONFIG_HH
#define NVDIMMC_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace nvdimmc
{

/**
 * String-keyed override table with typed accessors. Each getter marks
 * its key as read, so a front end can reject the keys it never reads
 * (a typo such as "trefi=3900" would otherwise run the default).
 */
class Config
{
  public:
    Config() = default;

    /**
     * Parse a comma-separated "k=v,k2=v2" override string.
     * Throws FatalError on malformed input.
     */
    static Config parse(const std::string& spec);

    void set(const std::string& key, const std::string& value);

    std::string getString(const std::string& key,
                          const std::string& def) const;
    std::uint64_t getUint(const std::string& key, std::uint64_t def) const;
    bool getBool(const std::string& key, bool def) const;

    /** Throws FatalError naming every key no getter has read. */
    void rejectUnreadKeys() const;

  private:
    struct Value
    {
        std::string text;
        mutable bool read = false;
    };

    std::optional<std::string> lookup(const std::string& key) const;

    std::map<std::string, Value> values_;
};

} // namespace nvdimmc

#endif // NVDIMMC_COMMON_CONFIG_HH
