#ifndef IDREPAIR_COMMON_FLAGS_H_
#define IDREPAIR_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace idrepair {

/// Minimal command-line parser for the CLI tool: positional arguments plus
/// `--key=value` / `--key value` flags and boolean `--switch` flags.
///
/// The parser remembers which keys a Has() or Get*() call asked for, so a
/// command that reads every flag it accepts up front can reject the rest
/// (Unread()) instead of running with defaults past a typo or a retired
/// flag.
class FlagParser {
 public:
  /// Parses argv (excluding argv[0]). A token starting with "--" is a flag;
  /// everything else is positional. `--key value` binds the next token as
  /// the value unless the flag was declared boolean via `bool_flags`.
  static Result<FlagParser> Parse(int argc, const char* const* argv,
                                  const std::vector<std::string>& bool_flags
                                  = {});

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& key) const {
    read_.insert(key);
    return flags_.count(key) > 0;
  }

  /// String flag with default.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;

  /// Integer flag with default; InvalidArgument on malformed values.
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const;

  /// Double flag with default; InvalidArgument on malformed values.
  Result<double> GetDouble(const std::string& key, double fallback) const;

  /// Boolean switch (present => true).
  bool GetBool(const std::string& key) const { return Has(key); }

  /// The flags given on the command line whose key no Has() or Get*() call
  /// has asked for yet, in key order.
  std::vector<std::string> Unread() const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  /// Keys asked for so far; mutable because asking is a const lookup.
  mutable std::set<std::string> read_;
};

}  // namespace idrepair

#endif  // IDREPAIR_COMMON_FLAGS_H_
