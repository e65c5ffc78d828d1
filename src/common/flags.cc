#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>

namespace idrepair {

Result<FlagParser> FlagParser::Parse(
    int argc, const char* const* argv,
    const std::vector<std::string>& bool_flags) {
  FlagParser parser;
  for (int i = 0; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      parser.positional_.push_back(std::move(token));
      continue;
    }
    std::string body = token.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      parser.flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    bool is_bool = std::find(bool_flags.begin(), bool_flags.end(), body) !=
                   bool_flags.end();
    if (is_bool) {
      parser.flags_[body] = "true";
    } else {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + body + " needs a value");
      }
      parser.flags_[body] = argv[++i];
    }
  }
  return parser;
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& fallback) const {
  read_.insert(key);
  auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

Result<int64_t> FlagParser::GetInt(const std::string& key,
                                   int64_t fallback) const {
  read_.insert(key);
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  int64_t value = 0;
  const std::string& s = it->second;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("flag --" + key +
                                   " expects an integer, got '" + s + "'");
  }
  return value;
}

Result<double> FlagParser::GetDouble(const std::string& key,
                                     double fallback) const {
  read_.insert(key);
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  // std::from_chars for double is incomplete in some libstdc++ versions;
  // strtod with full-consumption check is equivalent here.
  const std::string& s = it->second;
  char* end = nullptr;
  double value = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || s.empty()) {
    return Status::InvalidArgument("flag --" + key +
                                   " expects a number, got '" + s + "'");
  }
  return value;
}

std::vector<std::string> FlagParser::Unread() const {
  std::vector<std::string> unread;
  for (const auto& [key, value] : flags_) {
    if (read_.count(key) == 0) unread.push_back(key);
  }
  return unread;
}

}  // namespace idrepair
